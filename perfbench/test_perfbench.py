"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

The slow tests run each workload once untraced and once traced through
run.py; a traced run fails unless every span expected on its workload
fired and its outputs equal the untraced outputs byte for byte.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.UNITS)
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == list(run.UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == [row[:3] for row in LAYER_METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert (workloads.inputs_digest(workloads.operations(workload, 7))
                == workloads.inputs_digest(workloads.operations(workload, 7)))
    digests = {workloads.inputs_digest(workloads.operations("oracle", s))
               for s in range(5)}
    assert len(digests) == 5


def test_every_truncation_has_a_reference():
    references = json.loads(child.REFERENCES.read_text())["outputs"]
    for seed in range(40):
        for workload in workloads.WORKLOADS:
            for op in workloads.operations(workload, seed):
                if op.get("ref"):
                    assert " ".join(op["argv"]) in references


def test_rendered_places_parse_back():
    from ascount.cli import parse_divisor
    from ascount.fields import make_context
    for (p, n), table in workloads.PLACES.items():
        ctx = make_context(p, n, 1)
        for poly in table:
            spec = workloads.render_divisor([(poly, 3)], p, n)
            ((place, e),) = parse_divisor(ctx, spec).items()
            assert (place.poly, e) == (poly, 3), spec


def test_check_flags_wrong_and_failed_outputs():
    ops = workloads.operations("global-series", 1)
    wrong = [{"rc": 0, "stdout": "0\n", "stderr": ""} for _ in ops]
    assert {v[0] for v in child.check(ops, wrong, {})} == {"wrong"}
    failed = [{"rc": 1, "stdout": "", "stderr": "boom"} for _ in ops]
    assert {v[0] for v in child.check(ops, failed, {})} == {"error"}
    raised = [{"raised": "RecursionError", "message": "", "stdout": "",
               "stderr": ""}]
    known = [op for op in workloads.operations("oracle", 1)
             if op.get("known_failure")]
    assert child.check(known, raised, {})[0][0] == "known_failure"


def test_digest_sees_every_coefficient():
    from ascount.dirichlet import TruncatedSeries
    coeffs = list(range(11))
    a = TruncatedSeries(coeffs, 10)
    b = TruncatedSeries(coeffs[:9] + [0, 10], 10)
    assert repr(a) == repr(b)
    assert child.digest({"value": a}) != child.digest({"value": b})
    assert child.digest({"value": [a]}) == child.digest({"value": [a]})


def test_known_failure_that_succeeds_is_still_checked():
    from ascount.asymptotics import local_leading_constants
    from ascount.fields import make_context
    (op,) = [op for op in workloads.operations("local-analytic", 1)
             if op.get("known_failure")]
    # what the report would say if the tolerance were simply loosened
    constants = local_leading_constants(make_context(3, 1, 3), tolerance=1.0)
    payload = {"p": 3, "n": 1, "r": 3, "constants": {
        "modulus": constants.modulus, "m_max": constants.m_max,
        "values": {str(k): v for k, v in constants.constants.items()}}}
    outcome = {"rc": 0, "stdout": json.dumps(payload), "stderr": ""}
    status, detail = child.check([op], [outcome], {})[0]
    assert status == "wrong" and "class 4" in detail, detail
    good = local_leading_constants(make_context(2, 1, 3))
    assert child._check_local_constants(2, 3, {
        "modulus": good.modulus, "m_max": good.m_max,
        "values": {str(k): v for k, v in good.constants.items()}}) is None


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_counts_only_the_known_failures(workload):
    result, text = _run(workload, 0)
    assert result["correct"], text
    ops = workloads.operations(workload, 3)
    known = sum(bool(op.get("known_failure")) for op in ops)
    reps = result["attempted"] // len(ops)
    assert result["metrics"]["ok_frac"]["value"] == \
        (len(ops) - known) * reps / result["attempted"]
    assert set(result["metrics"]) == set(run.UNITS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_fires_its_spans_and_matches_untraced(workload):
    result, text = _run(workload, 1)
    assert result["correct"], text
    assert set(result["metrics"]) == {row[0] for row in LAYER_METRICS}
