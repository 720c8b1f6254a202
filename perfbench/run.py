"""The ascount benchmark: one workload, one seed, every output checked.

    python3 perfbench/run.py --workload global-series --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the directory holding src/ascount).
Every timed repetition is a fresh interpreter with PYTHONPATH=src, as a
CLI user pays import and cold caches on every call.  One process at a
time does the work, on one thread.  Times are rescaled to a reference
machine speed measured while they run, wall times by a probe timed on the
wall clock and CPU times by one timed on the CPU clock (speed.py); the raw
medians are printed beside them.

--trace 0  as many steps as fit in --seconds (at least one), each
           SETUP_PER_REP fresh interpreters that import ascount.cli and
           build the parser, then one repetition of the workload; reports
           the medians of setup_s over the imports and of wall_s, cpu_s
           and peak_rss_mb over the repetitions, and ok_frac.
--trace 1  pairs of untraced and traced repetitions, as many as fit in
           --seconds (at least one pair); reports every per-layer metric
           (tracer.py), the import times from -X importtime, and
           trace.overhead_s.  Fails unless each traced output equals the
           untraced one byte for byte and every span expected on the
           workload fired.

The last stdout line is one JSON object: correct, attempted, failed
(operations, over all repetitions, whose output was wrong or that failed
unexpectedly) and metrics.  Inputs that fail at the seed commit (workloads.py,
"known_failure") count against ok_frac but not in failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_PER_REP = 4
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0
SETUP_CODE = f"""\
import sys; sys.path.insert(0, {str(HERE)!r}); import speed
with speed.SpeedProbe(0.02) as probe:
    import ascount.cli; ascount.cli.build_parser()
print(probe.spent_wall, probe.speed())
"""
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "ok_frac": "ratio"}

# Spans that must fire on each workload in the traced run.
EXPECTED_SPANS = {
    "global-series": (
        "cli.main", "global_dirichlet", "global_factor_series",
        "powered_place_factor", "euler_factor_series", "TruncatedSeries.mul",
        "TruncatedSeries.pow", "enumerate_chains", "chain_term_count",
        "factor_coefficient", "delsarte_weight", "place_count", "report_json",
        "main_term_fit", "local_leading_constants", "local_pole_catalog",
        "global_pole_catalog"),
    "oracle": (
        "cli.main", "enumerate_global", "candidate_vectors", "line_reps",
        "make_rep", "rep_scale", "rep_add", "disc_exponent_via_lines",
        "chain_at_place", "residue_field", "irreducibles", "global_count",
        "global_count_by_degree", "effective_divisors", "enumerate_local",
        "local_count", "factor_coefficient", "finite_place", "global_dirichlet"),
    "local-analytic": (
        "cli.main", "local_rational", "RationalSeries.series", "psi_polynomial",
        "psi_closed_form", "euler_factor_series", "TruncatedSeries.mul",
        "factor_coefficient", "enumerate_chains", "chain_term_count",
        "local_leading_constants", "local_pole_catalog", "global_pole_catalog",
        "verify_inequalities", "report_json", "delsarte_weight"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ASCOUNT_WORKERS", None)  # would switch global_dirichlet to threads
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import cached bytecode, as installed
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd, deadline) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise BenchError(f"{cmd[1:3]} did not finish in time") from exc


def setup_sample(deadline) -> tuple:
    """One fresh interpreter that imports ascount.cli and builds the parser:
    its time rescaled to the reference speed, and the raw time."""
    t0 = time.perf_counter()
    proc = _run([sys.executable, "-c", SETUP_CODE], deadline)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise BenchError(f"importing ascount.cli failed: {proc.stderr[-500:]}")
    probe_s, speed = map(float, proc.stdout.split())
    return (elapsed - probe_s) * speed, elapsed


def measure_imports(deadline) -> dict:
    """Cumulative import times from -X importtime, median of a few runs."""
    wanted = {"ascount.cli": [], "numpy": [], "mpmath": []}
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import ascount.cli"],
                    deadline)
        if proc.returncode:
            raise BenchError(f"importing ascount.cli failed: {proc.stderr[-500:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                wanted[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"import.{name}.s": statistics.median(v) for name, v in wanted.items()}


def run_child(workload, seed, deadline, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = _run(cmd, deadline)
    if proc.returncode:
        raise BenchError(f"workload process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload, seed, seconds, deadline, trace) -> tuple:
    """Run steps while the next one is expected to end within `seconds`
    (at least one).  Untraced, a step is SETUP_PER_REP set-up samples and a
    repetition, so that the set-up samples meet as many states of the host
    as the repetitions do; traced, it is an untraced and a traced
    repetition.  Returns the repetitions and the set-up samples."""
    reps, setups, start, longest = [], [], time.monotonic(), 0.0
    while not reps or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        if not trace:
            setups.extend(setup_sample(deadline) for _ in range(SETUP_PER_REP))
        for traced in (False, True)[:1 + trace]:
            trace_out = None
            if traced:
                OUT.mkdir(exist_ok=True)
                trace_out = OUT / f"spans-{workload}-seed{seed}.jsonl"
            rep = run_child(workload, seed, deadline, trace_out)
            rep["traced"] = traced
            reps.append(rep)
        longest = max(longest, time.monotonic() - t0)
    return reps, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ascount" / "cli.py").is_file():
        print(f"run.py: no src/ascount/cli.py under {ROOT}; run it from the "
              "root of an ascount checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            layers = measure_imports(deadline)
        else:
            setup_sample(deadline)  # unmeasured: fills __pycache__
        reps, setups = repetitions(args.workload, args.seed, args.seconds,
                                   deadline, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    ops = workloads.operations(args.workload, args.seed)
    attempted = len(ops) * len(reps)
    statuses = [op["status"] for rep in reps for op in rep["ops"]]
    failed = sum(s in ("wrong", "error") for s in statuses)
    ok = sum(s == "ok" for s in statuses)
    problems = []
    for rep in reps:
        if rep["inputs_sha256"] != workloads.inputs_digest(ops):
            problems.append("a repetition ran different inputs")
        for op in rep["ops"]:
            if op["status"] in ("wrong", "error"):
                problems.append(f"{op['status']}: {op['id']}: {op['detail']}")

    plain = [r for r in reps if not r["traced"]]
    median = {k: statistics.median(r[k] for r in plain)
              for k in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s",
                        "raw_cpu_s", "speed", "cpu_speed")}
    print(f"workload {args.workload}  seed {args.seed}  inputs "
          f"{workloads.inputs_digest(ops)[:16]}  repetitions {len(reps)}")
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        for u, t in zip(plain, traced):
            if u["digests"] != t["digests"]:
                bad = [ops[i]["id"] for i, (a, b)
                       in enumerate(zip(u["digests"], t["digests"])) if a != b]
                problems.append(f"traced outputs differ from untraced: {bad}")
        missing = set(EXPECTED_SPANS[args.workload]) - set(traced[0]["fired"])
        if missing:
            problems.append(f"spans that never fired: {sorted(missing)}")
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - median["wall_s"])
        metrics = {}
        print(f"{'layer':<15}{'metric':<36}{'value':>14}  unit   should move")
        for name, unit, _better, layer, moves in LAYER_METRICS:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"{layer:<15}{name:<36}{layers[name]:>14.6g}  {unit:<6} {moves}")
        print(f"spans written to {OUT}")
    else:
        setup_s, raw_setup_s = (statistics.median(v) for v in zip(*setups))
        values = dict(median, setup_s=setup_s, ok_frac=ok / attempted)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        for k in UNITS:
            print(f"{k:<12}{values[k]:>12.6g} {UNITS[k]}")
        print(f"{'failed_frac':<12}{1 - ok / attempted:>12.6g} ratio "
              f"({attempted - ok} of {attempted} operations)")
        print(f"raw (not rescaled) medians: setup {raw_setup_s:.6g} s, wall "
              f"{median['raw_wall_s']:.6g} s at {median['speed']:.4g} x "
              f"reference speed, cpu {median['raw_cpu_s']:.6g} s at "
              f"{median['cpu_speed']:.4g} x")
        for op in plain[0]["ops"]:
            if op["status"] == "known_failure":
                print(f"known failure: {op['id']}: {op['detail']}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
