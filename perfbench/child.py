"""One repetition of a workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py --workload NAME --seed N
        [--trace-out PATH]

Imports ascount.cli (not timed), runs the workload's operation list and
times it with wall and CPU clocks, each rescaled to the reference machine
speed by the probe timed on the same clock (speed.py), reads the peak
resident memory, then checks every output outside the timed interval.
With --trace-out the public functions are wrapped first (see tracer.py)
and the spans are written to PATH.  Prints one JSON object on its last
stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe

REFERENCES = Path(__file__).with_name("references.json")
PROBE_PERIOD_S = 0.05
LOCAL_CONSTANT_TOLERANCE = 0.01  # the tolerance asymptotics applies


def _function(dotted: str):
    module, name = dotted.split(".")
    return getattr(sys.modules[f"ascount.{module}"], name)


def run_op(cli, make_context, op) -> dict:
    """Run one operation; exceptions are caught and recorded per operation."""
    kind = op["kind"]
    out, err = io.StringIO(), io.StringIO()
    try:
        if kind == "cli":
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        ctx = make_context(*op["ctx"]) if op["ctx"] else None
        head = (ctx,) if ctx is not None else ()
        if kind == "psi":
            value = (_function("dirichlet.psi_polynomial")(ctx, *op["args"]),
                     _function("dirichlet.psi_closed_form")(ctx, *op["args"]))
        elif kind == "sweep":
            fn = _function(op["fn"])
            value = [fn(ctx, a) for a in op["args"]]
        else:
            value = _function(op["fn"])(*head, *op["args"], **op.get("kwargs", {}))
        return {"value": value}
    except Exception as exc:  # recorded per operation; the run carries on
        return {"raised": type(exc).__name__, "message": str(exc)[:300],
                "stdout": out.getvalue(), "stderr": err.getvalue()}


def _canonical(value):
    """Every coefficient of a series and every place of a divisor, where
    their repr shows only the first few or is ambiguous over F_4."""
    from ascount.fields import Divisor
    if hasattr(value, "coefficients") and hasattr(value, "truncation"):
        return ("series", value.truncation, value.coefficients())
    if isinstance(value, Divisor):
        return ("divisor", tuple((place.poly, e) for place, e in value.items()))
    if isinstance(value, dict):
        return ("dict", [(_canonical(k), _canonical(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(outcome) -> str:
    """Hash of what an operation produced, for traced/untraced comparison."""
    if "raised" in outcome:
        # the type only: where a RecursionError strikes, and so its
        # message, can depend on when the speed probe interrupts
        text = f"raised {outcome['raised']}"
    elif "value" in outcome:
        text = repr(_canonical(outcome["value"]))
    else:
        text = f"rc={outcome['rc']}\n{outcome['stdout']}\n{outcome['stderr']}"
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks, run after the timed interval
# ---------------------------------------------------------------------------


def _failed(outcome) -> str | None:
    if "raised" in outcome:
        return f"raised {outcome['raised']}: {outcome['message']}"
    if outcome.get("rc", 0) != 0:
        return f"exit {outcome['rc']}: {outcome['stderr'].strip()[:300]}"
    return None


def _divisor_key(divisor, p, n) -> str:
    return workloads.render_divisor(
        [(place.poly, e) for place, e in divisor.items()], p, n)


def _check_known_failure(op, outcome) -> str | None:
    """A known-failure input that now succeeds must still be right."""
    argv = op["argv"]
    if argv[0] == "count":
        from ascount.dirichlet import global_dirichlet
        from ascount.fields import make_context
        degree = int(argv[argv.index("--degree") + 1])
        want = global_dirichlet(make_context(2, 1, 1), degree).coefficients()[degree]
        got = outcome["stdout"].strip()
        return None if got == str(want) else f"count {got}, series {want}"
    payload = json.loads(outcome["stdout"])
    p, r = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--r") + 1])
    if (payload.get("p"), payload.get("r")) != (p, r) or "constants" not in payload:
        return "asymptotics --local report lacks its context or constants"
    return _check_local_constants(p, r, payload["constants"])


def _check_local_constants(p, r, constants) -> str | None:
    """The leading constant of each class must match the exact coefficients
    of local_rational at the largest m of the class up to the report's m_max:
    relative error below LOCAL_CONSTANT_TOLERANCE, or both zero."""
    from ascount.dirichlet import local_rational
    from ascount.fields import make_context
    ctx = make_context(p, 1, r)
    modulus = p * (p ** r - 1)
    m_max = constants["m_max"]
    if constants["modulus"] != modulus or m_max < 2 * modulus:
        return f"constants modulus {constants['modulus']}, m_max {m_max}"
    rational = local_rational(ctx)
    for cls in range(modulus):
        value = constants["values"].get(str(cls))
        if value is None:
            return f"no constant for class {cls}"
        m = m_max - (m_max - cls) % modulus
        exact = rational.coefficient(m)
        main = value * float(ctx.q) ** (r * (p - 1) * m / modulus)
        if exact == 0 or value == 0:
            if exact != value:
                return f"class {cls}: constant {value}, coefficient {exact} at m = {m}"
        elif abs(float(exact) - main) / float(exact) > LOCAL_CONSTANT_TOLERANCE:
            return (f"class {cls}: relative error "
                    f"{abs(float(exact) - main) / float(exact):.3g} at m = {m}")
    return None


def check(ops, outcomes, references) -> list:
    """One verdict per operation: ("ok" | "known_failure" | "wrong" |
    "error", detail)."""
    verdicts = [None] * len(ops)

    def mark(i, status, detail=""):
        if verdicts[i] is None or verdicts[i][0] == "ok":
            verdicts[i] = (status, detail)

    index = {op["id"]: i for i, op in enumerate(ops)}
    tallies = {}
    for i, (op, outcome) in enumerate(zip(ops, outcomes)):
        failure = _failed(outcome)
        if op.get("known_failure"):
            if failure:
                mark(i, "known_failure", failure)
            else:
                problem = _check_known_failure(op, outcome)
                mark(i, "wrong" if problem else "ok", problem or "")
            continue
        if failure:
            mark(i, "error", failure)
            continue
        if op.get("ref"):
            key = " ".join(op["argv"])
            want = references.get(key)
            got = hashlib.sha256(outcome["stdout"].encode()).hexdigest()
            if want is None:
                mark(i, "wrong", f"no reference output for {key!r}")
            elif got != want:
                mark(i, "wrong", "stdout differs from the reference")
            else:
                mark(i, "ok")
        elif op["kind"] == "psi":
            a, b = outcome["value"]
            mark(i, "ok" if a == b else "wrong",
                 "" if a == b else "psi_polynomial != psi_closed_form")
        elif op.get("fn") == "asymptotics.verify_inequalities":
            ok = outcome["value"].get("ok") is True
            mark(i, "ok" if ok else "wrong", "" if ok else "violations reported")

    # enumeration against the closed forms, degree by degree
    for i, op in enumerate(ops):
        if op.get("fn") == "counting.enumerate_global":
            p, n, r = op["ctx"]
            (d_max,) = op["args"]
            group = [i, index[f"global_count_by_degree ({p},{n},{r}) deg<={d_max}"],
                     index[f"global_dirichlet ({p},{n},{r}) M={d_max}"]]
            if any(verdicts[j] is not None for j in group):
                continue
            tally = outcomes[i]["value"]
            brute = [0] * (d_max + 1)
            for divisor, count in tally.items():
                brute[divisor.degree()] += count
            closed = outcomes[group[1]]["value"]
            series = list(outcomes[group[2]]["value"].coefficients())
            bad = [d for d in range(d_max + 1)
                   if not brute[d] == closed[d] == series[d]]
            for j in group:
                mark(j, "wrong" if bad else "ok",
                     f"degrees {bad}: enumeration {brute}, closed form "
                     f"{closed}, series {series}" if bad else "")
            tallies[(p, n, r, d_max)] = {_divisor_key(dv, p, n): c
                                         for dv, c in tally.items()}
        elif op.get("fn") == "counting.enumerate_local":
            p, n, r = op["ctx"]
            (e_max,) = op["args"]
            j = index[f"local_count ({p},{n},{r}) exp<={e_max}"]
            if verdicts[i] is not None or verdicts[j] is not None:
                continue
            brute = outcomes[i]["value"]
            closed = outcomes[j]["value"]
            bad = [e for e in range(e_max + 1) if brute.get(e, 0) != closed[e]]
            for k in (i, j):
                mark(k, "wrong" if bad else "ok",
                     f"exponents {bad}" if bad else "")

    # divisor queries against the enumeration tally of the same context
    for i, op in enumerate(ops):
        if "expect_tally" not in op or verdicts[i] is not None:
            continue
        p, n, r, d_max, spec = op["expect_tally"]
        tally = tallies.get((p, n, r, d_max))
        if tally is None:
            mark(i, "wrong", "no verified enumeration tally to compare with")
            continue
        want = tally.get(spec, 0)
        got = outcomes[i]["stdout"].strip()
        mark(i, "ok" if got == str(want) else "wrong",
             "" if got == str(want) else f"count {got}, enumeration {want}")

    for i, verdict in enumerate(verdicts):
        if verdict is None:
            verdicts[i] = ("wrong", "not compared: a related operation failed")
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    import ascount.cli as cli
    cli.build_parser()
    from ascount import fields
    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    outcomes, op_s = [], []
    with SpeedProbe(PROBE_PERIOD_S) as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            t0 = time.perf_counter()
            outcomes.append(run_op(cli, fields.make_context, op))
            op_s.append(time.perf_counter() - t0)
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": probe.rescale(wall_s),
              "cpu_s": probe.rescale(cpu_s, cpu=True),
              "raw_wall_s": wall_s, "raw_cpu_s": cpu_s, "speed": probe.speed(),
              "cpu_speed": probe.speed(cpu=True),
              "peak_rss_mb": peak_rss_mb,
              "inputs_sha256": workloads.inputs_digest(ops),
              "digests": [digest(o) for o in outcomes]}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["fired"] = sorted(tracer.fired())
        tracer.write(args.trace_out)
    references = json.loads(REFERENCES.read_text())["outputs"]
    verdicts = check(ops, outcomes, references)
    result["ops"] = [{"id": op["id"], "seconds": s, "status": v[0],
                      "detail": v[1]}
                     for op, s, v in zip(ops, op_s, verdicts)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
