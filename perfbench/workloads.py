"""Operation lists of the three benchmark workloads, generated from a seed.

An operation is a dict with an "id", a "kind" and its inputs:

  kind "cli"   argv for ascount.cli.main, stdout captured
  kind "call"  a public library function "module.name" applied to
               make_context(*ctx) (left out when ctx is None), "args" and
               "kwargs"
  kind "sweep" the same function once per entry of "args", as a list
  kind "psi"   psi_polynomial and psi_closed_form at one (f, norm)

Optional keys: "ref" (the stdout must hash to a recorded reference) and
"known_failure" (the input fails at the seed commit; a failure of it is
counted in ok_frac, not reported as incorrect).

The seed chooses the `count global --divisor` queries and moves each
truncation within a window of WINDOW values: series truncations down by
0..3, --fit-max up by 0..3 (below 96 the degree-3 fits run out of
points), local oracle exponents up by 0..1 (which keeps the enumerated
space the same size).  Nothing else depends on it.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("global-series", "oracle", "local-analytic")

WINDOW = 4

# (p, n, r, nominal M) of `series global ... --format json`
GLOBAL_SERIES = ((2, 1, 2, 200), (2, 1, 1, 200), (3, 1, 2, 120),
                 (2, 1, 3, 160), (2, 2, 2, 96))
FIT_MAX = 96  # asymptotics --p 2 --r 2 --fit-max

# (p, n, r, max degree, check) of enumerate_global
GLOBAL_ORACLE = ((2, 1, 2, 6, True), (2, 2, 1, 6, False), (2, 1, 1, 10, False))
# local discriminant exponents <= 10 with a nonzero local count, used as
# multiplicities of the divisor queries so that most counts are nonzero
LOCAL_EXPONENTS = {(2, 1, 2): (4, 8, 10), (2, 2, 1): (2, 4, 6, 8, 10),
                   (2, 1, 1): (2, 4, 6, 8, 10)}
# (p, n, r, nominal max exponent) of enumerate_local
LOCAL_ORACLE = ((2, 2, 2, 16), (2, 1, 2, 24), (3, 2, 1, 12))
DIVISOR_QUERIES = 12

LOCAL_SERIES = ((2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3))
LOCAL_MAX = 600
PSI_GRID = ((2, 4), (3, 3), (5, 2))  # (p, largest r), norms p, p^2, p^3
LOCAL_ASYMPTOTICS = ((2, 3, None), (3, 2, None),
                     (3, 3, "exits 1: class 4 relative error 0.0122 at "
                            "m = 394 exceeds 0.01"))

# Places of F_2(t) and F_4(t) of small degree as coefficient codes, lowest
# degree first (None is the place at infinity).  Over F_4 the code of a
# coefficient is its base-2 coordinate vector read as an integer.
PLACES = {
    (2, 1): (None, (0, 1), (1, 1), (1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1)),
    (2, 2): (None, (0, 1), (1, 1), (2, 1), (3, 1), (1, 2, 1), (1, 3, 1),
             (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 3, 1)),
}


def render_place(poly, p: int, n: int) -> str:
    """A place in the README divisor grammar: `inf`, or a polynomial such
    as t2+t+1, with bracketed base-p coordinates (constant digit first)
    for each coefficient when n > 1."""
    if poly is None:
        return "inf"
    terms = []
    for k in range(len(poly) - 1, -1, -1):
        c = poly[k]
        if c == 0:
            continue
        if n == 1:
            coef = str(c)
        else:
            coef = "[" + ",".join(str(c // p ** i % p) for i in range(n)) + "]"
        if k == 0:
            terms.append(coef)
        else:
            power = "t" if k == 1 else f"t{k}"
            terms.append(power if c == 1 else coef + power)
    return "+".join(terms)


def render_divisor(pairs, p: int, n: int) -> str:
    """pairs: (place poly or None, multiplicity) in any order."""
    terms = sorted((len(poly) - 1 if poly else 1, render_place(poly, p, n), e)
                   for poly, e in pairs)
    return ",".join(s if e == 1 else f"{s}^{e}" for _, s, e in terms)


def _divisor_queries(rng: random.Random) -> list:
    ops = []
    for _ in range(DIVISOR_QUERIES):
        p, n, r, max_degree, _check = rng.choice(GLOBAL_ORACLE)
        table = PLACES[(p, n)]
        chosen, budget = [], max_degree
        for poly in rng.sample(table, rng.randint(1, 3)):
            degree = len(poly) - 1 if poly else 1
            options = [e for e in LOCAL_EXPONENTS[(p, n, r)] if e * degree <= budget]
            if options:
                e = rng.choice(options)
                chosen.append((poly, e))
                budget -= e * degree
        if not chosen:
            chosen = [(None, 2)]
        spec = render_divisor(chosen, p, n)
        ops.append({"id": f"count global ({p},{n},{r}) {spec}", "kind": "cli",
                    "argv": ["count", "global", "--p", str(p), "--n", str(n),
                             "--r", str(r), "--divisor", spec],
                    "expect_tally": [p, n, r, max_degree, spec]})
    return ops


def _ctx_flags(p, n, r):
    return ["--p", str(p), "--n", str(n), "--r", str(r)]


def _global_series_op(p, n, r, m):
    return {"id": f"series global ({p},{n},{r}) M={m}", "kind": "cli",
            "argv": ["series", "global", *_ctx_flags(p, n, r), "--max", str(m),
                     "--format", "json"],
            "ref": True}


def _fit_op(fit):
    return {"id": f"asymptotics (2,1,2) fit-max={fit}", "kind": "cli",
            "argv": ["asymptotics", "--p", "2", "--r", "2",
                     "--fit-max", str(fit)],
            "ref": True}


def _local_series_op(p, n, r, m):
    return {"id": f"series local ({p},{n},{r}) M={m}", "kind": "cli",
            "argv": ["series", "local", *_ctx_flags(p, n, r), "--max", str(m)],
            "ref": True}


def _local_asymptotics_op(p, r, failure):
    op = {"id": f"asymptotics --local ({p},1,{r})", "kind": "cli",
          "argv": ["asymptotics", "--p", str(p), "--r", str(r), "--local"]}
    if failure:
        op["known_failure"] = failure
    else:
        op["ref"] = True
    return op


def reference_ops() -> list:
    """Every operation with a recorded reference output, for every value
    the seed can give its truncation."""
    ops = []
    for k in range(WINDOW):
        ops.extend(_global_series_op(p, n, r, m - k)
                   for p, n, r, m in GLOBAL_SERIES)
        ops.append(_fit_op(FIT_MAX + k))
        ops.extend(_local_series_op(p, n, r, LOCAL_MAX - k)
                   for p, n, r in LOCAL_SERIES)
    ops.extend(_local_asymptotics_op(*spec) for spec in LOCAL_ASYMPTOTICS)
    return [op for op in ops if op.get("ref")]


def operations(workload: str, seed: int) -> list:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "global-series":
        for p, n, r, m in GLOBAL_SERIES:
            ops.append(_global_series_op(p, n, r, m - rng.randrange(WINDOW)))
        ops.append(_fit_op(FIT_MAX + rng.randrange(WINDOW)))
    elif workload == "oracle":
        for p, n, r, d, check in GLOBAL_ORACLE:
            ctx = [p, n, r]
            ops.append({"id": f"enumerate_global ({p},{n},{r}) deg<={d}",
                        "kind": "call", "fn": "counting.enumerate_global",
                        "ctx": ctx, "args": [d], "kwargs": {"check": check}})
            ops.append({"id": f"global_count_by_degree ({p},{n},{r}) deg<={d}",
                        "kind": "sweep", "fn": "counting.global_count_by_degree",
                        "ctx": ctx, "args": list(range(d + 1))})
            ops.append({"id": f"global_dirichlet ({p},{n},{r}) M={d}",
                        "kind": "call", "fn": "dirichlet.global_dirichlet",
                        "ctx": ctx, "args": [d]})
        for p, n, r, e in LOCAL_ORACLE:
            ctx = [p, n, r]
            e += rng.randrange(2)
            ops.append({"id": f"enumerate_local ({p},{n},{r}) exp<={e}",
                        "kind": "call", "fn": "counting.enumerate_local",
                        "ctx": ctx, "args": [e]})
            ops.append({"id": f"local_count ({p},{n},{r}) exp<={e}",
                        "kind": "sweep", "fn": "counting.local_count",
                        "ctx": ctx, "args": list(range(e + 1))})
        ops.extend(_divisor_queries(rng))
        ops.append({"id": "count global (2,1,1) degree 13", "kind": "cli",
                    "argv": ["count", "global", "--p", "2", "--r", "1",
                             "--degree", "13"],
                    "known_failure": "RecursionError out of effective_divisors"})
    elif workload == "local-analytic":
        for p, n, r in LOCAL_SERIES:
            ops.append(_local_series_op(p, n, r, LOCAL_MAX - rng.randrange(WINDOW)))
        for p, r_max in PSI_GRID:
            for r in range(1, r_max + 1):
                for f in range(1, r + 1):
                    for norm in (p, p * p, p ** 3):
                        ops.append({"id": f"psi ({p},1,{r}) f={f} norm={norm}",
                                    "kind": "psi", "ctx": [p, 1, r],
                                    "args": [f, norm]})
        ops.extend(_local_asymptotics_op(*spec) for spec in LOCAL_ASYMPTOTICS)
        ops.append({"id": "verify_inequalities(7, 6)", "kind": "call",
                    "fn": "asymptotics.verify_inequalities", "ctx": None,
                    "args": [7, 6]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def inputs_digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
