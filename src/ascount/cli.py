"""Command-line surface for the counting library.

Subcommands:

  count        one exact count: a local discriminant exponent, a global
               discriminant degree, or one explicit divisor
  series       Dirichlet-series coefficients; for the local field also the
               exact rational form and its linear recurrence
  verify       budgeted invariant suites (oracle, psi, integrality,
               inequalities) with a human summary and a JSON report
  asymptotics  main-term parameters, pole catalogs, leading constants,
               and polynomial fits as JSON

Exit codes: 0 success, 1 failed invariant or internal inconsistency,
2 usage error.  Output is byte-deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from random import Random

from .asymptotics import report_json
from .counting import (counts_by_degree, enumerate_global, enumerate_local,
                       global_count, global_count_by_degree, local_count)
from .dirichlet import (global_dirichlet, local_reduced,
                        nested_geometric_check, psi_closed_form,
                        psi_polynomial, series_to_json)
from .errors import InvariantViolation
from .fields import make_context, parse_divisor

# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _exact_ints():
    """Let str() write exact integers of any length while output is
    formatted; the interpreter's digit limit (Python >= 3.11) stays on for
    parsing input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit(text: str, path) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if path in (None, "-"):
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data)


def _u_poly(coeffs) -> str:
    """Render a polynomial in u = q^(-s), low degree first on input."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        unit = "1" if k == 0 else ("u" if k == 1 else f"u^{k}")
        body = unit if (mag == 1 and k > 0) else \
            (str(mag) if k == 0 else f"{mag}*{unit}")
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
    return " ".join([head] + parts[1:])


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

# Largest count `count` prints, in bits, checked before str() writes it.
# Counting is cheap next to the decimal conversion, which is quadratic in
# the length: `count local --p 2 --n 300 --r 1 --exp 30000` (4,500,001
# bits) counted in 0.03 s and printed in 28.5 s, at --n 100 (1,500,001
# bits) 0.01 s and 3.1 s, and str() of 2^20 bits (315,653 digits) takes
# about 1.6 s, of 2^21 bits 6.3 s (Python 3.11, 2-core Xeon VM).  The
# largest count in the tests and CI, `count local --p 2 --r 1 --exp
# 30000`, has 15,001 bits.
_MAX_COUNT_BITS = 2 ** 20


def cmd_count(args, parser) -> int:
    ctx = make_context(args.p, args.n, args.r)
    if args.mode == "local":
        if args.exp is None:
            parser.error("count local needs --exp")
        if args.exp < 0:
            parser.error("--exp must be non-negative")
        value = local_count(ctx, args.exp)
    else:
        if args.exp is not None:
            parser.error("count global takes --degree or --divisor, not --exp")
        if args.degree is not None:
            if args.degree < 0:
                parser.error("--degree must be non-negative")
            # the series coefficient; global_count_by_degree sums over all
            # (q^(m+1)-1)/(q-1) divisors and stays the test-suite oracle
            value = global_dirichlet(ctx, args.degree).coefficient(args.degree)
        else:
            value = global_count(ctx, parse_divisor(ctx, args.divisor))
    if value.bit_length() > _MAX_COUNT_BITS:
        raise ValueError(f"count of {value.bit_length()} bits exceeds the "
                         f"{_MAX_COUNT_BITS}-bit print limit")
    with _exact_ints():
        text = str(value)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def cmd_series(args, parser) -> int:
    if args.max < 0:
        parser.error("--max must be non-negative")
    ctx = make_context(args.p, args.n, args.r)
    if args.mode == "global":
        series = global_dirichlet(ctx, args.max)
        rational = None
    else:
        rational = local_reduced(ctx)
        series = rational.series(args.max)
    coeffs = series.coefficients()

    with _exact_ints():
        if args.format == "tsv":
            text = "\n".join(f"{m}\t{c}" for m, c in enumerate(coeffs))
        elif args.format == "json":
            text = series_to_json(ctx, series, rational)
        else:
            lines = [",".join(map(str, coeffs))]
            if rational is not None:
                lines.append(f"numerator: {_u_poly(rational.num)}")
                lines.append(f"denominator: {_u_poly(rational.den)}")
                terms = [f"{w}*c[m-{k}]" for k, w
                         in enumerate(rational.recurrence(), start=1) if w]
                lines.append("recurrence: c[m] = "
                             + (" + ".join(terms) if terms else "0")
                             + f" for m > {len(rational.ints) - 1}")
            text = "\n".join(lines)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Each item: (suite, name, nominal cost in seconds, thunk).  Thunks return
# None or a _Passed note on success, or a minimal counterexample string.
# Nominal costs are calibrated desk-scale estimates; the selection must not
# depend on wall clocks or the report would stop being deterministic.

_LOCAL_ORACLE_GRID = ((2, 1, 1), (2, 2, 1), (3, 1, 1),
                      (2, 1, 2), (2, 2, 2), (3, 1, 2))
_GLOBAL_ORACLE_GRID = ((2, 1, 1, 8), (2, 1, 2, 6))
_PSI_GRID = ((2, 3), (3, 3), (5, 2), (7, 1))
_INTEGRALITY_GRID = ((2, 1, 1, 24), (2, 2, 1, 16), (3, 1, 1, 18),
                     (2, 1, 2, 48), (2, 2, 2, 24), (3, 1, 2, 24))


def _check_local_oracle(p: int, n: int, r: int, max_exp: int):
    ctx = make_context(p, n, r)
    brute = enumerate_local(ctx, max_exp)
    for e in range(max_exp + 1):
        closed = local_count(ctx, e)
        if closed != brute.get(e, 0):
            return (f"exponent {e}: closed form {closed}, "
                    f"enumeration {brute.get(e, 0)}")
    return None


def _check_global_oracle(p: int, n: int, r: int, max_deg: int):
    ctx = make_context(p, n, r)
    brute = counts_by_degree(enumerate_global(ctx, max_deg, check=True))
    coeffs = global_dirichlet(ctx, max_deg).coefficients()
    for d in range(max_deg + 1):
        closed = global_count_by_degree(ctx, d)
        got = brute.get(d, 0)
        if closed != got or coeffs[d] != got:
            return (f"degree {d}: closed form {closed}, series "
                    f"{coeffs[d]}, enumeration {got}")
    return None


def _check_psi_identity(p: int, r_max: int):
    for r in range(1, r_max + 1):
        ctx = make_context(p, 1, r)
        for f in range(1, r + 1):
            for norm in (p, p * p, p ** 3):
                if psi_polynomial(ctx, f, norm) != psi_closed_form(ctx, f, norm):
                    return f"p={p} r={r} f={f} norm={norm}"
    return None


def _check_nested_spots(seed: int):
    rng = Random(seed)
    for trial in range(8):
        depth = rng.randint(2, 4)
        alphas = tuple(-rng.randint(1, 4) for _ in range(depth))
        if not nested_geometric_check(alphas, 12):
            return f"trial {trial}: alphas={alphas}"
    return None


def _check_integrality(p: int, n: int, r: int, truncation: int):
    ctx = make_context(p, n, r)
    coeffs = global_dirichlet(ctx, truncation).coefficients()
    expected0 = 1 if r == 1 else 0
    if coeffs[0] != expected0:
        return f"c_0 = {coeffs[0]}, expected {expected0}"
    return None


class _Passed(str):
    """What a check that passed has to report, as opposed to a
    counterexample."""


def _check_inequalities():
    from .asymptotics import verify_inequalities
    report = verify_inequalities(7, 6)
    if not report["ok"]:
        for family, block in report.items():
            if family != "ok" and block["violations"]:
                return f"{family}: {block['violations'][0]}"
    equalities = report["zeta_abscissa_chain"]["equalities"]
    labels = sorted({eq[0] for eq in equalities})
    if labels != ["collapse j=p=2", "left equality"]:
        return f"unexpected equality cases {labels}"
    cases = {}
    for label, p, r, j in equalities:
        cases.setdefault(f"{label} (j={j})", []).append(f"r={r}")
    listed = "; ".join(f"{k}: {', '.join(v)}" for k, v in sorted(cases.items()))
    single = len(report["single_block_bound"]["equalities"])
    return _Passed(
        f"equalities: {listed}; single-block all-(p-1) tuples: {single}")


def _verify_items(seed: int) -> list:
    items = []
    for (p, n, r) in _LOCAL_ORACLE_GRID:
        items.append(("oracle", f"local ({p},{n},{r}) exponents <= 12", 1.0,
                      lambda p=p, n=n, r=r: _check_local_oracle(p, n, r, 12)))
    for (p, n, r, d) in _GLOBAL_ORACLE_GRID:
        items.append(("oracle", f"global ({p},{n},{r}) degrees <= {d}", 2.0,
                      lambda p=p, n=n, r=r, d=d: _check_global_oracle(p, n, r, d)))
    for (p, r_max) in _PSI_GRID:
        items.append(("psi", f"closed form p={p} r <= {r_max} norms up to p^3",
                      2.0 if p > 3 else 1.0,
                      lambda p=p, r_max=r_max: _check_psi_identity(p, r_max)))
    items.append(("psi", f"nested geometric spot checks (seed {seed})", 1.0,
                  lambda: _check_nested_spots(seed)))
    for (p, n, r, M) in _INTEGRALITY_GRID:
        items.append(("integrality", f"global series ({p},{n},{r}) M={M}", 1.0,
                      lambda p=p, n=n, r=r, M=M: _check_integrality(p, n, r, M)))
    items.append(("inequalities", "abscissa lemmas p <= 7, r <= 6", 1.0,
                  _check_inequalities))
    return items


def cmd_verify(args, parser) -> int:
    if not 0 < args.budget < float("inf"):  # nan and inf are not JSON
        parser.error("--budget must be positive and finite")
    items = [it for it in _verify_items(args.seed)
             if args.suite in ("all", it[0])]
    if not items:
        parser.error(f"no items in suite {args.suite!r}")

    # deterministic budget shrinking: drop the largest estimate first,
    # later-declared items first among ties, never below one item
    kept = set(range(len(items)))
    while len(kept) > 1 and sum(items[i][2] for i in kept) > args.budget:
        kept.remove(max(kept, key=lambda i: (items[i][2], i)))

    results = []
    failed = 0
    for i, (suite, name, cost, thunk) in enumerate(items):
        if i not in kept:
            results.append({"suite": suite, "item": name, "status": "skipped",
                            "detail": f"estimated {cost:.0f}s over budget"})
            continue
        try:
            outcome = thunk()
        except InvariantViolation as exc:  # that item fails, the run goes on
            outcome = f"invariant violation: {exc}"
        if outcome is None or isinstance(outcome, _Passed):
            results.append({"suite": suite, "item": name, "status": "ok",
                            "detail": str(outcome or "")})
        else:
            failed += 1
            results.append({"suite": suite, "item": name, "status": "fail",
                            "detail": outcome})
    for entry in results:
        line = f"[{entry['status']:>7}] {entry['suite']:<12} {entry['item']}"
        if entry["detail"]:
            line += f" :: {entry['detail']}"
        print(line)
    ran = sum(1 for e in results if e["status"] != "skipped")
    print(f"{ran} of {len(results)} items run, {failed} failed")

    report = json.dumps({"suite": args.suite, "budget": args.budget,
                         "seed": args.seed, "results": results,
                         "ok": failed == 0}, indent=2)
    _emit(report, args.out)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def cmd_asymptotics(args, parser) -> int:
    if args.local and args.fit_max is not None:
        parser.error("--fit-max fits the global series; drop --local")
    ctx = make_context(args.p, args.n, args.r)
    coeffs = None
    if args.fit_max is not None:
        if args.fit_max < 0:
            parser.error("--fit-max must be non-negative")
        coeffs = global_dirichlet(ctx, args.fit_max).coefficients()
    full = json.loads(report_json(ctx, coefficients=coeffs))
    if args.local:
        payload = {key: full[key] for key in ("p", "n", "r", "params")}
        payload["pole_catalog"] = {"local": full["pole_catalog"]["local"]}
        payload["constants"] = full["constants"]
        full = payload
    _emit(json.dumps(full, indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Takes -1e3, -inf and -nan for a flag's value, so they reach the
    range and type checks; argparse alone reads them as unknown flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)


def _add_context_flags(sub) -> None:
    sub.add_argument("--p", type=int, required=True,
                     help="residue characteristic (prime)")
    sub.add_argument("--n", type=int, default=1,
                     help="extension degree of the constant field (q = p^n)")
    sub.add_argument("--r", type=int, required=True,
                     help="rank of the elementary-abelian group C_p^r")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process; a parse keeps no state in
    it, so every main call shares it."""
    parser = _Parser(
        prog="ascount",
        description="Exact counts of wildly ramified C_p^r-extensions of "
                    "F_q((t)) and F_q(t) by discriminant.")
    commands = parser.add_subparsers(dest="command", required=True)

    c = commands.add_parser(
        "count", help="one exact count",
        description="Count extensions with a prescribed discriminant: a "
                    "local exponent, a global degree, or one divisor given "
                    "as term(,term)* with term = poly[^e] or inf[^e], "
                    "polynomials written like t2+t+1.")
    c.add_argument("mode", choices=("local", "global"))
    _add_context_flags(c)
    what = c.add_mutually_exclusive_group(required=True)
    what.add_argument("--exp", type=int, help="local discriminant exponent")
    what.add_argument("--degree", type=int, help="global discriminant degree")
    what.add_argument("--divisor", help="explicit discriminant divisor")
    c.add_argument("--out", help="output path (default stdout)")
    c.set_defaults(func=cmd_count, parser=c)

    s = commands.add_parser(
        "series", help="Dirichlet-series coefficients",
        description="Coefficients c_0..c_M of the counting series in "
                    "u = q^(-s); the local series also reports its exact "
                    "rational form and recurrence.")
    s.add_argument("mode", choices=("local", "global"))
    _add_context_flags(s)
    s.add_argument("--max", type=int, required=True,
                   help="largest exponent / degree M")
    s.add_argument("--format", choices=("plain", "json", "tsv"),
                   default="plain")
    s.add_argument("--out", help="output path (default stdout)")
    s.set_defaults(func=cmd_series, parser=s)

    v = commands.add_parser(
        "verify", help="run invariant suites",
        description="Run the oracle, psi, integrality and inequality "
                    "suites.  Nominal grids shrink deterministically "
                    "(largest estimates dropped first) to fit the budget.")
    v.add_argument("--suite",
                   choices=("oracle", "psi", "integrality", "inequalities",
                            "all"),
                   default="all")
    v.add_argument("--budget", type=float, default=60.0,
                   help="time budget in seconds (nominal estimates)")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled spot checks")
    v.add_argument("--out", help="write the JSON report here instead of "
                                 "stdout")
    v.set_defaults(func=cmd_verify, parser=v)

    a = commands.add_parser(
        "asymptotics", help="pole data, constants, and fits",
        description="Emit main-term parameters, pole catalogs, local "
                    "leading constants, and (with --fit-max) polynomial "
                    "fits of the exact coefficients, as JSON.")
    _add_context_flags(a)
    a.add_argument("--local", action="store_true",
                   help="only the local-field data")
    a.add_argument("--fit-max", type=int,
                   help="fit the global coefficients up to this degree")
    a.add_argument("--out", help="output path (default stdout)")
    a.set_defaults(func=cmd_asymptotics, parser=a)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # reported with the subcommand's usage, not the top one
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args, args.parser)  # errors name the subcommand
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # TruncationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an allocation past every size limit
        print("error: out of memory", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
