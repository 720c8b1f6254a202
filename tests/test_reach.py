"""Reach audit: every function of src/ascount runs under a fixed list of CLI
commands, or an allowlist says why it does not.

The commands run in a fresh interpreter under sys.setprofile, since the
lru_caches that earlier tests fill would hide calls.  A call is matched to
a def of the source by its code object (file, qualified name, first line),
so a decorator such as lru_cache hides nothing, and nested defs count.  A
function added without a caller that a user can run fails this test until
it gets one or an allowlist entry.
"""

import json
import subprocess
import sys

COMMANDS = (
    "count local --p 2 --r 2 --exp 12",
    "count global --p 2 --r 2 --degree 10",
    "count global --p 2 --r 2 --divisor t^4,inf^8",
    # a degree-2 place over F_4: the F_q tables and the modulus of F_4
    "count global --p 2 --n 2 --r 1 --divisor t2+t+[0,1]^2,inf^2",
    "count global --p 2 --r 1 --divisor 1",
    "series local --p 3 --r 2 --max 30",
    "series local --p 2 --r 2 --max 30 --format json",
    "series local --p 2 --r 1 --max 10 --format tsv",
    # a common factor of positive degree divided out of the local form
    "series local --p 2 --n 2 --r 2 --max 10",
    "series global --p 2 --r 2 --max 30",
    "series global --p 2 --r 1 --max 30 --format json",
    "series global --p 3 --r 1 --max 20 --format tsv",
    "verify --suite all",
    "asymptotics --p 2 --r 3 --local",
    "asymptotics --p 2 --r 1",
    "asymptotics --p 2 --r 2 --fit-max 96",
    "asymptotics --p 3 --r 1 --fit-max 60",
    # t^2 + [0,1] is a square over F_4: refused, naming the polynomial
    "count global --p 2 --n 2 --r 1 --divisor t2+[0,1]",
)

_AUDIT = """if True:
    import contextlib, inspect, io, json, pathlib, sys
    import ascount
    from ascount import cli

    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_qualname,
                         code.co_firstlineno))

    codes = []
    sys.setprofile(hook)
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv.split()))
    sys.setprofile(None)

    def defs(code):
        for const in code.co_consts:
            if inspect.iscode(const):
                # a def, not a class body, lambda or comprehension
                if const.co_flags & inspect.CO_OPTIMIZED \\
                        and not const.co_name.startswith("<"):
                    yield const
                yield from defs(const)

    unreached = []
    for path in sorted(pathlib.Path(ascount.__file__).parent.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unreached += [f"{path.stem}.{code.co_qualname}"
                      for code in defs(module)
                      if (code.co_filename, code.co_qualname,
                          code.co_firstlineno) not in reached]
    print(json.dumps({"codes": codes, "unreached": unreached}))
"""

_REDUCTION = ("the reduction of rational functions: its tests, "
              "demos/reduction_walkthrough.py and a CI step call it")
_REDUCTION_HELPER = "called only by the reduction (reduce_global, " \
                    "rep_to_rational)"
_ITEM_4 = "planned caller: criterion 9b at a real horizon (ROADMAP item 4)"
_REPR = "a repr, for debugging and test failure messages"

ALLOWED = {
    "artin_schreier.reduce_global": _REDUCTION,
    "artin_schreier.rep_to_rational": _REDUCTION,
    "artin_schreier._base_digits": _REDUCTION_HELPER,
    "artin_schreier._cancel_p_indices": _REDUCTION_HELPER,
    "artin_schreier._add_into": _REDUCTION_HELPER,
    "fields.ppow": _REDUCTION_HELPER,
    "fields.factor_monic": _REDUCTION_HELPER,
    "fields.ResidueField._pad": _REDUCTION_HELPER,
    "fields.ResidueField.from_poly": _REDUCTION_HELPER,
    "fields.ResidueField.neg": _REDUCTION_HELPER,
    "fields.ResidueField.pth_root": _REDUCTION_HELPER,
    "fields.ResidueField.add": "rep_add at two lines sharing an index at "
                               "a place, which no command's grid reaches; "
                               "and the reduction",
    "asymptotics.psi_lower_bound": "acceptance criterion 6 and tests",
    "asymptotics.value_bounds_at_real_root": "psi_lower_bound's certificate",
    "asymptotics._interval_eval": "psi_lower_bound's certificate",
    "asymptotics.klein_constant_check": "acceptance criterion 12; the CLI "
                                        "calls _klein_constant",
    "asymptotics.holomorphy_radius_check": _ITEM_4,
    "dirichlet.lambda_inverse": _ITEM_4,
    "dirichlet.RationalSeries.coefficient": "holomorphy_radius_check and "
                                            "the benchmark's checks",
    "dirichlet.local_direct_series": "the Euler-product leg of the local "
                                     "three-way check: tests, the benchmark "
                                     "references and a demo",
    "dirichlet.TruncatedSeries.__eq__": "tests compare series with ==",
    "fields.Place.__str__": "the divisor grammar: invariant messages and "
                            "Divisor.__str__",
    "fields.Divisor.__str__": "the divisor grammar that parse_divisor "
                              "reads: the tests' round trips",
    "cli.entry_point": "the console script; the commands call cli.main",
    "dirichlet.TruncatedSeries.__repr__": _REPR,
    "dirichlet.RationalSeries.__repr__": _REPR,
    "fields.Divisor.__repr__": _REPR,
}


def test_every_function_is_reached_or_allowed():
    result = subprocess.run(
        [sys.executable, "-c", _AUDIT, json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["codes"] == [0] * (len(COMMANDS) - 1) + [2]
    assert sorted(report["unreached"]) == sorted(ALLOWED)
