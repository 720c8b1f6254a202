"""CLI contract: grammar, formats, exit codes, determinism."""

import contextlib
import hashlib
import json
import signal
import subprocess
import sys
import time
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ascount import cli, fields
from ascount.dirichlet import local_reduced, series_to_json
from ascount.errors import InvariantViolation
from ascount.fields import Divisor, make_context, places


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _Hang(Exception):
    """Raised by _alarm; cli.main catches no such exception."""


@contextlib.contextmanager
def _alarm(seconds: int):
    """Raise _Hang in the running code after `seconds`: a time limit on an
    in-process call, with no thread and no subprocess."""
    def ring(signum, frame):
        raise _Hang(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_local(capsys):
    code, out, _ = run(capsys, "count", "local", "--p", "2", "--r", "1",
                       "--exp", "2")
    assert code == 0 and out == "2\n"


def test_count_global_degree(capsys):
    code, out, _ = run(capsys, "count", "global", "--p", "2", "--r", "1",
                       "--degree", "2")
    assert code == 0 and out == "6\n"


def test_count_global_degree_beyond_divisor_sweep(capsys):
    # degree 13 once recursed once per place through the divisor sweep and
    # died of RecursionError; it is served from the series coefficient now
    code, out, err = run(capsys, "count", "global", "--p", "2", "--r", "1",
                         "--degree", "13")
    assert (code, out, err) == (0, "0\n", "")
    code, out, _ = run(capsys, "count", "global", "--p", "2", "--r", "2",
                       "--degree", "8")
    assert code == 0 and out == "24\n"


def test_count_divisors(capsys):
    cases = (
        (("--p", "2", "--r", "1", "--divisor", "t^2"), "2"),
        (("--p", "2", "--r", "1", "--divisor", "inf^2"), "2"),
        (("--p", "2", "--r", "1", "--divisor", "t2+t+1^2"), "6"),
        # conductor 1 mod p is impossible, so this degree-2 divisor is empty
        (("--p", "3", "--r", "1", "--divisor", "t2+1^2"), "0"),
        # the empty divisor, written 1: only the trivial extension at r = 1
        (("--p", "2", "--r", "1", "--divisor", "1"), "1"),
        (("--p", "2", "--r", "2", "--divisor", "1"), "0"),
        # F_4 coefficients as bracketed base-2 vectors: t + x where x = [0,1]
        (("--p", "2", "--n", "2", "--r", "1",
          "--divisor", "t+[0,1]^2,inf^2"), "18"),
    )
    for flags, expected in cases:
        code, out, _ = run(capsys, "count", "global", *flags)
        assert code == 0 and out == expected + "\n", flags


def test_count_local_at_large_n():
    # local counts read only q, so no F_q arithmetic runs: at q = 2^30 the
    # classes of conductor 10 number 2 (q - 1) q^4 = 2^121 (2^30 - 1)
    result = subprocess.run(
        [sys.executable, "-m", "ascount.cli", "count", "local",
         "--p", "2", "--n", "30", "--r", "1", "--exp", "10"],
        capture_output=True, text=True, timeout=20)
    assert result.returncode == 0
    assert result.stdout == "2854495382753463770546740193091376152204804096\n"


def test_large_n_needs_no_field_tables():
    # one interpreter, under a timeout: a forced modulus search would hang
    script = """if True:
        import contextlib, io
        from ascount import cli
        for argv in (
                "count local --p 2 --n 1000 --r 2 --exp 40",
                "series global --p 2 --n 30 --r 1 --max 40 --format json",
                "count global --p 2 --n 30 --r 1 --degree 4",
                "count global --p 2 --n 30 --r 1 --divisor inf^2",
                "asymptotics --p 2 --n 30 --r 1"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv.split())
            print(code, bool(out.getvalue()))
    """
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=30)
    assert (result.stdout, result.stderr) == ("0 True\n" * 5, "")


def test_divisor_over_too_large_field_exits_2():
    # parsing t^2 needs F_q arithmetic, whose tables stop at q = 2^10
    result = subprocess.run(
        [sys.executable, "-m", "ascount.cli", "count", "global",
         "--p", "2", "--n", "30", "--r", "1", "--divisor", "t^2"],
        capture_output=True, text=True, timeout=20)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == \
        "error: F_q arithmetic needs q <= 1024, got q = 2^30 = 1073741824\n"


@pytest.mark.parametrize("argv, message", [
    ("count local --p 2305843009213693951 --r 1 --exp 10",
     "p = 2305843009213693951 is not below 2^31"),
    ("series local --p 2147483647 --r 1 --max 3",
     "local form: pole degree 4611686011984936962 exceeds 16384"),
    ("asymptotics --p 2147483647 --r 1 --local",
     "local form: pole degree 4611686011984936962 exceeds 16384"),
], ids=["prime-bound", "series-local", "asymptotics-local"])
def test_huge_p_exits_2_in_one_line(argv, message):
    # refused before trial division up to sqrt(p), or before a dense delta
    # of degree p(p-1) is filled
    result = subprocess.run([sys.executable, "-m", "ascount.cli", *argv.split()],
                            capture_output=True, text=True, timeout=20)
    assert (result.returncode, result.stdout, result.stderr) == \
        (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    "count local --p 2 --r 100000 --exp 2",
    "series global --p 2 --r 1024 --max 7",
    "asymptotics --p 2 --r 1000 --local",
    "count global --p 2 --r 100000 --divisor t^2",
])
def test_huge_rank_exits_2_in_one_line(capsys, argv):
    # the chain weights, the Delsarte weights and |GL_r(F_p)| took powers of
    # p in r before any refusal: each of these ran for over 20 s
    r = argv.split("--r ")[1].split()[0]
    with _alarm(5):
        result = run(capsys, *argv.split())
    assert result == (2, "", f"error: r = {r} exceeds 32\n")


_EXPONENT_CAP = "discriminant exponent 1000000000000 exceeds 32768"
_TRUNCATION_CAP = "series truncation 100000000 exceeds 32768"
_CHAIN_CAP = "discriminant exponent 16384: 36572952 conductor chains exceed 8388608"
_EXPANSION_CAP = "Euler factor to u^7172: 82104262 conductor chains exceed 8388608"


@pytest.mark.parametrize("argv, message", [
    ("count local --p 2 --r 1 --exp 1000000000000", _EXPONENT_CAP),
    ("count global --p 2 --r 1 --divisor inf^1000000000000", _EXPONENT_CAP),
    ("count global --p 2 --r 1 --degree 100000000", _TRUNCATION_CAP),
    ("series global --p 2 --r 1 --max 100000000", _TRUNCATION_CAP),
    ("series local --p 2 --r 1 --max 100000000", _TRUNCATION_CAP),
    ("asymptotics --p 2 --r 2 --fit-max 100000000", _TRUNCATION_CAP),
    ("count local --p 2 --r 4 --exp 16384", _CHAIN_CAP),
    ("count global --p 2 --r 4 --divisor t^16384", _CHAIN_CAP),
    ("series local --p 2 --r 8 --max 5", _EXPANSION_CAP),
    ("asymptotics --p 2 --r 8 --local", _EXPANSION_CAP),
], ids=["exp", "multiplicity", "degree", "series-global", "series-local",
        "fit-max", "chains", "chains-multiplicity", "chains-series-local",
        "chains-asymptotics-local"])
def test_size_caps_exit_2_in_one_line(argv, message):
    # refused before a count of about 10^12 bits, a list of 10^8
    # coefficients or one of 3.7 * 10^7 (or 8.2 * 10^7) chains is built
    result = subprocess.run([sys.executable, "-m", "ascount.cli", *argv.split()],
                            capture_output=True, text=True, timeout=20)
    assert (result.returncode, result.stdout, result.stderr) == \
        (2, "", f"error: {message}\n")


def test_count_past_the_print_limit_exits_2_in_one_line():
    # 2^2250000 counts in a few ms but takes about 30 s to write in decimal
    argv = "count local --p 2 --n 300 --r 1 --exp 30000".split()
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "ascount.cli", *argv],
                            capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 2
    assert (result.returncode, result.stdout, result.stderr) == \
        (2, "", "error: count of 4500001 bits exceeds the 1048576-bit "
                "print limit\n")


def test_global_series_under_the_chain_cap_at_r_8():
    # the local form at (2,1,8) is refused (82,104,262 chains out to
    # u^7172); the global series to t^200 lists only the chains up to 200,
    # and every extension has discriminant degree past 200
    argv = "series global --p 2 --r 8 --max 200".split()
    result = subprocess.run([sys.executable, "-m", "ascount.cli", *argv],
                            capture_output=True, text=True, timeout=20)
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, ",".join(["0"] * 201) + "\n", "")


@pytest.mark.parametrize("argv, out", [
    ("series global --p 2147483647 --r 2 --max 3", "0,0,0,0\n"),
    ("count global --p 2147483647 --r 1 --degree 3", "0\n"),
], ids=["series", "count"])
def test_global_series_at_huge_p(argv, out):
    # every ramified extension has discriminant degree at least p - 1 > 3,
    # and the zeta factors, of degree about p^2, lie past the truncation
    result = subprocess.run([sys.executable, "-m", "ascount.cli", *argv.split()],
                            capture_output=True, text=True, timeout=20)
    assert (result.returncode, result.stdout, result.stderr) == (0, out, "")


@pytest.mark.parametrize("degree", ["1000000", "9999999999"])
def test_divisor_degree_cap_exits_2(degree):
    # the degree is checked before a coefficient list of that length is
    # built or the irreducibility test powers x to q^degree
    result = subprocess.run(
        [sys.executable, "-m", "ascount.cli", "count", "global",
         "--p", "2", "--r", "1", "--divisor", "t" + degree],
        capture_output=True, text=True, timeout=20)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: degree {degree} in divisor exceeds 64\n"


@pytest.mark.parametrize("n, spec, message", [
    ("1", "t" + "9" * 5000, "degree 9999"),
    ("1", "inf^" + "9" * 5000, "bad multiplicity '9999"),
    ("1", "9" * 5000 + "t+1", "coefficient 9999"),
    ("2", "t+[1," + "9" * 5000 + "]", "coefficient [1,9999"),
], ids=["exponent", "multiplicity", "coefficient", "coordinate"])
def test_divisor_digit_strings_past_int_limit_exit_2(n, spec, message):
    # no digit string longer than its bound reaches int(), whose own error
    # would point at the interpreter's limit on digits
    result = subprocess.run(
        [sys.executable, "-m", "ascount.cli", "count", "global",
         "--p", "2", "--n", n, "--r", "1", "--divisor", spec],
        capture_output=True, text=True, timeout=20)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: " + message)
    assert result.stderr.count("\n") == 1
    assert "int_max_str_digits" not in result.stderr


@pytest.mark.parametrize("spec", ["t+[0,1", "t+,inf", "t^", "[]t",
                                  "t+[,1]", "", "t ^2", "t+ 1"])
def test_divisor_syntax_errors_share_one_message(capsys, spec):
    code, _, err = run(capsys, "count", "global", "--p", "2", "--n", "2",
                       "--r", "1", "--divisor", spec)
    assert (code, err) == (2, f"error: malformed divisor {spec!r}\n")


@pytest.mark.parametrize("pnr, spec, same_as", [
    ((2, 1, 1), "t0+t", "t+1"),                  # t0 is the constant 1
    ((2, 1, 1), "t+t+t2+t+1^2", "t2+t+1^2"),     # coefficients add
    ((3, 1, 1), "t2+t+t+2", "t2+2t+2"),
    ((2, 1, 1), " t^2 ,\tinf ", "t^2,inf"),      # whitespace around terms
    ((2, 1, 1), "01t+1^02", "t+1^2"),            # leading zeros, as int()
    ((2, 1, 1), "0t2+t", "t"),                   # a zero coefficient
    ((2, 2, 1), "t+[1]", "t+1"),                 # trailing zero coordinates
    ((2, 2, 1), "[1,0]t+[0,1]", "t+[0,1]"),      # [1,0] is the digit 1
    ((3, 2, 1), "t+[2,0]", "t+2"),
])
def test_divisor_quirks_keep_parsing(pnr, spec, same_as):
    ctx = make_context(*pnr)
    assert cli.parse_divisor(ctx, spec) == cli.parse_divisor(ctx, same_as)


@pytest.mark.parametrize("spec", ["1", " 1", "1 ", "\t1\n"])
def test_one_is_the_empty_divisor(spec):
    assert str(Divisor.one()) == "1"
    assert cli.parse_divisor(make_context(2, 1, 1), spec) == Divisor.one()


@pytest.mark.parametrize("spec, message", [
    ("1,t", "a finite place needs a monic polynomial of degree >= 1"),
    ("1^2", "a finite place needs a monic polynomial of degree >= 1"),
    (" 1,1", "a finite place needs a monic polynomial of degree >= 1"),
    ("t0", "a finite place needs a monic polynomial of degree >= 1"),
    ("2", "coefficient 2 is not reduced mod 2"),
])
def test_other_constant_divisors_exit_2(capsys, spec, message):
    code, out, err = run(capsys, "count", "global", "--p", "2", "--r", "1",
                         "--divisor", spec)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_divisor_coefficients_add_before_the_place_check():
    with pytest.raises(ValueError, match="^t2 is not irreducible$"):
        cli.parse_divisor(make_context(2, 1, 1), "t+t+t2")


def test_divisor_grammar_errors(capsys):
    bad = (
        "t^0",          # multiplicities start at 1
        "t,t",          # repeated place
        "t2+1^2",       # reducible over F_2: (t+1)^2
        "[0,1]t",       # bracketed vector needs n > 1
        "2t",           # coefficient not reduced mod 2
        "t+[0,1",       # unbalanced bracket
        "",             # empty divisor
        "t+,inf",       # empty monomial
        "t65+t+1",      # degree above the cap of 64
    )
    # over F_4: an empty coordinate must not shift the others
    bad_over_f4 = ("t+[,1]^2", "t+[0,1,]^2", "[1,,0]t+1^2")
    for n, spec in [("1", spec) for spec in bad] + \
            [("2", spec) for spec in bad_over_f4]:
        code, _, err = run(capsys, "count", "global", "--p", "2", "--n", n,
                           "--r", "1", "--divisor", spec)
        assert code == 2, spec
        assert "error" in err.lower(), spec


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((2, 1, 1), (2, 2, 1), (3, 2, 1))),
       st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10 ** 6),
                          st.integers(1, 5)), max_size=4))
@example((2, 2, 1), [(1, 3, 2)])    # t+[0,1]: printed as a code once
@example((3, 2, 1), [(2, 0, 1)])    # a quadratic place over F_9
def test_divisor_round_trip(pnr, picks):
    ctx = make_context(*pnr)
    chosen = {}
    for degree, index, e in picks:
        degree_places = places(ctx, degree)
        chosen[degree_places[index % len(degree_places)]] = e
    divisor = Divisor(chosen.items())
    assert cli.parse_divisor(ctx, str(divisor)) == divisor


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((2, 1, 1), (2, 2, 1), (3, 2, 1))),
       st.from_regex(fields._DIVISOR, fullmatch=True))
def test_grammar_strings_parse_or_fail_in_one_line(pnr, spec):
    ctx = make_context(*pnr)
    try:
        divisor = cli.parse_divisor(ctx, spec)
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc)
    else:
        assert cli.parse_divisor(ctx, str(divisor)) == divisor


def test_count_mode_flag_mismatch(capsys):
    code, _, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                       "--degree", "2")
    assert code == 2 and err.startswith("usage: ascount count")
    code, _, err = run(capsys, "count", "global", "--p", "2", "--r", "1",
                       "--exp", "2")
    assert code == 2 and err.startswith("usage: ascount count")
    code, _, err = run(capsys, "count", "local", "--p", "2", "--r", "1")
    assert code == 2 and err.startswith("usage: ascount count")


def test_count_negative_exponent(capsys):
    code, _, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                       "--exp", "-1")
    assert code == 2 and "--exp must be non-negative" in err
    code, _, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                       "--exp", "-1e3")
    assert code == 2 and "argument --exp: invalid int value: '-1e3'" in err


def test_count_prints_integers_of_any_length(capsys):
    # 2^15000 has 4516 digits, past the interpreter's default limit of
    # 4300 for int <-> str; the limit must still hold for input
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                         "--exp", "30000")
    assert (code, err) == (0, "") and len(out) == 4517
    with cli._exact_ints():
        assert int(out) == 2 ** 15000
    assert sys.get_int_max_str_digits() == limit
    code, _, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                       "--exp", "1" * 5000)
    assert code == 2 and "argument --exp: invalid int value" in err


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_plain_global(capsys):
    code, out, _ = run(capsys, "series", "global", "--p", "2", "--r", "1",
                       "--max", "6")
    assert code == 0 and out == "1,0,6,0,24,0,96\n"


def test_series_plain_local(capsys):
    code, out, _ = run(capsys, "series", "local", "--p", "2", "--r", "1",
                       "--max", "6")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "1,0,2,0,4,0,8"
    assert lines[1] == "numerator: 1"
    assert lines[2] == "denominator: 1 - 2*u^2"
    assert lines[3] == "recurrence: c[m] = 2*c[m-2] for m > 0"


def test_series_json_local(capsys):
    code, out, _ = run(capsys, "series", "local", "--p", "2", "--r", "1",
                       "--max", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "0", "2", "0", "4"]
    assert payload["numerator"] == ["1"]
    assert payload["denominator"] == ["1", "0", "-2"]
    assert payload["recurrence"] == ["0", "2"]
    assert payload["variable"] == "q^-s"


# SHA-256 of `series local --format json` stdout, recorded when the CLI
# still appended the rational form to the document itself
LOCAL_JSON_SHA256 = {
    (2, 1, 2, 40): "0144e70c5521ef9f8098aada8e8b745300224e610479a4d3f9239cc3f9ff81ec",
    (3, 1, 2, 60): "eedf0b02481d0030ab73096007d19db3dc3c8bfc62951eeffefaae7127e6a582",
    (2, 2, 2, 30): "0944bf1462633d59981858363a65d43fb01794d611b70389648c5f561d250436",
}


@pytest.mark.parametrize("spec", sorted(LOCAL_JSON_SHA256),
                         ids=lambda spec: "".join(map(str, spec[:3])))
def test_series_json_local_bytes_frozen(capsys, spec):
    p, n, r, m = spec
    code, out, _ = run(capsys, "series", "local", "--p", str(p), "--n", str(n),
                       "--r", str(r), "--max", str(m), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LOCAL_JSON_SHA256[spec]
    # the library writes the whole document, the rational form included
    ctx = make_context(p, n, r)
    red = local_reduced(ctx)
    assert series_to_json(ctx, red.series(m), red) + "\n" == out


def test_series_tsv(capsys):
    code, out, _ = run(capsys, "series", "global", "--p", "2", "--r", "1",
                       "--max", "3", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t0", "2\t6", "3\t0"]


def test_series_out_file(tmp_path, capsys):
    target = tmp_path / "series.txt"
    code, out, _ = run(capsys, "series", "global", "--p", "2", "--r", "1",
                       "--max", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "1,0,6,0,24\n"


def test_series_negative_max(capsys):
    code, _, err = run(capsys, "series", "global", "--p", "2", "--r", "1",
                       "--max", "-1")
    assert code == 2 and err.startswith("usage: ascount series")
    assert "--max must be non-negative" in err
    # -1e3 is a value, not an unknown flag: it reaches the int check
    code, _, err = run(capsys, "series", "global", "--p", "2", "--r", "1",
                       "--max", "-1e3")
    assert code == 2 and "argument --max: invalid int value: '-1e3'" in err


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_series_prints_integers_of_any_length(capsys, fmt):
    code, out, err = run(capsys, "series", "local", "--p", "2", "--r", "1",
                         "--max", "30000", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "tsv":
        degree, last = out.splitlines()[-1].split("\t")
    else:
        coefficients = json.loads(out)["coefficients"]
        degree, last = str(len(coefficients) - 1), coefficients[-1]
    with cli._exact_ints():
        assert (degree, int(last)) == ("30000", 2 ** 15000)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_full_run(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--budget", "100",
                       "--out", str(target))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "20 of 20 items run, 0 failed"
    assert all("[     ok]" in line for line in lines[:-1])
    report = json.loads(target.read_text())
    assert report["ok"] is True
    assert len(report["results"]) == 20
    assert {r["suite"] for r in report["results"]} == \
        {"oracle", "psi", "integrality", "inequalities"}
    ineq = [r for r in report["results"] if r["suite"] == "inequalities"]
    assert "collapse j=p=2" in ineq[0]["detail"]


def test_verify_budget_shrinks_deterministically(capsys):
    # oracle suite: six local items (cost 1) then two global (cost 2);
    # shrinking drops the largest estimates first, later declarations
    # first among ties, so budget 3 keeps exactly the first three
    code, out, _ = run(capsys, "verify", "--suite", "oracle",
                       "--budget", "3", "--out", "-")
    assert code == 0
    lines = out.splitlines()
    assert sum("[     ok]" in l for l in lines) == 3
    assert sum("[skipped]" in l for l in lines) == 5
    assert "3 of 8 items run, 0 failed" in out
    again = run(capsys, "verify", "--suite", "oracle", "--budget", "3",
                "--out", "-")
    assert again[1] == out


def test_verify_runs_inequality_sweep_once(capsys, monkeypatch):
    from ascount import asymptotics
    calls = []
    sweep = asymptotics.verify_inequalities

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(asymptotics, "verify_inequalities", counted)
    code, out, _ = run(capsys, "verify", "--suite", "inequalities")
    assert code == 0 and calls == [(7, 6)]
    assert "single-block all-(p-1) tuples" in out


def test_verify_reports_an_item_that_raises(capsys, monkeypatch):
    def boom(ctx, truncation):
        if ctx.r == 2:
            raise InvariantViolation("synthetic failure")
        return series(ctx, truncation)

    series = cli.global_dirichlet
    monkeypatch.setattr(cli, "global_dirichlet", boom)
    code, out, err = run(capsys, "verify", "--suite", "integrality")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[6] == "6 of 6 items run, 3 failed"
    failed = [line for line in lines[:6] if line.startswith("[   fail]")]
    assert len(failed) == 3
    assert all(line.endswith(":: invariant violation: synthetic failure")
               for line in failed)
    report = json.loads(out[out.index("{"):])
    assert report["ok"] is False
    assert [r["status"] for r in report["results"]] == \
        ["ok", "ok", "ok", "fail", "fail", "fail"]


def test_verify_never_drops_below_one_item(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "inequalities",
                       "--budget", "0.01")
    assert code == 0
    assert "1 of 1 items run, 0 failed" in out


def test_verify_seed_is_recorded(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "psi", "--budget", "2",
                       "--seed", "7")
    assert code == 0
    assert "seed 7" in out
    report = json.loads(out[out.index("{"):])
    assert report["seed"] == 7


def test_verify_bad_flags(capsys):
    for budget in ("0", "nan", "inf", "-1", "-1e3", "-inf", "-nan", "-.5"):
        code, _, err = run(capsys, "verify", "--budget", budget)
        assert code == 2, budget
        assert "--budget must be positive and finite" in err, budget
    code, _, _ = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotics_local_payload(capsys):
    code, out, _ = run(capsys, "asymptotics", "--p", "2", "--r", "1",
                       "--local")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"p", "n", "r", "params", "pole_catalog",
                            "constants"}
    assert set(payload["pole_catalog"]) == {"local"}
    assert payload["params"]["abscissa"] == "1"
    assert payload["constants"]["values"]["0"] == 1.0


# SHA-256 of `asymptotics --local` stdout, recorded when the constants were
# complex residue sums; the exact partial-fraction split reproduces them
LOCAL_REPORT_SHA256 = {
    (2, 1, 3): "6cf0b575e4559cd7c8cbcc390c7664d5eaab29695971f3adb945a09bad633979",
    (3, 1, 2): "a28b05eb3dd624c08b216530914651e2f228f337c2cdf1585a97482dcbe18a16",
    (2, 2, 2): "9e1a18fc3b726ba050dd98c1670bd8f7a4da931149de8af625b7893846d5474c",
    (2, 1, 4): "063abc533f7b001beaf04ccce85db50553f5b13b249c4db94cdc5629247b8bac",
}


@pytest.mark.parametrize("spec", sorted(LOCAL_REPORT_SHA256))
def test_asymptotics_local_bytes_frozen(capsys, spec):
    p, n, r = map(str, spec)
    code, out, _ = run(capsys, "asymptotics", "--p", p, "--n", n, "--r", r,
                       "--local")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        LOCAL_REPORT_SHA256[spec]


def test_asymptotics_fit(capsys):
    code, out, _ = run(capsys, "asymptotics", "--p", "2", "--r", "1",
                       "--fit-max", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["fits"]["classes"]["0"]["leading"] == pytest.approx(1.5)
    assert "klein_constant" not in payload
    assert "inequality_report" not in payload


def test_asymptotics_flag_conflicts(capsys):
    code, _, err = run(capsys, "asymptotics", "--p", "2", "--r", "1",
                       "--local", "--fit-max", "10")
    assert code == 2 and err.startswith("usage: ascount asymptotics")


# SHA-256 of `asymptotics --p 2 --r 2 --fit-max 96` stdout, recorded when
# the Klein constant check took a second fit of its own
FIT_REPORT_SHA256 = \
    "5a251e671eae03def68bee31347a52f788cfa04221c6705d862989f9a03afd1a"


def test_asymptotics_klein_report_fits_once(capsys, monkeypatch):
    from ascount import asymptotics
    calls = []
    fit = asymptotics.main_term_fit

    def counted(*args):
        calls.append(args[0])
        return fit(*args)

    monkeypatch.setattr(asymptotics, "main_term_fit", counted)
    code, out, _ = run(capsys, "asymptotics", "--p", "2", "--r", "2",
                       "--fit-max", "96")
    assert code == 0 and len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == FIT_REPORT_SHA256


# ---------------------------------------------------------------------------
# exit codes and the console script
# ---------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "count", "local", "--p", "4", "--r", "1",
               "--exp", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert cli.main([]) == 2
    capsys.readouterr()


def test_unknown_flag_prints_subcommand_usage(capsys):
    code, out, err = run(capsys, "asymptotics", "--p", "2", "--r", "1",
                         "--precision", "80")
    assert code == 2 and out == ""
    assert err.startswith("usage: ascount asymptotics")
    assert err.rstrip().endswith(
        "ascount asymptotics: error: unrecognized arguments: --precision 80")


def test_shared_parser_answers_like_fresh_ones(capsys):
    # main reuses one parser per process; a usage error, a count and a
    # series in a row answer as each would on a parser of its own
    calls = (["count", "local", "--p", "2", "--r", "1"],
             ["count", "local", "--p", "2", "--r", "1", "--exp", "6"],
             ["series", "local", "--p", "3", "--r", "1", "--max", "8"])
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert shared[0][2].startswith("usage: ascount count")
    assert cli.build_parser() is cli.build_parser()


def test_invariant_failure_exits_1(capsys, monkeypatch):
    def boom(ctx, exponent):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "local_count", boom)
    code, _, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                       "--exp", "2")
    assert code == 1
    assert "invariant violation" in err


def test_out_of_memory_exits_2_in_one_line(capsys, monkeypatch):
    def exhausted(ctx, exponent):
        raise MemoryError

    monkeypatch.setattr(cli, "local_count", exhausted)
    code, out, err = run(capsys, "count", "local", "--p", "2", "--r", "1",
                         "--exp", "2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_console_script_roundtrip():
    result = subprocess.run(
        [sys.executable, "-m", "ascount.cli", "count", "global",
         "--p", "2", "--r", "1", "--degree", "4"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "24\n"
    result = subprocess.run(
        [sys.executable, "-m", "ascount.cli", "series", "local",
         "--p", "3", "--r", "1", "--max", "0", "--format", "tsv"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "0\t1\n"


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

# (valid, invalid) values per flag.  Each draw takes a flag's value from the
# valid ones with probability 0.6, so about half the context draws reach
# the library.  n, the truncations and the exponents stay small: larger
# ones are the open cost products in log q and M (ROADMAP item 23).
_FUZZ = {
    "--p": (("2", "3", "7", "2147483647"), ("-1", "0", "1", "2147483648", "x")),
    "--n": (("1", "2"), ("-1", "0")),
    "--r": (("1", "2", "3"), ("-1", "0", "33", "1000000")),
    "size": (("0", "4", "40", "200"), ("-1", "1e3", "-inf")),
    "--divisor": (("t^2", "inf^2", "t2+t+1^2", "1", " 1 ", "t+[0,1]^2,inf^2",
                   "inf^6,t2+t+1^4", "t2+1^2", "t+[1,1]", "t^40"),
                  ("t^2,t^3", "1,t", "1^2", "2", "t+[0,1", "t+,inf", "t^",
                   "[]t", "inf^0", "t^-1", "t2+t", "t3^40", "[1,1]t+1",
                   "t^1e3", "", "x")),
    "--format": (("plain", "json", "tsv"), ("csv",)),
    "--suite": (("oracle", "psi", "integrality", "inequalities", "all"),
                ("none",)),
    "--budget": (("1e-9", "0.5", "3", "60", "1e308"),
                 ("0", "-1", "inf", "-inf", "nan", "x")),
    "--seed": (("0", "7", "-1"), ("x",)),
}


def _fuzz_argv(rng: Random) -> list:
    def pick(flag):
        valid, invalid = _FUZZ[flag]
        return rng.choice(valid if rng.random() < 0.6 else valid + invalid)

    command = rng.choice(["count local", "count global", "series local",
                          "series global", "asymptotics", "verify"]).split()
    if command == ["verify"]:
        return command + ["--suite", pick("--suite"), "--budget",
                          pick("--budget"), "--seed", pick("--seed")]
    argv = command + [arg for flag in ("--p", "--n", "--r")
                      for arg in (flag, pick(flag))]
    if command == ["count", "local"]:
        return argv + ["--exp", pick("size")]
    if command == ["count", "global"]:
        if rng.random() < 0.5:
            return argv + ["--degree", pick("size")]
        return argv + ["--divisor", pick("--divisor")]
    if command[0] == "series":
        return argv + ["--max", pick("size"), "--format", pick("--format")]
    return argv + rng.choice([[], ["--local"], ["--fit-max", pick("size")]])


def _message_lines(err: str) -> list:
    """stderr without the usage block that argparse prints before its one
    error line."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: "):
        lines = [line for line in lines[1:] if not line.startswith(" ")]
    return lines


def test_fuzzed_argv_ends_in_0_1_or_2_with_one_line(capsys):
    # each draw in process under a 5 s alarm: r = 10^6 once hung every
    # subcommand, and any exception but SystemExit escaping main is a bug
    rng = Random(20261021)
    codes, valid = [], 0
    for _ in range(300):
        argv = _fuzz_argv(rng)
        flags = dict(zip(argv, argv[1:]))
        valid += all(flags.get(flag) in _FUZZ[flag][0]
                     for flag in ("--p", "--n", "--r"))
        try:
            with _alarm(5):
                code, _, err = run(capsys, *argv)
        except Exception as exc:  # the argv names the case
            pytest.fail(f"{argv}: {exc!r}")
        assert code in (0, 1, 2), argv
        assert len(_message_lines(err)) == (1 if code else 0), (argv, err)
        codes.append(code)
    assert valid >= 100 and {0, 2} <= set(codes)
