"""Pole data, certified bounds, leading constants, inequality sweeps."""

import hashlib
import itertools
import json
import math
import operator
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from random import Random
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ascount.asymptotics import (
    holomorphy_radius_check,
    klein_constant_check,
    local_leading_constants,
    local_pole_catalog,
    global_pole_catalog,
    main_term_fit,
    main_term_params,
    psi_lower_bound,
    report_json,
    value_bounds_at_real_root,
    verify_inequalities,
)
from ascount import asymptotics, dirichlet
from ascount.compositions import chain_weights, compositions, prefix_sums
from ascount.dirichlet import (
    RationalSeries,
    TruncatedSeries,
    delta_exponents,
    global_dirichlet,
    rightmost_split,
    zeta_factors,
)
from ascount.errors import InvariantViolation
from ascount.fields import make_context

CTX211 = make_context(2, 1, 1)
CTX221 = make_context(2, 2, 1)
CTX311 = make_context(3, 1, 1)
CTX212 = make_context(2, 1, 2)
CTX222 = make_context(2, 2, 2)
CTX312 = make_context(3, 1, 2)


@lru_cache(maxsize=None)
def _coeffs(p, n, r, top):
    return global_dirichlet(make_context(p, n, r), top).coefficients()


# ---------------------------------------------------------------------------
# exact main-term parameters
# ---------------------------------------------------------------------------


def test_main_term_params_frozen():
    cases = {
        (2, 1, 1): (Fraction(1), 1, 2, 2, 2, 2, Fraction(3, 4)),
        (3, 1, 1): (Fraction(1, 2), 2, 12, 6, 2, 6, Fraction(4, 9)),
        (5, 1, 1): (Fraction(1, 4), 4, 240, 20, 4, 60, Fraction(6, 25)),
        (2, 1, 2): (Fraction(1, 2), 4, 12, 6, 2, 2, Fraction(5, 12)),
        (3, 1, 2): (Fraction(5, 24), 1, 24, 24, 24, 6, Fraction(7, 36)),
        (2, 1, 3): (Fraction(2, 7), 1, 14, 14, 14, 2, Fraction(1, 4)),
        (7, 1, 1): (Fraction(1, 6), 6, 2520, 42, 6, 420, Fraction(8, 49)),
        (3, 1, 3): (Fraction(7, 78), 1, 78, 78, 78, 6, Fraction(10, 117)),
        (2, 1, 4): (Fraction(1, 6), 1, 30, 30, 30, 2, Fraction(3, 20)),
        (5, 1, 2): (Fraction(3, 40), 1, 120, 120, 120, 60, Fraction(11, 150)),
    }
    for (p, n, r), expected in cases.items():
        got = main_term_params(make_context(p, n, r))
        assert (got.abscissa, got.pole_order, got.class_modulus,
                got.local_modulus, got.constant_modulus, got.prime_lcm,
                got.error_exponent) == expected, (p, n, r)
        assert got.error_exponent < got.abscissa


def test_exponent_owners_agree():
    # delta_exponents owns (a_j, A_j), chain_weights owns w_j and
    # main_term_params the abscissa and the error exponent; the other
    # sites read them, so the owners must agree with each other and with
    # the closed forms they replaced
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for r in range(1, 9):
            ctx = make_context(p, 1, r)
            weights = chain_weights(ctx)
            assert len(weights) == r
            for j in range(1, r + 1):
                assert delta_exponents(ctx, j)[1] == p * sum(weights[:j])
            a_r, big_a_r = delta_exponents(ctx, r)
            if r != 1 and (p, r) != (2, 2):
                assert zeta_factors(ctx) == ((big_a_r, a_r),)
            params = main_term_params(ctx)
            assert params.abscissa == Fraction(1 + a_r, big_a_r)
            assert params.local_modulus == big_a_r
            assert params.error_exponent == (params.abscissa
                                             - Fraction(1, p * big_a_r))
            # the exponent holomorphy_radius_check bounds d_m with
            exponent = (params.abscissa + params.error_exponent) / 2
            assert exponent == _holomorphy_exponent(p, r)


def _holomorphy_exponent(p, r):
    """a - eps/2, a = (1 + r(p-1))/(p(p^r - 1)), eps = 1/(p^2 (p^r - 1))."""
    return (Fraction(1 + r * (p - 1), p * (p ** r - 1))
            - Fraction(1, 2 * p ** 2 * (p ** r - 1)))


@pytest.mark.parametrize("pnr", [(2, 1, 1), (3, 1, 1), (2, 1, 2),
                                 (3, 1, 2), (2, 1, 3), (5, 1, 2)])
def test_holomorphy_radius_check_boundary(monkeypatch, pnr):
    # a reduced series whose one coefficient d_20 sits on q^(20 e), or one
    # past it, shows the exponent e the check really uses
    ctx = make_context(*pnr)
    e = _holomorphy_exponent(ctx.p, ctx.r)
    cap = ctx.q ** (e.numerator * 20)
    lo, hi = 0, 2
    while hi ** e.denominator <= cap:
        hi *= 2
    while hi - lo > 1:  # the largest d with d^den <= q^(20 num) is lo
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** e.denominator <= cap else (lo, mid)
    monkeypatch.setattr(asymptotics, "lambda_inverse", lambda _ctx: (1,))
    for d, holds in ((lo, True), (-lo, True), (lo + 1, False)):
        series = TruncatedSeries([0] * 20 + [d], 20)
        monkeypatch.setattr(asymptotics, "global_dirichlet",
                            lambda _ctx, _m, s=series: s)
        assert holomorphy_radius_check(ctx, 20) is holds, (pnr, d)


def test_main_term_params_norm_independent():
    assert main_term_params(CTX211) == main_term_params(CTX221)
    assert main_term_params(CTX212) == main_term_params(CTX222)


def test_local_pole_catalog():
    lines = local_pole_catalog(CTX211)
    assert len(lines) == 1
    assert (lines[0].real_part, lines[0].angular_step) == \
        (Fraction(1, 2), Fraction(1, 2))
    assert lines[0].definite

    lines = local_pole_catalog(CTX212)
    assert [(l.real_part, l.angular_step, l.definite) for l in lines] == [
        (Fraction(1, 3), Fraction(1, 6), True),
        (Fraction(1, 4), Fraction(1, 4), False),
    ]


def test_global_pole_catalog():
    lines = global_pole_catalog(CTX211)
    assert len(lines) == 1
    assert (lines[0].real_part, lines[0].angular_step,
            lines[0].max_order, lines[0].definite) == \
        (Fraction(1), Fraction(1, 2), 1, True)

    lines = global_pole_catalog(CTX212)
    assert [(l.real_part, l.angular_step, l.max_order, l.definite)
            for l in lines] == [
        (Fraction(1, 2), Fraction(1, 2), 4, True),
        (Fraction(1, 2), Fraction(1, 12), 3, False),
    ]

    # r = 1, p = 5: candidate lattice as fine as 1/240
    lines = global_pole_catalog(make_context(5, 1, 1))
    assert [(l.real_part, l.angular_step, l.max_order) for l in lines] == [
        (Fraction(1, 4), Fraction(1, 4), 4),
        (Fraction(1, 4), Fraction(1, 240), 3),
    ]

    # the generic case has a single simple line
    lines = global_pole_catalog(make_context(2, 1, 3))
    assert lines == (lines[0],)
    assert (lines[0].real_part, lines[0].angular_step,
            lines[0].max_order, lines[0].definite) == \
        (Fraction(2, 7), Fraction(1, 14), 1, True)


# ---------------------------------------------------------------------------
# certified signs at algebraic points
# ---------------------------------------------------------------------------


def test_value_bounds_at_real_root():
    # 1 - x^2 at x = 2^(-1/2) is exactly 1/2
    lower, upper = value_bounds_at_real_root((1, 0, -1), Fraction(1, 2), 2)
    assert lower > 0
    assert lower <= Fraction(1, 2) <= upper
    # 1 - 3x at x = 1/2 is -1/2: the bounds separate it below zero
    lower, upper = value_bounds_at_real_root((1, -3), Fraction(1, 2), 1)
    assert upper < 0
    assert lower <= Fraction(-1, 2) <= upper
    # exact multiples of the modulus short-circuit to (0, 0)
    assert value_bounds_at_real_root((-1, 0, 2), Fraction(1, 2), 2) == (0, 0)
    with pytest.raises(ValueError):
        value_bounds_at_real_root((1,), Fraction(0), 2)
    with pytest.raises(ValueError):
        value_bounds_at_real_root((1,), Fraction(2), 2)
    with pytest.raises(ValueError):
        value_bounds_at_real_root((1,), Fraction(1, 2), 0)


def test_value_bounds_at_real_root_folds_an_exact_multiple():
    # (x^2 - 2/3)(x + 1) and its product with x^2 - 2/3 vanish at
    # x = (2/3)^(1/2): the fold leaves no remainder, with Fraction
    # coefficients and a power whose numerator is not 1
    power = Fraction(2, 3)
    poly = (-power, -power, Fraction(1), Fraction(1))
    assert value_bounds_at_real_root(poly, power, 2) == (0, 0)
    squared = dirichlet.poly_mul(poly, (-power, 0, 1))
    assert value_bounds_at_real_root(squared, power, 2) == (0, 0)
    # a near miss is no multiple, and its value 10^-9 gets a certified sign
    near = (poly[0] + Fraction(1, 10 ** 9),) + poly[1:]
    lower, upper = value_bounds_at_real_root(near, power, 2)
    assert 0 < lower <= Fraction(1, 10 ** 9) <= upper


def test_psi_lower_bound_positive():
    for p, r in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        ctx = make_context(p, 1, r)
        for f in range(1, r + 1):
            bound = psi_lower_bound(ctx, f)
            assert bound > 0, (p, r, f)


# ---------------------------------------------------------------------------
# local leading constants
# ---------------------------------------------------------------------------


def test_local_constants_frozen():
    cases = {
        (2, 1, 1): (2, 60, {0: 1.0}),
        (2, 2, 1): (2, 60, {0: 1.5}),
        (3, 1, 1): (6, 60, {0: 1.0, 4: 0.693361}),
        (2, 1, 2): (6, 162, {0: 0.5, 2: 0.629961, 4: 0.793701}),
        (2, 2, 2): (6, 84, {0: 0.625, 2: 0.595275, 4: 0.944941}),
        (3, 1, 2): (24, 168, {0: 0.016667, 4: 0.024037, 6: 0.05,
                              10: 0.072112, 12: 0.15, 16: 0.056087,
                              18: 0.116667, 22: 0.168262}),
        # the default m_max grows by one period past _sample_cap here
        (3, 1, 3): (78, 546, {
            0: 7.45179e-05, 4: 5.07279e-05, 6: 9.79198e-05,
            10: 0.000209411, 12: 3.29447e-05, 16: 7.04855e-05,
            18: 0.000178163, 22: 0.000309943, 24: 0.000785234,
            28: 0.000521531, 30: 0.000995195, 34: 0.00212827,
            36: 8.89584e-05, 40: 0.000190327, 42: 0.000477809,
            46: 0.000263069, 48: 0.000666477, 52: 0.00142531,
            54: 0.000135707, 58: 0.000280148, 60: 0.000706878,
            64: 0.00151237, 66: 0.00378486, 70: 6.67481e-06,
            72: 1.68719e-05, 76: 2.94132e-05}),
        (5, 1, 2): (120, 360, {
            0: 2.58065e-06, 8: 5.46908e-06, 12: 1.7803e-05,
            16: 5.79522e-05, 20: 0.000188646, 28: 0.000399792,
            32: 0.0013014, 36: 0.00423634, 40: 0.0137901, 48: 0.0002338,
            52: 0.000761066, 56: 0.00247742, 60: 0.00806451,
            68: 0.0170909, 72: 0.000445046, 76: 0.00144871,
            80: 0.00471586, 88: 0.00999417, 92: 0.032533, 96: 0.0008405,
            100: 0.002736, 108: 0.00579831, 112: 0.0188747,
            116: 0.0614409}),
    }
    for (p, n, r), (modulus, m_max, nonzero) in cases.items():
        got = local_leading_constants(make_context(p, n, r))
        assert got.modulus == modulus
        assert got.m_max == m_max
        for cls in range(modulus):
            expected = nonzero.get(cls, 0.0)
            if expected == 0.0:
                assert got.constants[cls] == 0.0, (p, n, r, cls)
                assert cls not in got.relative_errors
            else:
                assert got.constants[cls] == pytest.approx(expected,
                                                           rel=1e-4)
                # validation already enforced the error at m_max; the
                # samples themselves are exposed for inspection
                trail = got.relative_errors[cls]
                assert trail[-1][1] < 1e-2


def test_local_constants_extend_only_a_default_horizon():
    # class 4 misses 1% up to m = 468, so the horizon grows by one period
    assert local_leading_constants(make_context(3, 1, 3)).m_max == 546


def test_local_constants_precision_has_headroom():
    # each constant R_k q^(-a k/A) at 240 bits, rounded once to a float,
    # must equal the reported one; (7,1,2) is the most rounding-sensitive
    # context, whose constants change between 64 and 80 working bits
    for p, n, r in ((7, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 2)):
        ctx = make_context(p, n, r)
        a, period = r * (p - 1), p * (p ** r - 1)
        ints, den = rightmost_split(ctx)[1]
        head = [Fraction(x, den) for x in ints]
        got = local_leading_constants(ctx)
        assert got.modulus == period == len(head)
        with mpmath.workprec(240):
            expected = [float(mpmath.mpf(R.numerator) / R.denominator
                              * mpmath.power(ctx.q,
                                             -mpmath.mpf(a * k) / period))
                        for k, R in enumerate(head)]
        assert [got.constants[k] for k in range(period)] == expected, (p, n, r)


def _raised_head(split):
    # one nonzero R_k = H_k / h raised by 1/h, h the common denominator of R
    rational, (head, den), rest = split
    k = next(k for k, value in enumerate(head) if value)
    return rational, (head[:k] + (head[k] + 1,) + head[k + 1:], den), rest


def _changed_rest(split):
    # one coefficient of S, the numerator of S/D', moved by 1/t, t its
    # common denominator
    rational, head, rest = split
    ints = (rest.ints[0] + 1,) + rest.ints[1:]
    return rational, head, RationalSeries(ints, rest.den, rest.unit)


@pytest.mark.parametrize("change", [_raised_head, _changed_rest])
def test_local_constants_reject_a_split_off_by_one_unit(monkeypatch, change):
    # the integer identity h t c_m = t H_k c^i + h T_m catches the smallest
    # change either side of the split can take
    ctx = make_context(3, 1, 2)
    wrong = change(rightmost_split(ctx))
    monkeypatch.setattr(asymptotics, "rightmost_split", lambda _: wrong)
    with pytest.raises(InvariantViolation,
                       match="partial fractions disagree"):
        local_leading_constants(ctx)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 200), st.integers(1, 2 ** 200),
       st.floats(allow_nan=False, allow_infinity=False))
@example(1, 100, 0.01)      # the float 0.01 lies just above 1/100
@example(3, 7, 3 / 7)
def test_relative_error_gate_matches_the_fraction(err, size, tolerance):
    # local_leading_constants holds a relative error as the int pair
    # (err, size): the cross-multiplied gate and the reported float are
    # what the Fraction err/size gives
    tol_num, tol_den = tolerance.as_integer_ratio()
    assert (err * tol_den < tol_num * size) == (Fraction(err, size) < tolerance)
    assert err / size == float(Fraction(err, size))


@pytest.mark.parametrize("pnr", [(3, 1, 3), (2, 2, 2)],
                         ids=lambda pnr: "".join(map(str, pnr)))
def test_local_stages_make_no_fraction(monkeypatch, pnr):
    # once local_rational is built, the split, the reduced form and the
    # constants run on ints; at (2,2,2) the gcd has degree 2
    ctx = make_context(*pnr)
    dirichlet.local_rational(ctx)
    dirichlet.rightmost_split.cache_clear()
    dirichlet.local_reduced.cache_clear()
    made, honest = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return honest(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    Fraction(1, 2)  # the patch counts
    dirichlet.rightmost_split(ctx)
    dirichlet.local_reduced(ctx)
    local_leading_constants(ctx)
    monkeypatch.undo()
    assert made == [(1, 2)]


def test_local_report_at_p_127():
    # the largest rank-one pole degree under the cap, D = 16002: the
    # horizon 2D = 32004 sits just under the truncation cap of 32768
    argv = "asymptotics --p 127 --r 1 --local".split()
    result = subprocess.run([sys.executable, "-m", "ascount.cli", *argv],
                            capture_output=True, timeout=20)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == \
        "b8f9569fb69b9a4eecadc7458bb2811090da1ad4a847c08b5e8513633bfe2ded"


def test_local_report_builds_the_rational_form_once(capsys, monkeypatch):
    from ascount import asymptotics, cli, dirichlet
    calls = {"local_rational": 0, "psi_polynomial": 0}

    def count(module, name):
        original = getattr(dirichlet, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    dirichlet.local_rational.cache_clear()
    dirichlet.rightmost_split.cache_clear()
    for module in (dirichlet, asymptotics):
        count(module, "psi_polynomial")
    count(dirichlet, "local_rational")
    assert cli.main(["asymptotics", "--p", "3", "--r", "2", "--local"]) == 0
    capsys.readouterr()
    assert calls == {"local_rational": 1, "psi_polynomial": 3}


# ---------------------------------------------------------------------------
# global fits
# ---------------------------------------------------------------------------


def test_main_term_fit_simplest_case():
    fit = main_term_fit(CTX211, _coeffs(2, 1, 1, 40))
    assert fit["modulus"] == 2 and fit["degree"] == 0
    even = fit["classes"][0]
    assert even["leading"] == pytest.approx(1.5, rel=1e-9)
    assert max(even["residual_trend"]) < 1e-12
    assert fit["classes"][1]["zero"]


def test_main_term_fit_needs_enough_points():
    with pytest.raises(ValueError):
        main_term_fit(CTX212, _coeffs(2, 1, 2, 36))


def test_klein_constant_report():
    report = klein_constant_check(CTX212, _coeffs(2, 1, 2, 96))
    assert report["tail_bound"] < 1e-9
    assert report["odd_classes_zero"]
    assert report["ratio"] == pytest.approx(0.125, rel=5e-3)
    for cls, ratio in report["ratio_by_class"].items():
        assert cls % 2 == 0
        assert ratio == pytest.approx(0.125, rel=1e-2)
    with pytest.raises(ValueError):
        klein_constant_check(CTX211, _coeffs(2, 1, 1, 40))


# ---------------------------------------------------------------------------
# inequality sweep
# ---------------------------------------------------------------------------


_FAMILIES = ("local_abscissa_chain", "zeta_abscissa_chain",
             "single_block_bound", "multi_block_bound")


# checked counts per family, in _FAMILIES order, recorded when the single-
# and multi-block families were still swept by two separate loops; the
# sha256 of the whole JSON report pins every verdict, witness and
# violation string, recorded before the sweep read the pole pairs and the
# chain weights from their owners
@pytest.mark.parametrize("p_max, r_max, checked, digest", [
    (7, 6, (60, 60, 2184, 121062),
     "607a480aa5c4df4330a491b8061439be46680de7cb3c25ec24fba62df40c8d6d"),
    (5, 5, (30, 30, 276, 9458),
     "ad534d74e2b84caaf492d1e038f7640bd6d2e2883a0e8a68eb126d6b98f09b4b"),
    (11, 4, (30, 30, 1754, 45623),
     "b0178b4a0b1ec774bde7c878324f3a66156efa98254aac03dc4ddaa8da939024"),
    (3, 6, (30, 30, 80, 947),
     "2d1b3b8234fd7dcc9d184ff0a4103b35feb2f83150935cd0edffd99e0f060ee8"),
], ids=("7-6", "5-5", "11-4", "3-6"))
def test_verify_inequalities_full_grid(p_max, r_max, checked, digest):
    report = verify_inequalities(p_max, r_max)
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest
    assert report["ok"]
    for family in _FAMILIES:
        assert report[family]["violations"] == []
    assert tuple(report[family]["checked"] for family in _FAMILIES) == checked

    # p = 2 is in every grid: one collapse per r >= 2, one left equality
    # per r >= 3
    zeta_eq = report["zeta_abscissa_chain"]["equalities"]
    assert len(zeta_eq) == 2 * r_max - 3
    assert ("collapse j=p=2", 2, 2, 2) in zeta_eq
    assert ("left equality", 2, 3, 3) in zeta_eq
    assert all(label in ("collapse j=p=2", "left equality")
               for label, *_ in zeta_eq)

    # the all-(p-1) tuple, once per (p, r, h) with 2 <= h <= r
    primes = sum(1 for v in range(2, p_max + 1)
                 if all(v % d for d in range(2, v)))
    single_eq = report["single_block_bound"]["equalities"]
    assert len(single_eq) == primes * r_max * (r_max - 1) // 2
    assert (2, 2, 2, (1, 1)) in single_eq
    assert all(all(v == p - 1 for v in ell) for p, _, _, ell in single_eq)
    assert report["multi_block_bound"]["equalities"] == []


def test_verify_inequalities_wide_grid():
    # every prime p < 60, 2 <= r <= 8; the corner check makes this cheap,
    # where a tuple-by-tuple sweep would visit about 4e10 inner tuples
    report = verify_inequalities(59, 8)
    assert report["ok"]
    for family in _FAMILIES:
        assert report[family]["violations"] == []
    assert report["local_abscissa_chain"]["checked"] == 476
    assert report["zeta_abscissa_chain"]["checked"] == 476
    assert len(report["single_block_bound"]["equalities"]) == 476
    assert len(report["zeta_abscissa_chain"]["equalities"]) == 13
    assert report["multi_block_bound"]["equalities"] == []


def test_corner_tuples_reach_every_block_maximum(monkeypatch):
    # the corner sets verify_inequalities actually visits, one per p
    corner_sets = {}

    def spy(pool, length):
        corner_sets[max(pool) + 1] = tuple(pool)
        return itertools.combinations_with_replacement(pool, length)

    spied = SimpleNamespace(**vars(itertools))
    spied.combinations_with_replacement = spy
    monkeypatch.setattr(asymptotics, "itertools", spied)
    verify_inequalities(13, 6)
    assert sorted(corner_sets) == [2, 3, 5, 7, 11, 13]

    # an affine form peaks over the nonincreasing tuples in [1, p-1]^b at
    # a corner tuple, also once the all-(p-1) tuple is left out
    def peak(coeffs, tuples, skip=None):
        return max((sum(map(operator.mul, coeffs, ell))
                    for ell in tuples if ell != skip), default=None)

    rng = Random(21)
    for p, corners in corner_sets.items():
        for b in range(1, 7):
            every = list(itertools.combinations_with_replacement(
                range(p - 1, 0, -1), b))
            picked = list(itertools.combinations_with_replacement(corners, b))
            assert set(picked) <= set(every), (p, b)
            top = (p - 1,) * b
            for _ in range(20):
                coeffs = [rng.randint(-99, 99) for _ in range(b)]
                assert peak(coeffs, every) == peak(coeffs, picked), (p, b, coeffs)
                assert peak(coeffs, every, top) == peak(coeffs, picked, top), \
                    (p, b, coeffs)


def test_block_maximum_matches_brute_force():
    # over the corner tuples, the same maximum as over every nonincreasing
    # tuple in [1, p-1]^b, reached by the tuple returned with it
    rng = Random(27)
    for p in (2, 3, 5, 7, 11, 13):
        corners = sorted({p - 1, p - 2, 1} - {0}, reverse=True)
        for b in range(1, 6):
            every = list(itertools.combinations_with_replacement(
                range(p - 1, 0, -1), b))
            for _ in range(20):
                gains = [rng.randint(-99, 99) for _ in range(b)]
                value, ell = asymptotics._block_maximum(gains, corners)
                assert value == max(sum(map(operator.mul, gains, t))
                                    for t in every), (p, b, gains)
                assert ell in every
                assert sum(map(operator.mul, gains, ell)) == value


def _block_sweep(p_max, r_max):
    """The single- and multi-block families of verify_inequalities, tuple
    by tuple over the product of the per-block corner pools.  A
    multi-block composition lists its first tuple of largest excess
    num mid.den - mid.num den when that excess is >= 0."""
    single = {"checked": 0, "equalities": [], "violations": []}
    multi = {"checked": 0, "equalities": [], "violations": []}
    for p in (v for v in range(2, p_max + 1)
              if all(v % d for d in range(2, v))):
        corners = sorted({p - 1, p - 2, 1} - {0}, reverse=True)
        for r in range(2, r_max + 1):
            ctx = make_context(p, 1, r)
            weights = asymptotics.chain_weights(ctx)
            for h in range(2, r + 1):
                a, big_a = delta_exponents(ctx, h)
                mid = Fraction(p * (a + 1) - 1, p * big_a)
                for outer in compositions(h) if h <= 5 else [(h,)]:
                    spread, bounds = len(outer), prefix_sums(outer)
                    extra_num = (p - 1) * sum((spread - i) * outer[i - 1]
                                              for i in range(1, spread))
                    extra_den = p * sum(
                        (spread - i) * sum(weights[end - b:end])
                        for i, (b, end) in enumerate(zip(outer, bounds[:-1]), 1))
                    family = single if spread == 1 else multi
                    family["checked"] += math.prod(math.comb(b + p - 2, b)
                                                   for b in outer)
                    best = None
                    for pieces in itertools.product(*(
                            itertools.combinations_with_replacement(corners, b)
                            for b in outer)):
                        ell = tuple(itertools.chain.from_iterable(pieces))
                        num = 1 + sum(ell) + extra_num
                        den = extra_den + sum(w * (v + 1)
                                              for w, v in zip(weights, ell))
                        excess = num * mid.denominator - mid.numerator * den
                        bound = str(Fraction(num, den))
                        if spread > 1:
                            if best is None or excess > best[0]:
                                best = excess, ell, bound
                        elif all(v == p - 1 for v in ell):
                            if num * big_a == (a + 1) * den:
                                single["equalities"].append((p, r, h, ell))
                            else:
                                single["violations"].append(
                                    (p, r, h, ell, "edge equality broken"))
                        elif excess >= 0:
                            single["violations"].append((p, r, h, ell, bound))
                    if best is not None and best[0] >= 0:
                        multi["violations"].append((p, r, h, outer) + best[1:])
    return single, multi


@pytest.mark.parametrize("p_max, r_max", [(7, 6), (13, 6)])
def test_verify_inequalities_matches_tuple_sweep(p_max, r_max):
    report = verify_inequalities(p_max, r_max)
    expected = dict(report)
    expected["single_block_bound"], expected["multi_block_bound"] = \
        _block_sweep(p_max, r_max)
    assert json.dumps(report).encode() == json.dumps(expected).encode()


def test_verify_inequalities_reports_the_argmax_tuple(monkeypatch):
    # reversed chain weights break the bound; each failing composition
    # lists the tuple of largest excess, one that mixes inner values too
    def reversed_weights(ctx):
        return chain_weights(ctx)[::-1]

    monkeypatch.setattr(asymptotics, "chain_weights", reversed_weights)
    report = verify_inequalities(7, 6)
    single, multi = _block_sweep(7, 6)
    assert not report["ok"]
    assert report["single_block_bound"] == single
    assert report["multi_block_bound"] == multi
    violations = multi["violations"]  # one per failing composition
    assert violations and len(violations) == len(
        {(p, r, h, outer) for p, r, h, outer, *_ in violations})
    assert (3, 2, 2, (1, 1), (2, 1), "1/4") in violations
    assert any(len(set(ell)) > 1 for *_, ell, _ in violations)


# ---------------------------------------------------------------------------
# report document
# ---------------------------------------------------------------------------


def test_report_json_deterministic():
    import json
    first = report_json(CTX211)
    second = report_json(CTX211)
    assert first == second
    payload = json.loads(first)
    assert payload["params"]["abscissa"] == "1"
    assert payload["params"]["error_exponent"] == "3/4"
    assert payload["pole_catalog"]["local"][0]["certainty"] == "definite"
    assert payload["constants"]["values"]["0"] == 1.0
    assert payload["fits"] is None and "inequality_report" not in payload
    assert "klein_constant" not in payload


def test_report_json_with_fits():
    import json
    payload = json.loads(report_json(CTX212, _coeffs(2, 1, 2, 96)))
    assert payload["fits"]["modulus"] == 12
    assert payload["klein_constant"]["odd_classes_zero"] is True
    simple = json.loads(report_json(CTX211, _coeffs(2, 1, 1, 40)))
    assert "klein_constant" not in simple
    assert simple["fits"]["classes"]["0"]["leading"] == pytest.approx(1.5)
