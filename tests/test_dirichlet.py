"""Series layer: rational forms, psi identities, Euler products."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ascount.dirichlet import (
    RationalSeries,
    TruncatedSeries,
    delta_exponents,
    delta_polynomial,
    euler_factor_series,
    global_dirichlet,
    global_factor_series,
    lambda_inverse,
    local_direct_series,
    local_rational,
    local_reduced,
    nested_geometric_check,
    poly_add,
    poly_gcd,
    poly_mul,
    poly_scale,
    powered_place_factor,
    psi_closed_form,
    psi_polynomial,
    rightmost_split,
    series_to_json,
    zeta_shift,
)
from ascount import dirichlet
from ascount.asymptotics import holomorphy_radius_check
from ascount.counting import factor_coefficient, factor_coefficients
from ascount.errors import InvariantViolation, TruncationError
from ascount.fields import make_context, place_count, places, ptrim

CTX211 = make_context(2, 1, 1)
CTX221 = make_context(2, 2, 1)
CTX311 = make_context(3, 1, 1)
CTX212 = make_context(2, 1, 2)
CTX222 = make_context(2, 2, 2)
CTX312 = make_context(3, 1, 2)
CTX213 = make_context(2, 1, 3)
CTX512 = make_context(5, 1, 2)
CTX313 = make_context(3, 1, 3)
CTX711 = make_context(7, 1, 1)

GRID = (CTX211, CTX221, CTX311, CTX212, CTX222, CTX312)


# ---------------------------------------------------------------------------
# series plumbing
# ---------------------------------------------------------------------------


def test_truncated_series_arithmetic():
    a = TruncatedSeries((1, 2, 3), 2)
    b = TruncatedSeries((1, -2), 1)
    prod = a * b
    assert prod.truncation == 1           # min of the truncations
    assert prod.coefficients() == (1, 0)
    assert prod == TruncatedSeries((1,), 1) != TruncatedSeries((1,), 2)
    assert TruncatedSeries((1, 2), 1) != a
    with pytest.raises(TruncationError):
        prod.coefficient(2)               # beyond truncation is an error


def test_truncated_series_holds_ints_only():
    with pytest.raises(TypeError):
        TruncatedSeries((Fraction(1, 2),), 0)
    with pytest.raises(TypeError):
        TruncatedSeries((1, 2.0), 1)


def _inverse(coeffs, truncation: int) -> tuple:
    """1/a to degree `truncation` in plain Fractions, the reference for
    RationalSeries; a[0] must be nonzero."""
    a = (list(coeffs) + [0] * truncation)[:truncation + 1]
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for k in range(1, truncation + 1):
        out.append(-inv0 * sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return tuple(out)


def test_series_inverse_and_inflate():
    assert _inverse((1, -2), 8) == tuple(2 ** k for k in range(9))
    assert _inverse((2, -1), 3) == tuple(Fraction(1, 2 ** (k + 1))
                                         for k in range(4))
    # u -> t^2 pins everything below t^(2*(3+1)), so the horizon widens;
    # F_2(t) has one place of degree 2, so the factor is not powered
    inflated = powered_place_factor(CTX211, 2, TruncatedSeries((1, 1), 3), 7)
    assert inflated.truncation == 7
    assert inflated.coefficients() == (1, 0, 1, 0, 0, 0, 0, 0)


def test_rational_series_reduced_and_recurrence():
    # (1 - t)(1 + t) / (1 - t) reduces to 1 + t: the gcd is t - 1, and
    # dividing it out of both sides leaves (1 + t) / 1
    rat = RationalSeries(poly_mul((1, -1), (1, 1)), (1, -1))
    gcd = poly_gcd(rat.ints, rat.den)
    assert gcd == (-1, 1)
    assert _euclid_reduced(rat, gcd) == ((1, 1), (1,))
    assert rat.series(6).coefficients() == (1, 1, 0, 0, 0, 0, 0)
    geo = RationalSeries((1,), (1, 0, -2))
    assert geo.recurrence() == (0, 2)
    coeffs = geo.series(10).coefficients()
    for m in range(2, 11):
        assert coeffs[m] == 2 * coeffs[m - 2]


_COEFFS = st.integers(-6, 6)


@st.composite
def _rational(draw):
    """(num, den) of ints: den is dense or a sparse product of binomials
    1 - c t^A, scaled so that den[0] is often not +-1."""
    num = draw(st.lists(_COEFFS, max_size=8))
    if draw(st.booleans()):
        den = draw(st.lists(_COEFFS, max_size=6))
    else:
        den = (1,)
        for c, a in draw(st.lists(st.tuples(_COEFFS, st.integers(1, 12)),
                                  max_size=3)):
            den = poly_mul(den, (1,) + (0,) * (a - 1) + (-c,))
    d0 = draw(st.sampled_from((1, -1, 2, -3, 3, -4)))
    return tuple(num), (d0,) + tuple(c * d0 for c in den[1:])


@settings(max_examples=80, deadline=None)
@given(_rational(), st.integers(0, 30), st.integers(-12, 12).filter(bool))
@example(((2, 1), (3, 0, 0, 0, 0, 0, 0, 0, -6)), 20, 2)  # sparse, over 2
@example(((), (2, 1)), 5, 4)                             # zero numerator
@example(((-12, 0, -24), (1, -1)), 3, -6)                # unit not in lowest terms
def test_rational_series_matches_series_division(rational, extra, unit):
    # the ints over the unit are the numerator num / unit
    ints, den = rational
    num = tuple(Fraction(c, unit) for c in ints)
    truncation = max(len(num), len(den)) + extra
    rat = RationalSeries(ints, den, unit)
    assert rat.num == ptrim(num)
    assert math.gcd(rat.unit, *rat.ints) == 1 and rat.unit > 0
    rat.coefficient(truncation // 2)            # expansion is incremental
    inverse = _inverse(den, truncation)
    expected = [sum(c * inverse[m - i] for i, c in enumerate(num[:m + 1]))
                for m in range(truncation + 1)]
    assert [rat.coefficient(m) for m in range(truncation + 1)] == expected
    if all(c.denominator == 1 for c in expected):
        assert rat.series(truncation).coefficients() == tuple(expected)
    else:
        with pytest.raises(InvariantViolation):
            rat.series(truncation)


def test_rational_series_hands_over_ints_only():
    # 1/(2 - t) = 1/2 + t/4 + ...: not a counting series
    with pytest.raises(InvariantViolation):
        RationalSeries((1,), (2, -1)).series(3)
    # (2 - 2t)/(2 - 4t) = 1 + t + 2t^2 + 4t^3 + ... is one, over den[0] = 2
    series = RationalSeries((2, -2), (2, -4)).series(4)
    assert series.coefficients() == (1, 1, 2, 4, 8)
    assert {type(c) for c in series.coefficients()} == {int}


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
def test_rational_series_and_poly_gcd_take_ints_only(bad):
    for build in (lambda: RationalSeries((1, bad), (1, -1)),
                  lambda: RationalSeries((1,), (1, bad)),
                  lambda: RationalSeries((1,), (1, -1), bad),
                  lambda: poly_gcd((1, bad), (1, 1)),
                  lambda: poly_gcd((1, 1), (bad,))):
        with pytest.raises(TypeError):
            build()


def _divmod(a, b):
    """Quotient and remainder in Q[t]; b must be nonzero."""
    a, b = list(ptrim(a)), ptrim(b)
    quot = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / Fraction(b[-1])
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        d = len(a) - len(b)
        quot[d] = c
        for i, cb in enumerate(b):
            a[d + i] -= c * cb
        a = list(ptrim(a))
    return ptrim(quot), tuple(a)


def _naive_gcd(a, b):
    """Monic gcd by Euclid over Q, the reference for poly_gcd."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _euclid_reduced(rat, gcd) -> tuple:
    """(num, den) of rat divided by gcd in Q[t], den(0) = 1: the reduced
    form by Euclidean division."""
    (num, _), (den, _) = (_divmod(poly, gcd) for poly in (rat.num, rat.den))
    return tuple(c / den[0] for c in num), tuple(c / den[0] for c in den)


def _monic(poly) -> tuple:
    return tuple(Fraction(c) / poly[-1] for c in poly) if poly else ()


_POLYS = st.lists(st.integers(-4, 4), max_size=6).map(ptrim)
_SMALL_POLYS = [(), (1,), (2,), (0, 1), (1, 1), (2, 3), (1, 0, -4), (3, 4, 1),
                (1, 0, 2), poly_mul((1, 2), (1, 0, 3)), poly_mul((1, 5), (3, 1))]


@settings(max_examples=100, deadline=None)
@given(_POLYS, _POLYS, _POLYS, st.sampled_from((1, 2, -3)))
@example((1, 0, 2), (1, 1), (2, 0, 1), -3)           # gcd 1 + 2u^2
@example((), (1, 1), (), 1)                         # zero inputs
def test_poly_gcd_matches_fraction_euclid(g, x, y, scale):
    a = poly_scale(poly_mul(g, x), scale)
    b = poly_mul(g, y)
    gcd = poly_gcd(a, b)
    assert _monic(gcd) == _naive_gcd(a, b)
    if gcd:
        assert all(not _divmod(p, gcd)[1] for p in (a, b))
        cofactors = [_divmod(p, gcd)[0] for p in (a, b)]
        assert len(_naive_gcd(*cofactors)) <= 1     # 1, or () for 0 and 0
    else:
        assert not a and not b


@settings(max_examples=100, deadline=None)
@given(_POLYS, _POLYS, _POLYS, st.sampled_from((1, -2, -3)))
@example((0, -2), (1,), (3,), 1)                    # gcd u of -2u and -6u
@example((), (1, 1), (), 1)                         # zero inputs
def test_poly_gcd_is_primitive_with_a_positive_lead(g, x, y, scale):
    # ints with content 1 and a positive leading coefficient, the monic
    # Euclidean gcd up to a rational factor, and () for two zeros
    a, b = poly_scale(poly_mul(g, x), scale), poly_mul(g, y)
    gcd = poly_gcd(a, b)
    if not a and not b:
        assert gcd == ()
        return
    assert {type(c) for c in gcd} == {int}
    assert math.gcd(*gcd) == 1 and gcd[-1] > 0
    assert _monic(gcd) == _naive_gcd(a, b)


def test_local_rational_gcd_frozen():
    # (3,1,3): the numerator shares nothing with the denominator, so the
    # reduced form keeps the full degree-204 product of three binomials
    rat = local_rational(CTX313)
    assert poly_gcd(rat.ints, rat.den) == (1,)
    red = local_reduced(CTX313)
    assert len(red.den) - 1 == 204 and red.den == rat.den
    assert sum(1 for c in red.den if c) == 8
    # (2,2,2): a degree-2 gcd, 1 + 2u^2
    rat = local_rational(CTX222)
    assert poly_gcd(rat.ints, rat.den) == (1, 0, 2)
    red = local_reduced(CTX222)
    assert len(red.den) == len(rat.den) - 2 and red.den[0] == 1
    assert red.series(60) == rat.series(60)


_REDUCED_GRID = ([(2, 1, r) for r in range(1, 5)] + [(3, 1, r) for r in range(1, 4)]
                 + [(5, 1, 1), (5, 1, 2)] + [(2, 2, r) for r in range(1, 4)]
                 + [(3, 2, 1), (3, 2, 2)])


@pytest.mark.parametrize("pnr", _REDUCED_GRID, ids=lambda pnr: "".join(map(str, pnr)))
def test_local_reduced_matches_euclid(pnr):
    # one gcd per delta gives the Euclidean reduced form, coefficient for
    # coefficient; at (2,2,2) the gcd has degree 2.  The gcd of the whole
    # pair is Euclid's over Q, which shares no code with poly_gcd, except
    # at (3,1,3) and (5,1,2), where that takes seconds: there it is
    # poly_gcd's, proved 1 modulo its certificate prime
    ctx = make_context(*pnr)
    rat = local_rational(ctx)
    if pnr in ((3, 1, 3), (5, 1, 2)):
        gcd = poly_gcd(rat.ints, rat.den)
        assert gcd == (1,)
    else:
        gcd = _naive_gcd(rat.num, rat.den)
    got = local_reduced(ctx)
    assert (got.num, got.den) == _euclid_reduced(rat, gcd)
    assert len(local_rational(ctx).den) - len(got.den) == (2 if pnr == (2, 2, 2) else 0)


@pytest.mark.parametrize("pnr", [(2, 2, 1), (3, 1, 2)],
                         ids=lambda pnr: "".join(map(str, pnr)))
def test_local_reduced_falls_back_where_the_certificate_fails(monkeypatch, pnr):
    # with the certificate prime patched to 3, the first fold vanishes
    # mod 3 (its content is 6 at (2,2,1) and 3 at (3,1,2)), so its gcd
    # mod 3 is delta_1 itself at (2,2,1), of positive degree, and at
    # (3,1,2) delta_1's leading coefficient 3^2 vanishes too; either way
    # the primitive remainder sequence runs and gives the same reduced form
    ctx = make_context(*pnr)
    want = local_reduced(ctx)
    a, big_a = delta_exponents(ctx, 1)
    fold = dirichlet._fold(local_rational(ctx).ints, ctx.q ** a, big_a)[0]
    assert all(c % 3 == 0 for c in fold)
    honest, calls = dirichlet._primitive_remainder, []

    def counted(a, b):
        calls.append(len(b))
        return honest(a, b)

    monkeypatch.setattr(dirichlet, "_primitive_remainder", counted)
    local_reduced.cache_clear()
    local_reduced(ctx)
    assert calls == []  # certified modulo 2^61 - 1 without a sequence
    monkeypatch.setattr(dirichlet, "_CERTIFICATE_PRIME", 3)
    local_reduced.cache_clear()
    got = local_reduced(ctx)
    assert calls
    assert (got.ints, got.unit, got.den) == (want.ints, want.unit, want.den)


def test_poly_gcd_certificate_needs_a_unit_leading_coefficient(monkeypatch):
    # g = 1 + 3u is a common factor of a = g (1 + u) and b = g (2 + u),
    # but g = 1 mod 3, where a and b are coprime: with both leading
    # coefficients 0 mod 3, degree 0 mod 3 proves nothing
    a, b = poly_mul((1, 3), (1, 1)), poly_mul((1, 3), (2, 1))
    monkeypatch.setattr(dirichlet, "_CERTIFICATE_PRIME", 3)
    assert dirichlet._gcd_degree_mod(a, b, 3) == 0
    assert poly_gcd(a, b) == (1, 3)
    assert _monic((1, 3)) == _naive_gcd(a, b)
    # a unit leading coefficient: degree 0 mod the prime is a proof
    for prime in (2, 3, 5, 7):
        monkeypatch.setattr(dirichlet, "_CERTIFICATE_PRIME", prime)
        for x, y in itertools.product(_SMALL_POLYS, repeat=2):
            assert _monic(poly_gcd(x, y)) == _naive_gcd(x, y), (prime, x, y)


def test_local_reduced_refuses_deltas_on_one_circle(monkeypatch):
    # the product of per-delta gcds is the gcd only for coprime deltas
    ctx = make_context(2, 1, 2)
    local_rational(ctx)
    monkeypatch.setattr(dirichlet, "delta_exponents", lambda ctx, j: (j, 2 * j))
    local_reduced.cache_clear()
    with pytest.raises(InvariantViolation, match="two deltas on the circle"):
        local_reduced(ctx)


@pytest.mark.parametrize("gcd, message", [((3, 1), "not integral"),
                                          ((1, 1), "leaves a remainder")])
def test_local_reduced_refuses_a_wrong_gcd(monkeypatch, gcd, message):
    # 3 + u scales to 1 + u/3, which no factor of a delta does (Gauss's
    # lemma), and 1 + u divides neither num nor den at (2,1,2)
    ctx = make_context(2, 1, 2)
    local_rational(ctx)
    monkeypatch.setattr(dirichlet, "poly_gcd", lambda a, b: gcd)
    local_reduced.cache_clear()
    with pytest.raises(InvariantViolation, match=message):
        local_reduced(ctx)


# ---------------------------------------------------------------------------
# local factors and psi
# ---------------------------------------------------------------------------


def test_delta_exponents_and_polynomial():
    # j-th denominator factor: 1 - norm^(j(p-1)) u^(A_j)
    assert delta_exponents(CTX212, 1) == (1, 4)
    assert delta_exponents(CTX212, 2) == (2, 6)
    assert delta_exponents(CTX312, 2) == (4, 24)
    poly = delta_polynomial(CTX212, 2, 2)
    assert poly[0] == 1 and poly[6] == -4 and len(poly) == 7


def test_psi_frozen_polynomials():
    # depth 1 at p = 2: 1 - u^(A_1), independent of the norm
    for ctx in (CTX211, CTX221):
        for norm in (2, 4, 8):
            assert psi_polynomial(ctx, 1, norm) == (1, 0, -1)
    for ctx in (CTX212, CTX222):
        for norm in (2, 4, 8):
            assert psi_polynomial(ctx, 1, norm) == (1, 0, 0, 0, -1)
    assert psi_polynomial(CTX311, 1, 3) == (1, 0, 0, 0, 2, 0, -3)
    assert psi_polynomial(CTX212, 2, 2) == (1, 0, 0, 0, 1, 0, -4, 0, 0, 0, 2)
    assert psi_polynomial(CTX212, 2, 4) == (1, 0, 0, 0, 5, 0, -10, 0, 0, 0, 4)


def test_psi_identity_declared_grid():
    # (p, r) in {(2,1),(3,1),(2,2),(3,2),(2,3)}, norms from {2,3,4,8,9}
    grid = ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))
    norms = {2: (2, 4, 8), 3: (3, 9)}
    for p, r in grid:
        ctx = make_context(p, 1, r)
        for f in range(1, r + 1):
            for norm in norms[p]:
                assert psi_polynomial(ctx, f, norm) == \
                    psi_closed_form(ctx, f, norm), (p, r, f, norm)


def test_psi_trailing_zero_window():
    # the defining series of psi terminates: a full denominator-degree
    # window of zeros past the computed polynomial
    for ctx in (CTX212, CTX312):
        for f in range(1, ctx.r + 1):
            norm = ctx.q
            den_deg = sum(delta_exponents(ctx, j)[1] for j in range(1, f + 1))
            psi = psi_polynomial(ctx, f, norm)
            window = euler_factor_series(ctx, f, norm, len(psi) + den_deg)
            for j in range(1, f + 1):
                window = window * TruncatedSeries(
                    delta_polynomial(ctx, j, norm), window.truncation)
            coeffs = window.coefficients()
            assert coeffs[:len(psi)] == psi
            assert all(c == 0 for c in coeffs[len(psi):])


@pytest.mark.parametrize("pnr", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 1, 3),
                                 (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2)],
                         ids=lambda pnr: "".join(map(str, pnr)))
def test_euler_factor_series_matches_the_sum_over_every_exponent(pnr):
    # euler_factor_series sums only the exponents of factor_support; the
    # plain sum over every exponent, with no skip, must give the same
    # series at every depth and at norms p, p^2, p^3, out to twice D_r
    ctx = make_context(*pnr)
    top = 2 * sum(delta_exponents(ctx, j)[1] for j in range(1, ctx.r + 1))
    for f in range(ctx.r + 1):
        for norm in (ctx.p, ctx.p ** 2, ctx.p ** 3):
            want = tuple(factor_coefficient(ctx, f, m, norm)
                         for m in range(top + 1))
            assert euler_factor_series(ctx, f, norm, top).nums == want, (f, norm)


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def _dense_add(a, b):
    return ptrim(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


_MIXED_POLYS = st.lists(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6),
                                  st.fractions(min_value=-9, max_value=9,
                                               max_denominator=12)),
                        max_size=12).map(tuple)


@settings(max_examples=200, deadline=None)
@given(_MIXED_POLYS, _MIXED_POLYS)
@example((), ())
@example((), (1, 2))
@example((0, 0), (3,))
@example((1,) + (0,) * 6 + (-49,), (1, 0, 0, -7))
@example((Fraction(1, 2), 0, 0), (0, 0, Fraction(-2, 3), 0))
def test_sparse_kernels_match_dense_reference(a, b):
    # poly_mul and poly_add walk only the nonzero terms: the same values as
    # the dense sums, zero entries and empty operands included, and int
    # operands still give ints
    for x, y in ((a, b), (b, a)):
        assert poly_mul(x, y) == _dense_mul(x, y)
        assert poly_add(x, y) == _dense_add(x, y)
    if all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in poly_mul(a, b) + poly_add(a, b))


def test_euler_factor_norm_four_anchor():
    # r = 1, p = 2 at a norm-4 place: conductor-c lines number 3 * 4^(c/2-1),
    # pinned at c = 2 by the brute-force count over the degree-2 place
    series = euler_factor_series(CTX211, 1, 4, 6)
    assert series.coefficients() == (1, 0, 3, 0, 12, 0, 48)
    # and the generating function is (1 - u^2) / (1 - 4 u^2)
    check = series * TruncatedSeries((1, 0, -4), 6)
    assert check.coefficients() == (1, 0, -1, 0, 0, 0, 0)


def test_nested_geometric_closed_form():
    assert nested_geometric_check((-1,), 30)
    assert nested_geometric_check((-2, -1), 14)
    assert nested_geometric_check((-1, -3, -2), 10)
    # D = 6: both sides are series in z = x^(-1/6)
    assert nested_geometric_check((Fraction(-1, 2), Fraction(-1, 3)), 12)
    # a positive alpha whose prefixes stay negative
    assert nested_geometric_check((-3, 1), 12)
    with pytest.raises(ValueError):
        nested_geometric_check((1, -3), 5)    # divergent prefix
    with pytest.raises(ValueError):
        nested_geometric_check((-2, 2), 5)    # zero prefix
    with pytest.raises(ValueError):
        nested_geometric_check((), 5)


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-4, 3), st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(_SMALL_FRACTIONS, min_size=1, max_size=3).filter(
    lambda alphas: max(itertools.accumulate(alphas)) < 0))
def test_nested_geometric_random(alphas):
    assert nested_geometric_check(tuple(alphas), 10)


# ---------------------------------------------------------------------------
# local rational form
# ---------------------------------------------------------------------------


def test_local_rational_matches_direct_series():
    for ctx in GRID:
        rational = local_rational(ctx)
        direct = local_direct_series(ctx, 40)
        assert rational.series(40).coefficients() == direct.coefficients()


def _schoolbook(a, b):
    m = min(a.truncation, b.truncation)
    out = [0] * (m + 1)
    for i in range(m + 1):
        for j in range(m + 1 - i):
            out[i + j] += a.coefficient(i) * b.coefficient(j)
    return TruncatedSeries(out, m)


@st.composite
def _series(draw, max_truncation=9):
    """A truncated series of ints with a random t-valuation."""
    truncation = draw(st.integers(0, max_truncation))
    valuation = draw(st.integers(0, 3))
    body = draw(st.lists(st.integers(-5, 5), max_size=truncation + 1))
    coeffs = [0] * valuation + body
    return TruncatedSeries(coeffs[:truncation + 1], truncation)


@settings(max_examples=80, deadline=None)
@given(_series(), _series())
def test_product_matches_schoolbook(a, b):
    assert a * b == _schoolbook(a, b) == b * a


@settings(max_examples=80, deadline=None)
@given(_series(), st.integers(0, 6))
@example(TruncatedSeries((1, 2, -1, 0, 3), 4), 5)
@example(TruncatedSeries((-2, 0, 3), 2), 4)                 # a_0 not +-1
@example(TruncatedSeries((0, 0, 2, 1, 0, 1), 5), 2)         # shifted
@example(TruncatedSeries((0, 0, 1), 2), 2)                  # shifted past M
@example(TruncatedSeries((0, 3, 1), 2), 0)                  # exponent 0
@example(TruncatedSeries((), 3), 3)                         # zero series
def test_power_matches_repeated_product(a, n):
    expected = TruncatedSeries((1,), a.truncation)
    for _ in range(n):
        expected = _schoolbook(expected, a)
    assert a ** n == expected


@st.composite
def _sparse_series(draw, max_truncation=24):
    """A series with nonzero terms only at multiples of a step d, as a
    factor spread out to t^d: constant term 1, -1, 0 or another value,
    coefficients up to +-2^200, now and then the all-zero series."""
    truncation = draw(st.integers(0, max_truncation))
    if draw(st.integers(0, 9)) == 0:
        return TruncatedSeries((), truncation)
    step = draw(st.integers(1, 6))
    big = st.integers(-2 ** 200, 2 ** 200)
    coeffs = [0] * (truncation + 1)
    coeffs[0] = draw(st.sampled_from((1, -1, 0)) | big)
    for k in range(step, truncation + 1, step):
        coeffs[k] = draw(st.just(0) | big)
    return TruncatedSeries(coeffs, truncation)


@settings(max_examples=120, deadline=None)
@given(_sparse_series(), _sparse_series() | _series(max_truncation=24))
@example(TruncatedSeries((), 5), TruncatedSeries((1, 2), 3))       # zero
@example(TruncatedSeries((1,), 6), TruncatedSeries((3, 0, 5), 4))  # only 1
@example(TruncatedSeries((1, 0, 0, 7), 9), TruncatedSeries((-1, 2, 0, 4), 9))
def test_sparse_product_matches_schoolbook(a, b):
    # either operand may be the sparser one, which the product walks outside
    assert a * b == _schoolbook(a, b)
    assert b * a == _schoolbook(b, a)


@settings(max_examples=80, deadline=None)
@given(_sparse_series(max_truncation=12), st.integers(0, 5))
@example(TruncatedSeries((), 4), 3)
@example(TruncatedSeries((1, 0, 2 ** 200), 6), 5)
def test_sparse_power_matches_repeated_product(a, n):
    expected = TruncatedSeries((1,), a.truncation)
    for _ in range(n):
        expected = _schoolbook(expected, a)
    assert a ** n == expected


def test_power_with_place_count_sized_exponent():
    # (1 + u)^n for n near the number of degree-70 places of F_2(t)
    n = 2 ** 70 // 70
    powered = TruncatedSeries((1, 1), 5) ** n
    expected, binom = [], 1
    for k in range(6):
        expected.append(binom)
        binom = binom * (n - k) // (k + 1)
    assert powered.coefficients() == tuple(expected)


def test_local_direct_series_rejects_a_non_count(monkeypatch):
    # one depth-r coefficient off by one adds e_r = 2/3 to a count
    ctx, honest = make_context(2, 1, 2), dirichlet.euler_factor_series

    def perturbed(ctx, f, norm, truncation):
        series = honest(ctx, f, norm, truncation)
        if f < ctx.r:
            return series
        nums = list(series.nums)
        nums[4] += 1
        return TruncatedSeries._from_ints(nums)

    assert local_direct_series(ctx, 8).coefficient(4) == 1
    monkeypatch.setattr(dirichlet, "euler_factor_series", perturbed)
    with pytest.raises(InvariantViolation):
        local_direct_series(ctx, 8)


def _inflated(coeffs, d, truncation):
    """u -> t^d on a coefficient list in u, cut at t^truncation."""
    spread = [0] * (d * len(coeffs))
    spread[::d] = coeffs
    return TruncatedSeries(spread[:truncation + 1], truncation)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((CTX211, CTX311)), _series(), st.integers(1, 8),
       st.integers(0, 40), _series(max_truncation=40))
# d > keep / 2: the spread factor is 1 + c t^d or 1 alone, where the
# product only copies the running series and adds one shifted term
@example(CTX211, TruncatedSeries((1, 3, 1), 2), 5, 8, TruncatedSeries((2, 1, 0, 4), 12))
@example(CTX311, TruncatedSeries((1, -2), 1), 7, 6, TruncatedSeries((5, 0, 1), 9))
def test_inflate_and_truncate_match_coefficient_lists(ctx, a, d, keep, b):
    # powered_place_factor against the factor powered by repeated
    # products on plain lists, then spread out to t^d and cut; then its
    # product with a running series, as global_factor_series takes it
    coeffs = a.coefficients()
    powered = [1] + [0] * a.truncation
    for _ in range(place_count(ctx, d)):
        powered = [sum(powered[i] * coeffs[k - i] for i in range(k + 1))
                   for k in range(len(coeffs))]
    keep = min(keep, d * len(coeffs) - 1)  # the horizon u^M pins t^(d(M+1)-1)
    got = powered_place_factor(ctx, d, a, keep)
    assert got.truncation == keep
    assert got == _inflated(powered, d, keep)
    assert got * b == _schoolbook(got, b) == b * got


def test_local_rational_anchor_2_1_1():
    red = local_reduced(CTX211)
    assert red.num == (1,)
    assert red.den == (1, 0, -2)
    assert red.series(6).coefficients() == (1, 0, 2, 0, 4, 0, 8)


def test_local_transient_zero_3_1_2():
    # the only admissible chain at exponent 24 is the equal pair (3,3),
    # which dies at q = p; later exponents repopulate
    coeffs = local_rational(CTX312).series(40).coefficients()
    assert coeffs[12] == 1
    assert coeffs[24] == 0
    assert coeffs[36] == 108
    nonzero = [m for m, c in enumerate(coeffs) if c != 0]
    assert nonzero == [12, 18, 22, 30, 34, 36, 40]


# ---------------------------------------------------------------------------
# global Euler products
# ---------------------------------------------------------------------------


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_psi_closed_form_digest():
    # 330 polynomials, including the degenerate norms 0 and 1 and the
    # foreign norm 7; the digest was recorded on the per-theta assembly
    rows = [[str(c) for c in psi_closed_form(make_context(p, 1, r), f, norm)]
            for p, r_max in ((2, 5), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1))
            for r in range(1, r_max + 1) for f in range(r + 1)
            for norm in (p, p * p, p ** 3, 1, 0, 7)]
    assert _digest(rows) == \
        "d9f6c75e838673f4f9b8a3d277e6196d90e2781c0d333e2d797be27e0475383a"


def test_local_rational_digest():
    # numerator and denominator as assembled, before any reduction
    rows = []
    for pnr in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 1),
                (3, 1, 2), (3, 1, 3), (5, 1, 1), (5, 1, 2), (7, 1, 1),
                (7, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                (2, 3, 2)):
        rat = local_rational(make_context(*pnr))
        rows.append([[str(c) for c in rat.num], [str(c) for c in rat.den]])
    assert _digest(rows) == \
        "4c8029b2a6aff525f92d99b3584524e1622a8c7bf9cc98e349ea723f1f635369"


def test_global_dirichlet_digest():
    # the small truncations leave out zeta factors of degree A_j > m
    rows = [[str(c) for c in global_dirichlet(make_context(*pnr), m).coefficients()]
            for pnr in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2),
                        (5, 1, 1), (5, 1, 2), (2, 2, 1), (2, 2, 2), (7, 1, 1))
            for m in (0, 1, 5, 30, 90)]
    assert _digest(rows) == \
        "4dfa3aef11bf8a6b2ff66573eab96881367c53dd5f9b56ca50c36177cee5372a"


def test_global_zeta_part_skips_factors_past_the_truncation(monkeypatch):
    # (2,1,2) has A_1 = 4 and A_2 = 6: at truncation 5 only the first zeta
    # factor reaches the series, and at 3 neither does
    degrees = []
    real = dirichlet.zeta_shift

    def recording(ctx, a, b):
        degrees.append(a)
        return real(ctx, a, b)

    monkeypatch.setattr(dirichlet, "zeta_shift", recording)
    for truncation, expected in ((3, []), (5, [4]), (6, [4, 6])):
        degrees.clear()
        global_factor_series(CTX212, 2, truncation)
        assert degrees == expected, truncation
    # at p = 2^31 - 1 every factor has degree about p^3 and is skipped
    huge = make_context(2 ** 31 - 1, 1, 2)
    degrees.clear()
    assert global_dirichlet(huge, 3).coefficients() == (0, 0, 0, 0)
    assert degrees == []


def test_pole_degree_cap():
    # D_f = A_1 + ... + A_f; (127,1,1) has D = 16002, the largest rank-one
    # pole degree under the cap, and (131,1,1) has 17030
    assert dirichlet._pole_degree(make_context(127, 1, 1), 1) == 16002
    assert dirichlet._pole_degree(make_context(11, 1, 2), 2) == 2530
    for ctx, f in ((make_context(131, 1, 1), 1), (make_context(2, 1, 10), 10),
                   (make_context(2 ** 31 - 1, 1, 1), 1)):
        with pytest.raises(ValueError, match="pole degree"):
            psi_polynomial(ctx, f, ctx.q)
        with pytest.raises(ValueError, match="pole degree"):
            delta_polynomial(ctx, f, ctx.q)
        with pytest.raises(ValueError, match="pole degree"):
            local_rational(ctx)


def test_truncation_cap_refuses_before_any_list_is_sized(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a series was sized past the truncation cap")

    rational = local_rational(CTX211)  # its numerator expands a series
    zeta = zeta_shift(CTX211, 1, 0)
    monkeypatch.setattr(TruncatedSeries, "__init__", refuse)
    top = dirichlet._MAX_TRUNCATION + 1
    for build in (lambda: global_dirichlet(CTX211, top),
                  lambda: zeta.series(top),
                  lambda: rational.coefficient(top)):
        with pytest.raises(ValueError, match=f"series truncation {top} exceeds"):
            build()


def test_global_dirichlet_anchor_2_1_1():
    coeffs = global_dirichlet(CTX211, 8).coefficients()
    assert coeffs == (1, 0, 6, 0, 24, 0, 96, 0, 384)


def test_global_dirichlet_anchor_2_1_2():
    coeffs = global_dirichlet(CTX212, 10).coefficients()
    assert coeffs == (0, 0, 0, 0, 3, 0, 0, 0, 24, 0, 12)


def test_global_dirichlet_first_nonzero_entries():
    cases = {
        CTX222: ((4, 15), (6, 20), (8, 600), (10, 1080)),
        CTX312: ((12, 4), (18, 12), (22, 36), (24, 78)),
        CTX213: ((16, 3), (20, 3), (24, 34), (28, 72)),
    }
    for ctx, pairs in cases.items():
        top = max(m for m, _ in pairs)
        coeffs = global_dirichlet(ctx, top).coefficients()
        seen = [(m, int(c)) for m, c in enumerate(coeffs) if c != 0]
        assert seen[:len(pairs)] == list(pairs)


def test_global_integrality_grid():
    for ctx in GRID:
        top = 40 if ctx.q == 2 else 24
        coeffs = global_dirichlet(ctx, top).coefficients()
        for m, c in enumerate(coeffs):
            assert type(c) is int and c >= 0, (ctx.p, ctx.n, ctx.r, m, c)
        assert coeffs[0] == (1 if ctx.r == 1 else 0)


def test_global_factor_series_matches_per_place_product():
    # the zeta-factorised product against a product over the places one
    # by one; (2,1,2) at 24 reaches past 2 * sum(A_j) = 20
    for ctx, top in ((CTX211, 10), (CTX221, 6), (CTX212, 24), (CTX312, 14)):
        one = TruncatedSeries((1,), top)
        for f in range(ctx.r + 1):
            naive = one
            for d in range(1, top + 1):
                local = euler_factor_series(ctx, f, ctx.q ** d, top // d)
                local = _inflated(local.coefficients(), d, top)
                if local != one:
                    for _ in places(ctx, d):
                        naive = naive * local
            assert global_factor_series(ctx, f, top) == naive, (ctx, f)


def _per_degree_reference(ctx, f, truncation):
    """The Euler factor of each degree d, evaluated chain by chain out to
    u-degree truncation // d, powered to the number of degree-d places and
    inflated; no zeta factor and no psi-polynomial promise."""
    if f == 0 or truncation == 0:
        return TruncatedSeries((1,), truncation)
    norms = [ctx.q ** d for d in range(1, truncation + 1)]
    in_u = [[] for _ in norms]
    for m in range(truncation + 1):
        reach = truncation // m if m else truncation
        values = factor_coefficients(ctx, f, m, norms[:reach])
        for coeffs, value in zip(in_u, values):
            coeffs.append(value)
    result = TruncatedSeries((1,), truncation)
    for degree, coeffs in enumerate(in_u, start=1):
        powered = TruncatedSeries._from_ints(coeffs) ** place_count(ctx, degree)
        result = _inflated(powered.coefficients(), degree, truncation) * result
    return result


# truncations reach past 2 * sum(A_j) at f = r, where the engine trusts
# the psi-polynomial promise instead of checking it; at (5,1,2), (3,1,3)
# and (7,1,1) Psi_f is 1 + O(u^low) with low = 40, 36 and 12, so nearly
# every degree is 1 below the truncation and skipped
_REFERENCE_TOPS = {CTX211: 80, CTX221: 80, CTX311: 80, CTX212: 80, CTX222: 80,
                   CTX312: 100, CTX213: 100, CTX512: 120, CTX313: 120,
                   CTX711: 120}


@st.composite
def _context_and_truncation(draw):
    ctx = draw(st.sampled_from(list(_REFERENCE_TOPS)))
    return ctx, draw(st.integers(0, _REFERENCE_TOPS[ctx]))


@settings(max_examples=30, deadline=None)
@given(_context_and_truncation())
@example((CTX212, 80))
@example((CTX312, 100))
@example((CTX213, 100))
@example((CTX512, 120))
@example((CTX313, 120))
@example((CTX711, 120))
def test_global_factor_series_matches_per_degree_reference(case):
    ctx, truncation = case
    for f in range(ctx.r + 1):
        assert (global_factor_series(ctx, f, truncation)
                == _per_degree_reference(ctx, f, truncation)), (ctx, f, truncation)


def test_global_factor_series_rejects_a_non_polynomial_numerator(monkeypatch):
    # (2,1,2) f = 2: sum(A_j) = 10, so exponent 16 lies in the checked
    # window (10, 20] and on the lattice of even exponents that is summed;
    # one coefficient off by one at norm 2 must be caught
    honest = dirichlet.factor_coefficients

    def perturbed(ctx, f, exponent, norms):
        values = honest(ctx, f, exponent, norms)
        if exponent == 16:
            values[0] += 1
        return values

    global_factor_series(CTX212, 2, 60)
    monkeypatch.setattr(dirichlet, "factor_coefficients", perturbed)
    with pytest.raises(InvariantViolation):
        global_factor_series(CTX212, 2, 60)


def test_global_factor_series_stops_chains_at_twice_psi_degree(monkeypatch):
    # (2,1,2): sum(A_j) is 4 at f = 1 and 10 at f = 2
    honest, seen = dirichlet.factor_coefficients, []

    def spy(ctx, f, exponent, norms):
        seen.append(exponent)
        return honest(ctx, f, exponent, norms)

    monkeypatch.setattr(dirichlet, "factor_coefficients", spy)
    for f, top in ((1, 8), (2, 20)):
        seen.clear()
        global_factor_series(CTX212, f, 200)
        assert max(seen) == top, f


def test_global_product_powers_only_the_degrees_it_reaches(monkeypatch):
    # Psi_f(N, u) = 1 + O(u^low), so a degree d with d * low > M is 1 below
    # t^(M + 1) and is never powered.  (2,1,2) has low = 4 at both depths
    # (Psi_1 = 1 - u^4 at norm 2), (2,1,1) has low = 2, and at p = 2^31 - 1
    # low is about p^3, so no degree reaches t^3
    honest, powered = dirichlet.powered_place_factor, []

    def spy(ctx, degree, factor, truncation):
        powered.append(degree)
        return honest(ctx, degree, factor, truncation)

    monkeypatch.setattr(dirichlet, "powered_place_factor", spy)
    huge = make_context(2 ** 31 - 1, 1, 2)
    for ctx, f, truncation, last in ((CTX212, 1, 200, 50), (CTX212, 2, 200, 50),
                                     (CTX211, 1, 200, 100), (huge, 1, 3, 0),
                                     (huge, 2, 3, 0)):
        powered.clear()
        got = global_factor_series(ctx, f, truncation)
        assert powered == list(range(1, last + 1)), (ctx, f)
        assert got == _per_degree_reference(ctx, f, truncation), (ctx, f)


def test_global_product_evaluates_each_exponent_where_it_reaches(monkeypatch):
    # exponent 0's coefficient is 1 at every norm, and exponent m is read at
    # the norms q^d with d * m <= M only.  At (2^31 - 1, 1, 2) no exponent
    # from 1 to M has a chain, so no column and no power of q is built
    honest, seen = dirichlet.factor_coefficients, []

    def spy(ctx, f, exponent, norms):
        seen.append((exponent, len(norms)))
        return honest(ctx, f, exponent, norms)

    monkeypatch.setattr(dirichlet, "factor_coefficients", spy)
    for ctx, truncation in ((CTX211, 40), (CTX212, 200), (CTX221, 30),
                            (CTX311, 60), (CTX213, 100), (CTX512, 90)):
        for f in range(1, ctx.r + 1):
            seen.clear()
            global_factor_series(ctx, f, truncation)
            assert seen, (ctx, f)
            assert all(0 < e and k <= truncation // e for e, k in seen), (ctx, f)
    seen.clear()
    series = global_dirichlet(make_context(2 ** 31 - 1, 1, 2), 2 ** 15)
    assert (seen, series.nums) == ([], (0,) * (2 ** 15 + 1))


def test_global_factor_multiplicativity_spot():
    # the f-th global factor restricted to one place power matches the
    # per-place series; checked through a tiny product by hand at f = 1
    f1 = global_factor_series(CTX211, 1, 4)
    # c_2 of the f=1 factor: 3 places of degree 1, coefficient 1 each,
    # plus nothing else at degree 2: binomial expansion gives 3
    assert f1.coefficient(0) == 1
    assert f1.coefficient(2) == 3


def test_zeta_helpers():
    # zeta of F_q(t) at shift (a, b): 1/((1 - q^b t^a)(1 - q^(b+1) t^a))
    z = zeta_shift(CTX211, 2, 1)
    assert z.den == tuple(poly_mul((1, 0, -2), (1, 0, -4)))
    # the plain zeta counts effective divisors: (q^(m+1) - 1)/(q - 1)
    coeffs = zeta_shift(CTX211, 1, 0).series(5).coefficients()
    assert list(coeffs) == [(2 ** (m + 1) - 1) for m in range(6)]
    coeffs3 = zeta_shift(CTX311, 1, 0).series(4).coefficients()
    assert list(coeffs3) == [(3 ** (m + 1) - 1) // 2 for m in range(5)]


def test_lambda_inverse_cases():
    assert lambda_inverse(CTX211) == tuple(poly_mul((1, 0, -2), (1, 0, -4)))
    # p = 3, r = 1: four factors from zeta(2s-1) zeta(3s-2) wait -- the
    # definition takes ell = 1, 2: zeta((l+1)(p-1)s - l) = zeta(4s-1), zeta(6s-2)
    expected31 = (1,)
    for a, b in ((4, 1), (6, 2)):
        for shift in (b, b + 1):
            factor = [0] * (a + 1)
            factor[0] = 1
            factor[a] = -(3 ** shift)
            expected31 = poly_mul(expected31, tuple(factor))
    assert lambda_inverse(CTX311) == tuple(expected31)
    # r = p = 2: zeta(6s-2) zeta(4s-1)^3
    expected22 = (1,)
    pieces = [(6, 2)] + [(4, 1)] * 3
    for a, b in pieces:
        for shift in (b, b + 1):
            factor = [0] * (a + 1)
            factor[0] = 1
            factor[a] = -(2 ** shift)
            expected22 = poly_mul(expected22, tuple(factor))
    assert lambda_inverse(CTX212) == tuple(expected22)
    # generic case p = 3, r = 2: zeta(24s-4) alone
    expected32 = poly_mul((1,) + (0,) * 23 + (-3 ** 4,),
                          (1,) + (0,) * 23 + (-3 ** 5,))
    assert lambda_inverse(CTX312) == tuple(expected32)


def test_holomorphy_radius_easy_case():
    # for (2,1,1) the reduced series is a polynomial: the bound holds
    assert holomorphy_radius_check(CTX211, 30)


def test_serialization_roundtrip():
    series = global_dirichlet(CTX212, 12)
    text = series_to_json(CTX212, series)
    payload = json.loads(text)
    assert payload["variable"] == "q^-s"
    assert payload["coefficients"][4] == "3"
    assert (payload["p"], payload["n"], payload["r"]) == (2, 1, 2)
    # exactly truncation + 1 decimal strings of the exact integers
    assert payload["truncation"] == 12
    assert all(isinstance(c, str) for c in payload["coefficients"])
    assert [int(c) for c in payload["coefficients"]] == \
        list(series.coefficients())


# ---------------------------------------------------------------------------
# partial fractions at the rightmost local pole circle
# ---------------------------------------------------------------------------


def _r_values(head) -> tuple:
    """R_k = H_k / h from the split's (H, h), which must be ints over one
    positive denominator in lowest terms."""
    ints, den = head
    assert {type(x) for x in (*ints, den)} == {int}
    assert den > 0 and math.gcd(den, *ints) == 1
    return tuple(Fraction(x, den) for x in ints)


def test_rightmost_split_frozen():
    _, head, rest = rightmost_split(make_context(2, 1, 2))
    assert head == ((1, 0, 2, 0, 4, 0), 2)
    assert _r_values(head) == (Fraction(1, 2), 0, 1, 0, 2, 0)
    assert rest.den == delta_polynomial(make_context(2, 1, 2), 1, 2)
    # class 8 has its first nonzero coefficient only at m = 248
    head = _r_values(rightmost_split(make_context(5, 1, 2))[1])
    assert len(head) == 120 and head[8] == Fraction(12621, 978127504)


def test_rightmost_split_of_a_numerator_divisible_by_delta_r(monkeypatch):
    """R = 0: (1 + u) delta_2 / (delta_1 delta_2) over 3 splits to the
    zero head over 1 and S = (1 + u) / delta_1 over 3, and _fold of an
    empty numerator keeps top = 0, so h stays an int."""
    ctx = CTX212
    shift, period = delta_exponents(ctx, 2)
    zero_head = RationalSeries(poly_mul(delta_polynomial(ctx, 2, 2), (1, 1)),
                               local_rational(ctx).den, 3)
    monkeypatch.setattr(dirichlet, "local_rational", lambda _: zero_head)
    _, head, rest = dirichlet.rightmost_split.__wrapped__(ctx)
    assert head == ((0,) * 6, 1)
    assert (rest.ints, rest.den, rest.unit) == \
        ((1, 1), delta_polynomial(ctx, 1, 2), 3)
    assert dirichlet._fold((), 2 ** shift, period) == ([0] * period, 0)


@pytest.mark.parametrize("spec", [(2, 1, 1), (3, 1, 1), (2, 1, 2),
                                  (2, 2, 2), (3, 1, 2), (2, 1, 3)])
def test_rightmost_split_identity(spec):
    """c_m = R_(m mod A) c^(m div A) + [S/D']_m, with c = q^(a_r), against
    the series summed term by term."""
    ctx = make_context(*spec)
    _, head, rest = rightmost_split(ctx)
    head = _r_values(head)
    shift, period = delta_exponents(ctx, ctx.r)
    assert len(head) == period and min(head) >= 0
    direct = local_direct_series(ctx, 3 * period)
    for m in range(3 * period + 1):
        i, k = divmod(m, period)
        assert direct.coefficient(m) == \
            head[k] * ctx.q ** (shift * i) + rest.coefficient(m), (spec, m)


def _fraction_split(ctx):
    """rightmost_split folded one Fraction at a time: u^(Ai+k) -> c^(-i) u^k
    term by term, and each delta_j inverted by its cycle over 1 - lambda_j;
    the reference for the integer folds."""
    rational, q = local_rational(ctx), ctx.q
    shift, period = delta_exponents(ctx, ctx.r)
    c = q ** shift

    def fold(terms) -> list:
        out = [Fraction(0)] * period
        for m, coeff in terms:
            out[m % period] += Fraction(coeff, c ** (m // period))
        return out

    head, rest_den = fold(enumerate(rational.num)), (1,)
    for j in range(1, ctx.r):
        a, big_a = delta_exponents(ctx, j)
        cycle = period // math.gcd(big_a, period)
        lam = Fraction(q ** (a * cycle), c ** (big_a * cycle // period))
        head = fold((k + big_a * t, coeff * q ** (a * t) / (1 - lam))
                    for t in range(cycle) for k, coeff in enumerate(head))
        rest_den = poly_mul(rest_den, delta_polynomial(ctx, j, q))
    rest = list(poly_add(rational.num, poly_scale(poly_mul(rest_den, head), -1)))
    for m in range(period, len(rest)):
        rest[m] += c * rest[m - period]
    assert not any(rest[-period:])
    return rational, tuple(head), tuple(map(Fraction, ptrim(rest[:-period]))), rest_den


@pytest.mark.parametrize("spec", [
    *((2, 1, r) for r in range(1, 7)), *((3, 1, r) for r in range(1, 5)),
    *((5, 1, r) for r in range(1, 4)), (7, 1, 2), (2, 2, 2), (3, 2, 2),
    (13, 1, 1)])
def test_rightmost_split_matches_fraction_fold(spec):
    ctx = make_context(*spec)
    rational, head, rest = rightmost_split(ctx)
    expected = _fraction_split(ctx)
    got = (rational.num, rational.den, _r_values(head), rest.num, rest.den)
    want = (expected[0].num, expected[0].den, *expected[1:])
    assert got == want
    assert [[type(c) for c in poly] for poly in got] == \
        [[type(c) for c in poly] for poly in want]


# ---------------------------------------------------------------------------
# coefficient types: int for integer data, exact everywhere
# ---------------------------------------------------------------------------


def _types(*polys) -> set:
    return {type(c) for poly in polys for c in poly}


def test_no_float_leaves_dirichlet():
    """Delta factors, both Euler numerators, the zeta-factor polynomial
    and the split's R = H/h keep int coefficients; what the Delsarte
    weights reach is int or Fraction, never float."""
    from ascount.cli import _PSI_GRID
    for p, r_max in _PSI_GRID:
        for r in range(1, r_max + 1):
            ctx = make_context(p, 1, r)
            ints = [lambda_inverse(ctx)]
            for f in range(1, r + 1):
                for norm in (p, p * p, p ** 3):
                    ints += [delta_polynomial(ctx, f, norm),
                             psi_polynomial(ctx, f, norm),
                             psi_closed_form(ctx, f, norm)]
            _, (head, hden), rest = rightmost_split(ctx)
            ints += [head, (hden,)]
            assert _types(*ints) == {int}, ctx
            rational = local_rational(ctx)
            assert _types(rational.num, rational.den, rational.recurrence(),
                          rest.num, rest.den) <= {int, Fraction}, ctx
