"""Closed-form counts against brute-force enumeration and frozen anchors."""

import pytest

from ascount.counting import (
    counts_by_degree,
    discriminant_divisor,
    effective_divisors,
    enumerate_global,
    enumerate_local,
    factor_coefficient,
    factor_coefficients,
    global_count,
    global_count_by_degree,
    local_count,
    local_factor_coefficient,
)
from ascount.artin_schreier import line_reps, reduce_global
from ascount.fields import Divisor, INFINITY, finite_place, make_context

CTX211 = make_context(2, 1, 1)
CTX221 = make_context(2, 2, 1)
CTX311 = make_context(3, 1, 1)
CTX212 = make_context(2, 1, 2)
CTX222 = make_context(2, 2, 2)
CTX312 = make_context(3, 1, 2)

# nonzero entries of the exponent <= 12 local tallies, frozen from the
# subspace enumeration; every omitted exponent counts zero
LOCAL_TALLY = {
    CTX211: {0: 1, 2: 2, 4: 4, 6: 8, 8: 16, 10: 32, 12: 64},
    CTX221: {0: 1, 2: 6, 4: 24, 6: 96, 8: 384, 10: 1536, 12: 6144},
    CTX311: {0: 1, 4: 3, 6: 9, 10: 27, 12: 81},
    CTX212: {4: 1, 8: 2, 10: 4, 12: 4},
    CTX222: {4: 3, 6: 4, 8: 12, 10: 72, 12: 112},
    CTX312: {12: 1},
}


def test_local_closed_form_matches_frozen_tallies():
    for ctx, tally in LOCAL_TALLY.items():
        for e in range(13):
            assert local_count(ctx, e) == tally.get(e, 0), (ctx.p, ctx.n, ctx.r, e)


def test_local_enumeration_matches_closed_form():
    # the full grid is the acceptance suite's job; spot two contexts here
    for ctx, cap in ((CTX211, 10), (CTX212, 12)):
        brute = enumerate_local(ctx, cap)
        for e in range(cap + 1):
            assert brute[e] == local_count(ctx, e)


def test_local_anchor_values():
    assert local_count(CTX211, 0) == 1
    assert local_count(CTX211, 2) == 2
    assert local_count(CTX212, 6) == 0
    assert local_count(CTX222, 6) == 4


def test_local_count_never_at_impossible_exponents():
    # odd exponents are impossible at p = 2; 1 mod p conductors never occur
    for e in range(1, 13, 2):
        assert local_count(CTX211, e) == 0
        assert local_count(CTX212, e) == 0
    assert local_count(CTX311, 2) == 0     # c = 1 cannot happen
    assert local_count(CTX311, 8) == 0     # c = 4 = 1 mod 3 cannot happen


def test_factor_coefficient_zero_exponent():
    for ctx in (CTX211, CTX212, CTX312):
        for f in range(ctx.r + 1):
            assert local_factor_coefficient(ctx, f, 0) == 1


def test_factor_coefficients_match_per_norm():
    for ctx in (CTX211, CTX221, CTX212, CTX312):
        norms = [ctx.q ** d for d in range(1, 5)]
        for f in range(ctx.r + 1):
            for exponent in range(0, 30):
                assert factor_coefficients(ctx, f, exponent, norms) == \
                    [factor_coefficient(ctx, f, exponent, n) for n in norms]
    assert factor_coefficients(CTX212, 2, 8, []) == []


def test_global_anchors_degree_counts():
    expected = [1, 0, 6, 0, 24, 0, 96, 0, 384]
    for degree, want in enumerate(expected):
        assert global_count_by_degree(CTX211, degree) == want
    assert [global_count_by_degree(CTX212, d) for d in range(7)] == \
        [0, 0, 0, 0, 3, 0, 0]


def test_global_enumeration_matches_closed_form():
    brute = counts_by_degree(enumerate_global(CTX211, 6, check=True))
    for d in range(7):
        assert brute.get(d, 0) == global_count_by_degree(CTX211, d)
    brute2 = counts_by_degree(enumerate_global(CTX212, 4, check=True))
    assert brute2.get(4, 0) == 3


def test_global_count_single_divisors():
    t = finite_place(CTX211, [0, 1])
    assert global_count(CTX211, Divisor([(t, 2)])) == 2
    assert global_count(CTX211, Divisor([(INFINITY, 2)])) == 2
    # exponent 2 is impossible at p = 3 (conductor would be 1)
    t3 = finite_place(CTX311, [0, 1])
    assert global_count(CTX311, Divisor([(t3, 2)])) == 0
    # local factors are 1 per exponent-2 place; the Delsarte weight 2 is
    # applied once, not per place (checked against the degree-4 total:
    # 3 places * 4 + 3 pairs * 2 + one norm-4 place * 6 = 24)
    both = Divisor([(t, 2), (INFINITY, 2)])
    assert global_count(CTX211, both) == 2
    quad = finite_place(CTX211, [1, 1, 1])
    assert global_count(CTX211, Divisor([(quad, 2)])) == 6
    assert global_count(CTX211, Divisor([(t, 4)])) == 4


def test_global_count_unit_divisor():
    # r = 1: the constant-field extension is the single unramified one
    assert global_count(CTX211, Divisor.one()) == 1
    assert global_count(CTX311, Divisor.one()) == 1
    # r = 2: no unramified C_p^2-extension of a rational function field
    assert global_count(CTX212, Divisor.one()) == 0


def test_global_norm4_place_pair():
    # one norm-4 place with exponent 2 on each side over F_4
    g_plus_t = finite_place(CTX221, [2, 1])
    d = Divisor([(g_plus_t, 2), (INFINITY, 2)])
    assert global_count(CTX221, d) == 18      # (4-1)^2 * 2 weights


def test_effective_divisor_census():
    # (q^(m+1) - 1)/(q - 1) effective divisors of degree m
    assert len(effective_divisors(CTX211, 0)) == 1
    assert len(effective_divisors(CTX211, 3)) == 15
    assert len(effective_divisors(CTX311, 2)) == 13
    # over 1000 places of degree <= 8: a sweep recursing per place overflows
    assert len(effective_divisors(CTX311, 8)) == 9841


def test_discriminant_divisor_consistency():
    u1 = reduce_global(CTX212, [1], [0, 1])       # 1/t
    u2 = reduce_global(CTX212, [1], [1, 1])       # 1/(t+1)
    lines = line_reps(CTX212, [u1, u2])
    disc = discriminant_divisor(CTX212, lines)
    # at each place two of the three lines have conductor 2, one is
    # unramified: exponent (p-1) * (2+2+0) = 4 at t and at t+1
    degrees = {str(place): e for place, e in disc.items()}
    assert degrees == {"t": 4, "t+1": 4}
    assert disc.degree() == 8


def test_enumerate_local_input_validation():
    with pytest.raises(ValueError):
        enumerate_local(CTX211, -1)
    with pytest.raises(ValueError):
        enumerate_global(CTX211, -2)
