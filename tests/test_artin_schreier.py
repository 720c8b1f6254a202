"""Reduced representatives, conductors, lines, and chains."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascount.artin_schreier import (
    GlobalRep,
    asc_at,
    chain_at_place,
    conductor_exponent,
    constant_reps,
    disc_exponent_via_lines,
    line_reps,
    make_rep,
    reduce_global,
    rep_add,
    rep_scale,
    rep_to_rational,
)
from ascount.errors import InvariantViolation
from ascount.fields import (
    INFINITY,
    finite_place,
    make_context,
    padd,
    pmul,
    ppow,
    psub,
)

CTX2 = make_context(2, 1, 1)
CTX3 = make_context(3, 1, 1)
CTX4 = make_context(2, 2, 1)
CTX2R2 = make_context(2, 1, 2)

T = finite_place(CTX2, [0, 1])
T1 = finite_place(CTX2, [1, 1])


def test_constant_reps():
    # F_q modulo the image of x -> x^p - x has p cosets
    assert constant_reps(CTX2) == (0, 1)
    assert constant_reps(CTX3) == (0, 1, 2)
    reps4 = constant_reps(CTX4)
    assert len(reps4) == 2 and reps4[0] == 0


def test_reduce_simple_pole():
    rep = reduce_global(CTX2, [1], [0, 1])          # 1/t
    assert rep.support() == (T,)
    assert asc_at(rep, T) == 1
    assert conductor_exponent(rep, T) == 2
    assert conductor_exponent(rep, T1) == 0
    assert rep.constant == 0


def test_reduce_cancels_p_divisible_indices():
    # 1/t^2 = (1/t)^2, so 1/t^2 is equivalent to 1/t over F_2
    assert reduce_global(CTX2, [1], [0, 0, 1]) == reduce_global(CTX2, [1], [0, 1])
    # 1/t^4 collapses all the way down
    assert reduce_global(CTX2, [1], [0, 0, 0, 0, 1]) == \
        reduce_global(CTX2, [1], [0, 1])


def test_reduce_polynomial_part_goes_to_infinity():
    rep = reduce_global(CTX2, [0, 0, 0, 1], [1])    # t^3
    assert rep.support() == (INFINITY,)
    assert asc_at(rep, INFINITY) == 3
    # t^2 is a p-th power: t^2 = (t)^2 - t + t, reduces to index 1
    rep2 = reduce_global(CTX2, [0, 0, 1], [1])
    assert asc_at(rep2, INFINITY) == 1


def test_reduce_constant():
    rep = reduce_global(CTX2, [1], [1])
    assert rep.constant == 1 and rep.parts == ()
    # over F_3 the image of wp on constants is {0}: all three survive
    assert reduce_global(CTX3, [2], [1]).constant == 2


def test_conductor_never_one_mod_p():
    # indices divisible by p are cancelled, so the top index is prime to p
    # and the conductor exponent is never 1 mod p (and never exactly 1)
    for num_code in range(1, 8):
        num = [int(b) for b in bin(num_code)[2:][::-1]]
        for den in ([0, 1], [0, 0, 1], [0, 1, 1], [1, 1, 1], [0, 0, 0, 1]):
            rep = reduce_global(CTX2, num, den)
            for place in rep.support():
                c = conductor_exponent(rep, place)
                assert c > 1 and c % 2 == 0


def test_make_rep_rejects_bad_indices():
    with pytest.raises(ValueError):
        make_rep(CTX2, 0, {T: {2: (1,)}})
    with pytest.raises(ValueError):
        make_rep(CTX2, 0, {T: {0: (1,)}})
    # zero coefficients are dropped silently
    rep = make_rep(CTX2, 0, {T: {1: (0,)}})
    assert rep.is_zero()


def test_rep_algebra():
    a = make_rep(CTX2, 0, {T: {1: (1,)}})
    b = make_rep(CTX2, 1, {T: {1: (1,)}, T1: {1: (1,)}})
    s = rep_add(CTX2, a, b)
    assert s.constant == 1
    assert asc_at(s, T) == -1          # the t-parts cancelled
    assert asc_at(s, T1) == 1
    assert rep_add(CTX2, a, a) == GlobalRep(0, ())
    assert rep_scale(CTX2, b, 0) == GlobalRep(0, ())
    assert rep_scale(CTX3, make_rep(CTX3, 1, {}), 2).constant == 2


def test_roundtrip_rational():
    cases = (
        (CTX2, make_rep(CTX2, 1, {T: {1: (1,)}, INFINITY: {3: (1,)}})),
        (CTX2, make_rep(CTX2, 0, {T1: {3: (1,), 1: (1,)}})),
        (CTX3, make_rep(CTX3, 2, {finite_place(CTX3, [0, 1]): {2: (2,)}})),
    )
    for ctx, rep in cases:
        num, den = rep_to_rational(ctx, rep)
        assert reduce_global(ctx, num, den) == rep


@pytest.mark.parametrize("n", [6, 8])
def test_reduce_irreducible_denominator_of_degree_7(n):
    # t^7+t+1 stays irreducible over F_(2^n) for n prime to 7; factoring it
    # must not list every irreducible of degree <= 3 over F_q
    ctx = make_context(2, n, 1)
    ctx.fmul(1, 1)                      # build the F_q tables untimed
    den = (1, 1, 0, 0, 0, 0, 0, 1)
    start = time.perf_counter()
    rep = reduce_global(ctx, (1,), den)
    num, den2 = rep_to_rational(ctx, rep)
    assert reduce_global(ctx, num, den2) == rep
    assert time.perf_counter() - start < 1.0
    assert rep.support() == (finite_place(ctx, den),)
    assert asc_at(rep, rep.support()[0]) == 1


@st.composite
def rational_functions(draw):
    num = draw(st.lists(st.integers(0, 1), min_size=1, max_size=5))
    den_choice = draw(st.sampled_from(
        ((0, 1), (1, 1), (0, 0, 1), (0, 1, 1), (1, 1, 1), (0, 0, 0, 1))))
    return num, list(den_choice)


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions())
def test_wp_invariance(fpair, gpair):
    """Adding g^p - g never changes the reduced representative."""
    (fn, fd), (gn, gd) = fpair, gpair
    ctx = CTX2
    # f + g^p - g = (fn gd^p + (gn^p - gn gd^(p-1)) fd) / (fd gd^p)
    gd_p = ppow(ctx, gd, ctx.p)
    wp_num = psub(ctx, ppow(ctx, gn, ctx.p),
                  pmul(ctx, gn, ppow(ctx, gd, ctx.p - 1)))
    num = padd(ctx, pmul(ctx, fn, gd_p), pmul(ctx, wp_num, fd))
    den = pmul(ctx, fd, gd_p)
    assert reduce_global(ctx, num, den) == reduce_global(ctx, fn, fd)


@settings(max_examples=40, deadline=None)
@given(rational_functions())
def test_reduction_idempotent(fpair):
    fn, fd = fpair
    rep = reduce_global(CTX2, fn, fd)
    num, den = rep_to_rational(CTX2, rep)
    assert reduce_global(CTX2, num, den) == rep


# Denominators over F_3 and over F_4 (codes 2 = g, 3 = g + 1 = g^2): powers
# of t up to t^3, products of distinct linear factors, the irreducible
# quadratics t^2 + 1 and t^2 + t + g, and a non-monic 2t.
DENOMINATORS = {
    3: ((0, 1), (2, 1), (0, 0, 1), (0, 0, 0, 1), (1, 0, 1), (0, 1, 1),
        (2, 0, 1), (0, 2)),
    4: ((0, 1), (2, 1), (0, 0, 1), (0, 0, 0, 1), (1, 0, 1), (2, 1, 1),
        (0, 3, 1), (0, 2)),
}


def draw_rational(data, ctx):
    num = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=4))
    return num, list(data.draw(st.sampled_from(DENOMINATORS[ctx.q])))


@pytest.mark.parametrize("ctx", [CTX3, CTX4], ids=["F3", "F4"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wp_invariance_odd_and_extension_fields(ctx, data):
    """Over F_3, and over F_4 where the inverse Frobenius is not the
    identity, adding g^p - g never changes the reduced representative."""
    (fn, fd), (gn, gd) = draw_rational(data, ctx), draw_rational(data, ctx)
    gd_p = ppow(ctx, gd, ctx.p)
    wp_num = psub(ctx, ppow(ctx, gn, ctx.p),
                  pmul(ctx, gn, ppow(ctx, gd, ctx.p - 1)))
    num = padd(ctx, pmul(ctx, fn, gd_p), pmul(ctx, wp_num, fd))
    den = pmul(ctx, fd, gd_p)
    assert reduce_global(ctx, num, den) == reduce_global(ctx, fn, fd)


@pytest.mark.parametrize("ctx", [CTX3, CTX4], ids=["F3", "F4"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduction_idempotent_odd_and_extension_fields(ctx, data):
    fn, fd = draw_rational(data, ctx)
    rep = reduce_global(ctx, fn, fd)
    num, den = rep_to_rational(ctx, rep)
    assert reduce_global(ctx, num, den) == rep


def test_line_reps_count_and_dependence():
    u1 = reduce_global(CTX2R2, [1], [0, 1])          # 1/t
    u2 = reduce_global(CTX2R2, [1], [0, 0, 0, 1])    # 1/t^3
    lines = line_reps(CTX2R2, [u1, u2])
    assert len(lines) == 3                           # (p^2-1)/(p-1)
    assert len(set(lines)) == 3
    with pytest.raises(ValueError):
        line_reps(CTX2R2, [u1, u1])
    with pytest.raises(ValueError):
        line_reps(CTX2R2, [u1, GlobalRep(0, ())])


def test_chain_at_place_block_structure():
    t_place = finite_place(CTX2R2, [0, 1])
    u1 = reduce_global(CTX2R2, [1], [0, 1])          # conductor 2
    u2 = reduce_global(CTX2R2, [1], [0, 0, 0, 1])    # conductor 4
    lines = line_reps(CTX2R2, [u1, u2])
    assert chain_at_place(CTX2R2, lines, t_place) == (4, 2)
    assert disc_exponent_via_lines(CTX2R2, lines, t_place) == 10
    # a single line still reads off its own chain
    assert chain_at_place(CTX2R2, [u1], t_place) == (2,)
    assert chain_at_place(CTX2R2, [u1], finite_place(CTX2R2, [1, 1])) == ()


def test_chain_at_place_rejects_wrong_multiset():
    t_place = finite_place(CTX2R2, [0, 1])
    u1 = reduce_global(CTX2R2, [1], [0, 1])
    u2 = reduce_global(CTX2R2, [1], [0, 0, 0, 1])
    u3 = reduce_global(CTX2R2, [1, 1, 1], [0, 0, 0, 0, 0, 1])
    # three arbitrary reps rarely form the line set of a plane; this
    # triple has conductors that cannot fit the forced block profile
    lines = [u1, u2, u3]
    with pytest.raises(InvariantViolation):
        chain_at_place(CTX2R2, lines, t_place)


def test_chain_consistency_with_direct_formula():
    # (p-1) * weighted chain sum == (p-1) * plain line-conductor sum
    t_place = finite_place(CTX2R2, [0, 1])
    u1 = reduce_global(CTX2R2, [1], [0, 1])
    u2 = reduce_global(CTX2R2, [1, 1], [0, 0, 0, 1])
    lines = line_reps(CTX2R2, [u1, u2])
    chain = chain_at_place(CTX2R2, lines, t_place)
    p, r = CTX2R2.p, CTX2R2.r
    via_chain = (p - 1) * sum(p ** (r - j) * c
                              for j, c in enumerate(chain, start=1))
    assert via_chain == disc_exponent_via_lines(CTX2R2, lines, t_place)
