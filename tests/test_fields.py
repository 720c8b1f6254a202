"""Field arithmetic, polynomial helpers, places, and divisors."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascount import fields
from ascount.errors import InvariantViolation
from ascount.fields import (
    INFINITY,
    Divisor,
    Place,
    _decode_full,
    _encode,
    factor_monic,
    finite_place,
    irreducibles,
    is_irreducible,
    make_context,
    pdeg,
    pdivmod,
    pgcd,
    place_count,
    places,
    pmod,
    pmul,
    pmonic,
    poly_str,
    ppow,
    ppowmod,
    ptrim,
    residue_field,
)

CTX2 = make_context(2, 1, 1)
CTX3 = make_context(3, 1, 1)
CTX4 = make_context(2, 2, 1)
CTX9 = make_context(3, 2, 1)


def necklace_count(q: int, d: int) -> int:
    """Monic irreducibles of degree d over F_q, by Mobius inversion.

    Written out independently of the library so the comparison means
    something."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius_oracle(d // e) * q ** e
    return total // d


def mobius_oracle(m: int) -> int:
    factors = []
    k = 2
    while k * k <= m:
        if m % k == 0:
            factors.append(k)
            m //= k
            if m % k == 0:
                return 0
        else:
            k += 1
    if m > 1:
        factors.append(m)
    return (-1) ** len(factors)


def test_context_validation():
    # squares of primes sit on the sqrt bound of the trial division
    for p in (0, 1, 4, 9, 25, 49, 91):
        with pytest.raises(ValueError):
            make_context(p, 1, 1)
    assert make_context(97, 1, 1).q == 97
    with pytest.raises(ValueError):
        make_context(2, 0, 1)
    with pytest.raises(ValueError):
        make_context(2, 1, 0)


def test_context_refuses_p_from_2_31_before_trial_division():
    # trial division up to sqrt(2^61 - 1) would take minutes
    for p in (2 ** 31, 2 ** 61 - 1, 2 ** 127 - 1):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="is not below 2\\^31"):
            make_context(p, 1, 1)
        assert time.perf_counter() - start < 0.1
    assert make_context(2 ** 31 - 1, 1, 1).p == 2 ** 31 - 1


def test_context_refuses_ranks_past_32():
    # powers of p in r came before every other cap: r = 10^5 hung
    with pytest.raises(ValueError, match="^r = 33 exceeds 32$"):
        make_context(2, 1, 33)
    assert make_context(2 ** 31 - 1, 1, 32).r == 32


def test_field_sizes_and_tables():
    assert CTX2.q == 2
    assert CTX4.q == 4
    assert CTX9.q == 9
    for ctx in (CTX2, CTX3, CTX4, CTX9):
        # inverses exist for every nonzero code
        for a in range(1, ctx.q):
            assert ctx.fmul(a, ctx.finv(a)) == 1
        # Frobenius is a bijection of F_q
        assert sorted(ctx.fpow(a, ctx.p) for a in range(ctx.q)) == \
            list(range(ctx.q))


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_gf9_ring_axioms(a, b, c):
    ctx = CTX9
    assert ctx.fmul(a, b) == ctx.fmul(b, a)
    assert ctx.fadd(a, b) == ctx.fadd(b, a)
    assert ctx.fmul(a, ctx.fadd(b, c)) == ctx.fadd(ctx.fmul(a, b),
                                                   ctx.fmul(a, c))
    assert ctx.fmul(ctx.fmul(a, b), c) == ctx.fmul(a, ctx.fmul(b, c))


def test_element_coords_roundtrip():
    for ctx in (CTX4, CTX9):
        for a in range(ctx.q):
            coords = ctx.element_coords(a)
            assert len(coords) == ctx.n
            assert ctx.element_from_coords(coords) == a


def test_poly_divmod_invariant():
    a = [1, 0, 1, 1, 0, 1]
    b = [1, 1, 1]
    quot, rem = pdivmod(CTX2, a, b)
    recombined = [x for x in pmul(CTX2, quot, b)]
    # pad and add the remainder back
    for i, c in enumerate(rem):
        if i < len(recombined):
            recombined[i] = CTX2.fadd(recombined[i], c)
        else:
            recombined.append(c)
    assert ptrim(recombined) == ptrim(a)
    assert pdeg(rem) < pdeg(b)


def test_gcd_and_powmod():
    # gcd(t(t+1)^2, (t+1)^2) over F_2 = (t+1)^2 = t^2+1
    f = pmul(CTX2, [0, 1, 1], [1, 1])
    g = pmul(CTX2, [1, 1], [1, 1])
    assert tuple(pmonic(CTX2, pgcd(CTX2, f, g))) == (1, 0, 1)
    assert tuple(pmod(CTX2, f, g)) == ()
    # t^(2^2) mod t^2+t+1 == t, the Frobenius orbit closing up
    assert tuple(ppowmod(CTX2, [0, 1], 4, [1, 1, 1])) == (0, 1)


def test_irreducibility_known_cases():
    assert is_irreducible(CTX2, [1, 1, 1])        # t^2+t+1
    assert not is_irreducible(CTX2, [1, 0, 1])    # t^2+1 = (t+1)^2
    assert is_irreducible(CTX3, [1, 0, 1])        # t^2+1 over F_3
    assert not is_irreducible(CTX3, [2, 0, 1])    # t^2+2 = (t+1)(t+2)


@pytest.mark.parametrize("ctx,dmax", [(CTX2, 4), (CTX3, 4), (CTX4, 4),
                                      (make_context(5, 1, 1), 3), (CTX9, 3)])
def test_is_irreducible_matches_sieve(ctx, dmax):
    for d in range(1, dmax + 1):
        sieved = set(irreducibles(ctx, d))
        for coeffs in itertools.product(range(ctx.q), repeat=d):
            f = coeffs + (1,)
            assert is_irreducible(ctx, f) == (f in sieved), f


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([CTX2, CTX3, CTX4, CTX9]), st.data())
def test_factor_monic_recovers_products(ctx, data):
    # degree 1 always contributes two or three distinct factors, so its
    # distinct-degree part needs trial division; degrees 2 and 3 up to three
    expected = {}
    for d in (1, 2, 3):
        pool = irreducibles(ctx, d)
        chosen = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                    min_size=2 if d == 1 else 0, max_size=3))
        for g in chosen:
            expected[g] = data.draw(st.integers(1, 3))
    f = (1,)
    for g, e in expected.items():
        f = pmul(ctx, f, ppow(ctx, g, e))
    got = factor_monic(ctx, f)
    assert len(got) == len(expected) and dict(got) == expected


def test_irreducible_counts_match_necklace_formula():
    for ctx, dmax in ((CTX2, 7), (CTX3, 5), (CTX4, 4)):
        for d in range(1, dmax + 1):
            got = irreducibles(ctx, d)
            assert len(got) == necklace_count(ctx.q, d)
            assert all(f[-1] == 1 and pdeg(f) == d for f in got)


@pytest.mark.parametrize("d", [1, 3])
def test_sieve_count_is_checked_against_place_count(monkeypatch, d):
    sieve = fields.irreducibles.__wrapped__  # past the cache
    assert len(sieve(CTX2, d)) == necklace_count(2, d)
    wrong = place_count(CTX2, d) + 1
    monkeypatch.setattr(fields, "place_count", lambda ctx, e: wrong)
    with pytest.raises(InvariantViolation, match=f"degree {d}"):
        sieve(CTX2, d)


def test_place_count_includes_infinity():
    # degree 1 gets the place at infinity on top of the q finite ones
    assert place_count(CTX2, 1) == 3
    assert place_count(CTX2, 2) == 1
    assert place_count(CTX2, 3) == 2
    assert place_count(CTX2, 4) == 3
    assert place_count(CTX4, 1) == 5
    for d in range(2, 5):
        assert place_count(CTX4, d) == necklace_count(4, d)
    # d up to 12 takes in two distinct primes (6, 10, 12) and prime powers
    for ctx in (CTX2, CTX3):
        for d in range(2, 13):
            assert place_count(ctx, d) == necklace_count(ctx.q, d)


def test_places_ordering_and_str():
    one = places(CTX2, 1)
    assert one[0] is INFINITY
    assert str(one[0]) == "inf"
    assert [str(pl) for pl in one[1:]] == ["t", "t+1"]
    assert poly_str([1, 1, 1]) == "t2+t+1"
    assert poly_str([0, 2, 1]) == "t2+2t"
    # over F_4 and F_9 a coefficient outside F_p is a bracketed vector
    assert poly_str([1, 2, 1], ctx=CTX4) == "t2+[0,1]t+1"
    assert poly_str([1, 4, 1], ctx=CTX9) == "t2+[1,1]t+1"
    assert poly_str([2, 1], ctx=CTX9) == "t+2"
    assert str(Divisor([(finite_place(CTX4, [3, 1]), 2)])) == "t+[1,1]^2"


def test_finite_place_rejects_bad_polys():
    with pytest.raises(ValueError):
        finite_place(CTX2, [1, 0, 1])    # reducible
    with pytest.raises(ValueError):
        finite_place(CTX2, [1])          # constant
    with pytest.raises(ValueError):
        finite_place(CTX3, [1, 2])       # not monic


def test_divisor_basics():
    t = finite_place(CTX2, [0, 1])
    t1 = finite_place(CTX2, [1, 1])
    d = Divisor([(t1, 2), (INFINITY, 1), (t, 3)])
    assert d.degree() == 6
    # canonical order: infinity first among degree-1 places
    assert [str(pl) for pl, _ in d.items()] == ["inf", "t", "t+1"]
    assert str(d) == "inf^1,t^3,t+1^2"
    assert Divisor.one().degree() == 0
    with pytest.raises(ValueError):
        Divisor([(t, 1), (t, 2)])
    with pytest.raises(ValueError):
        Divisor([(t, 0)])


def test_divisor_refusals_in_order():
    t = finite_place(CTX2, [0, 1])
    t1 = finite_place(CTX2, [1, 1])
    with pytest.raises(ValueError, match="must be places"):
        Divisor([(t, 1), ((0, 1), 1)])
    for e in (0, -1):
        with pytest.raises(ValueError, match="must be positive"):
            Divisor([(t, 1), (t1, e)])
    # ctx only tells __str__ how to write coefficients: the copies are one place
    with pytest.raises(ValueError, match="repeated place"):
        Divisor([(t, 1), (Place(t.poly), 2)])
    # each pair is checked in turn, so a repeat listed first is the one reported
    with pytest.raises(ValueError, match="repeated place"):
        Divisor([(t, 1), (Place(t.poly), 2), (t1, 0)])


def test_divisor_orders_places_by_sort_key():
    chosen = [pl for d in (3, 1, 4, 2) for pl in places(CTX2, d)[::-1]]
    d = Divisor((pl, k + 1) for k, pl in enumerate(chosen))
    assert [pl for pl, _ in d.items()] == sorted(chosen, key=Place.sort_key)
    assert d.items()[0][0] is INFINITY


def test_residue_field_gf4_structure():
    place = finite_place(CTX4, [3, 1])   # t + g^2 over F_4, degree 1
    fld = residue_field(CTX4, place)
    elems = list(itertools.product(range(4), repeat=1))
    assert len(elems) == 4
    for a in elems:
        assert all(fld.add(a, b) == fld.add(b, a) for b in elems)
        # over F_4 (n = 2) the inverse Frobenius is not the identity
        square = fld.from_poly(ppow(CTX4, ptrim(a), 2))
        assert fld.pth_root(square) == a
    assert fld.pth_root((2,)) == (3,)    # g = (g^2)^2


def test_residue_field_degree_two():
    place = finite_place(CTX2, [1, 1, 1])
    fld = residue_field(CTX2, place)
    elems = list(itertools.product(range(2), repeat=2))
    assert len(elems) == 4
    for a in elems:
        # pth_root inverts Frobenius in the residue field F_4 as well
        square = fld.from_poly(ppow(CTX2, ptrim(a), 2))
        assert fld.pth_root(square) == a
    # the place polynomial reduces to zero
    assert not any(fld.from_poly([1, 1, 1]))


def _reference_mul_table(ctx):
    """a*b for all codes by polynomial products modulo ctx.modulus."""
    prime = make_context(ctx.p, 1, 1)
    polys = [ptrim(ctx.element_coords(a)) for a in range(ctx.q)]

    def code(poly):
        return ctx.element_from_coords(tuple(poly) + (0,) * (ctx.n - len(poly)))

    return [[code(pmod(prime, pmul(prime, a, b), ctx.modulus)) for b in polys]
            for a in polys]


def _first_rootless(p, n):
    """The modulus by its convention, for n <= 3: the first monic degree-n
    polynomial (coefficients compared low to high) without a root in F_p,
    which for n <= 3 is the first irreducible one."""
    for coeffs in itertools.product(range(p), repeat=n):
        f = coeffs + (1,)
        if all(sum(c * x ** i for i, c in enumerate(f)) % p for x in range(p)):
            return f


# The modulus of every F_q with p in (2, 3, 5), 2 <= n <= 12 and
# q <= 5 * 10^6: the first monic irreducible of degree n over F_p,
# coefficients low to high.  The search skips constant term 0.
FROZEN_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 11): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 5): (1, 0, 0, 0, 4, 1),
    (5, 6): (1, 0, 0, 0, 1, 1, 1),
    (5, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (5, 9): (1, 0, 0, 0, 0, 0, 0, 2, 3, 1),
}


def test_modulus_frozen():
    for (p, n), modulus in FROZEN_MODULI.items():
        assert make_context(p, n, 1).modulus == modulus, (p, n)


def test_field_tables_refuse_large_q():
    ctx = make_context(2, 11, 1)         # the context and its q are fine
    assert ctx.q == 2048
    for build in (lambda: ctx.fadd(1, 1), lambda: ctx.fmul(2, 3),
                  lambda: ctx.fneg(1), lambda: is_irreducible(ctx, (1, 1, 1))):
        with pytest.raises(ValueError, match="q <= 1024"):
            build()
    # a degree-1 polynomial is irreducible without any F_q arithmetic
    assert is_irreducible(ctx, (1, 1))


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)])
def test_mul_table_by_discrete_log(p, n):
    ctx = make_context(p, n, 1)
    if n > 1:
        assert ctx.modulus == _first_rootless(p, n)
    assert ctx._mul_table == _reference_mul_table(ctx)


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)])
def test_add_table_by_digits(p, n):
    ctx = make_context(p, n, 1)
    reference = [[_encode([(x + y) % p for x, y in zip(_decode_full(a, p, n),
                                                        _decode_full(b, p, n))], p)
                  for b in range(ctx.q)] for a in range(ctx.q)]
    assert ctx._add_table == reference


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_fsmul_is_repeated_addition(p, n):
    ctx = make_context(p, n, 1)
    for a in range(ctx.q):
        for k in range(-2 * p, 2 * p):
            expected = 0
            for _ in range(k % p):
                expected = ctx.fadd(expected, a)
            assert ctx.fsmul(k, a) == expected
