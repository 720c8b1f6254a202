"""Closed-form counts against brute-force enumeration and frozen anchors."""

import hashlib
import json
import time
from collections import Counter
from itertools import groupby, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascount import counting
from ascount.compositions import (
    chain_term_count,
    enumerate_chains,
    flag_count,
    free_index_count,
    gaussian_binomial,
    weighted_counts,
)
from ascount.counting import (
    _adder,
    _blocks,
    _constants_by_trace,
    _decode,
    _subspaces,
    _width,
    candidate_vectors,
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
)
from ascount.artin_schreier import (
    conductor_exponent,
    line_reps,
    reduce_global,
    rep_add,
    rep_scale,
)
from ascount.asymptotics import report_json
from ascount.dirichlet import (
    delta_exponents,
    global_dirichlet,
    local_rational,
    psi_polynomial,
)
from ascount.errors import InvariantViolation
from ascount.fields import (
    Divisor,
    INFINITY,
    finite_place,
    make_context,
    place_count,
)

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
            assert factor_coefficient(ctx, f, 0, ctx.q) == 1


def test_factor_coefficients_match_per_norm():
    for ctx in (CTX211, CTX221, CTX212, CTX312):
        norms = [ctx.q ** d for d in range(1, 5)]
        for f in range(ctx.r + 1):
            for exponent in range(0, 30):
                assert factor_coefficients(ctx, f, exponent, norms) == \
                    [factor_coefficient(ctx, f, exponent, n) for n in norms]
    assert factor_coefficients(CTX212, 2, 8, []) == []


def _coefficients_by_chains(ctx, f, exponent, norms):
    """factor_coefficients written out as a sum over the chains of length
    at most f, each weighted by its own q-binomial and flag count."""
    totals = [0] * len(norms)
    for chain in enumerate_chains(exponent, f, ctx):
        runs = tuple(len(list(block)) for _, block in groupby(chain))
        weight = (gaussian_binomial(f, len(chain), ctx.p)
                  * flag_count(runs, ctx.p))
        for k, norm in enumerate(norms):
            totals[k] += weight * chain_term_count(chain, norm, ctx)
    return totals


# (p, n, r) for the chain-table checks, out to the psi horizon
_TABLE_GRID = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 1), (3, 1, 2),
               (3, 1, 3), (5, 1, 1), (5, 1, 2), (2, 2, 2)]


@pytest.mark.parametrize("pnr", _TABLE_GRID,
                         ids=lambda pnr: "".join(map(str, pnr)))
def test_factor_coefficients_match_chain_sum(pnr):
    # every depth reads one shared chain table; out to the psi horizon
    ctx = make_context(*pnr)
    norms = [ctx.p, ctx.p ** 2, ctx.p ** 3]
    horizon = 2 * sum(delta_exponents(ctx, j)[1] for j in range(1, ctx.r + 1))
    for exponent in range(horizon + 1):
        for f in range(ctx.r + 1):
            assert factor_coefficients(ctx, f, exponent, norms) == \
                _coefficients_by_chains(ctx, f, exponent, norms), (f, exponent)


@pytest.mark.parametrize("pnr", [pnr for pnr in _TABLE_GRID if pnr[1] == 1],
                         ids=lambda pnr: "".join(map(str, pnr)))
def test_chain_table_drops_only_zeros(pnr):
    # every chain without an entry 1 mod p counts N^K times the product of
    # its run composition omega, and falls in the one bucket (omega, K),
    # under its own length and flag count, whose count is the number of
    # such chains; the chains the table leaves out have an entry 1 mod p
    # and count 0 at every norm
    ctx = make_context(*pnr)
    p = ctx.p
    norms = (p, p ** 2, p ** 3, p ** 5)
    horizon = 2 * sum(delta_exponents(ctx, j)[1] for j in range(1, ctx.r + 1))
    for exponent in range(horizon + 1):
        members = Counter()
        for chain in enumerate_chains(exponent, ctx.r, ctx):
            if any(c % p == 1 for c in chain):
                assert [chain_term_count(chain, norm, ctx) for norm in norms] \
                    == [0] * len(norms), (exponent, chain)
                continue
            omega = tuple(len(list(block)) for _, block in groupby(chain))
            total = sum(free_index_count(c - 1, p) for c in chain)
            assert [chain_term_count(chain, norm, ctx) for norm in norms] == \
                [norm ** total * counting._run_product(p, omega, norm)
                 for norm in norms], (exponent, chain)
            members[omega, total] += 1
        table = Counter()
        for length, flags, omega, buckets in counting._chain_table(p, ctx.r, exponent):
            assert length == sum(omega) and flags == flag_count(omega, p)
            for total, count in buckets:
                assert (omega, total) not in table, (exponent, omega, total)
                table[omega, total] = count
        assert table == members, exponent


def test_factor_coefficients_digest():
    # every depth, norms p, p^2, p^3, out to 2 D_r; recorded on the table
    # that still held the chains with an entry 1 mod p
    rows = []
    for pnr in _TABLE_GRID:
        ctx = make_context(*pnr)
        horizon = 2 * sum(delta_exponents(ctx, j)[1] for j in range(1, ctx.r + 1))
        norms = (ctx.p, ctx.p ** 2, ctx.p ** 3)
        rows.extend([str(c) for c in factor_coefficients(ctx, f, e, norms)]
                    for f in range(ctx.r + 1) for e in range(horizon + 1))
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == \
        "ebd1f58ec40b0782a91787d6f0026c1a76ec7cce6ccd075fee6b17cfd02a26f2"


def test_factor_coefficients_rejects_depth_out_of_range():
    for exponent in (0, 8):
        for f in (-1, CTX212.r + 1):
            with pytest.raises(ValueError):
                factor_coefficients(CTX212, f, exponent, [2, 4])


def test_exponent_cap_refuses_before_the_chains(monkeypatch):
    def refuse(*args):
        raise AssertionError("chains enumerated past the exponent cap")

    monkeypatch.setattr(counting, "enumerate_chains", refuse)
    top = counting._MAX_EXPONENT + 1
    with pytest.raises(ValueError, match=f"discriminant exponent {top} exceeds"):
        local_count(CTX212, top)


@pytest.mark.parametrize("pr", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                (5, 2), (7, 1)],
                         ids=lambda pr: "".join(map(str, pr)))
def test_chain_count_matches_enumeration(pr):
    # one pass counts every exponent up to the top; a shorter pass gives
    # the same prefix
    ctx = make_context(pr[0], 1, pr[1])
    counts = counting._chain_counts(*pr, 79)
    assert counts == tuple(len(enumerate_chains(e, ctx.r, ctx)) for e in range(80))
    assert all(counting._chain_counts(*pr, e) == counts[:e + 1] for e in range(80))


def test_chain_cap_refuses_before_the_chains(monkeypatch):
    # (2,1,4) at e = 16384 has 36,572,952 chains, past the cap of 2^23
    def refuse(*args):
        raise AssertionError("chains enumerated past the chain cap")

    monkeypatch.setattr(counting, "enumerate_chains", refuse)
    counting._chain_table.cache_clear()
    ctx = make_context(2, 1, 4)
    message = "discriminant exponent 16384: 36572952 conductor chains exceed"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        local_count(ctx, 16384)
    with pytest.raises(ValueError, match=message):
        global_count(ctx, Divisor([(INFINITY, 2), (finite_place(ctx, [0, 1]), 16384)]))
    assert time.perf_counter() - start < 1


def test_chain_expansion_refused_before_the_chains(monkeypatch):
    # the local form at (2,1,8) expands out to u^7172, 82,104,262 chains;
    # the global series at --max 200 lists few enough to run
    def refuse(*args):
        raise AssertionError("chains enumerated past the chain cap")

    monkeypatch.setattr(counting, "enumerate_chains", refuse)
    counting._chain_table.cache_clear()
    ctx = make_context(2, 1, 8)
    message = "Euler factor to u\\^7172: 82104262 conductor chains exceed"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        local_rational(ctx)
    with pytest.raises(ValueError, match=message):
        report_json(ctx)
    with pytest.raises(ValueError, match=message):
        psi_polynomial(ctx, 8, 2)
    assert time.perf_counter() - start < 1
    assert sum(counting._chain_counts(2, 8, 200)) <= counting._MAX_CHAINS


def test_psi_polynomial_enumerates_each_exponent_once(monkeypatch):
    calls = Counter()
    enumerate_all = counting.enumerate_chains

    def counted(target, max_len, ctx, **kwargs):
        calls[target] += 1
        return enumerate_all(target, max_len, ctx, **kwargs)

    monkeypatch.setattr(counting, "enumerate_chains", counted)
    counting._chain_table.cache_clear()
    ctx = make_context(2, 1, 3)
    for norm in (2, 4, 8):
        psi_polynomial(ctx, 2, norm)
    horizon = 2 * sum(delta_exponents(ctx, j)[1] for j in (1, 2))
    # every kept chain's exponent is even at p = 2: each lattice exponent
    # is walked once, and no exponent off the lattice is walked at all
    assert calls == Counter(range(0, horizon + 1, 2))


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


def test_divisor_sweep_cap_refuses_before_any_divisor(monkeypatch):
    # 2^18 - 1 divisors at q = 2, m = 17 is the largest sweep under the
    # cap; a degree past it is refused before a place is listed or a
    # Divisor built, also one whose count q^(m+1) would take long to form
    assert counting._MAX_DIVISORS == 2 ** 18
    built = []
    monkeypatch.setattr(counting, "Divisor", lambda *args: built.append(args))
    monkeypatch.setattr(counting, "places", lambda *args: built.append(args))
    for ctx, degree in ((CTX211, 18), (CTX311, 11), (CTX221, 9),
                        (CTX211, 10 ** 12)):
        with pytest.raises(ValueError, match="effective divisors"):
            effective_divisors(ctx, degree)
        with pytest.raises(ValueError, match="effective divisors"):
            global_count_by_degree(ctx, degree)
    assert built == []


def _per_divisor_reference(ctx, degree):
    """global_count_by_degree one divisor at a time: the depth values of
    every swept divisor, weighted column by column and summed."""
    factors = {}
    columns = [counting._depth_values(ctx, [(pl.degree, e) for pl, e in d.items()],
                                      factors)
               for d in effective_divisors(ctx, degree)]
    return sum(weighted_counts(ctx, list(zip(*columns))))


def test_type_tally_matches_per_divisor_sum():
    for ctx, top in ((CTX211, 12), (CTX221, 6), (CTX311, 7), (CTX212, 8),
                     (CTX312, 5)):
        for degree in range(top + 1):
            assert global_count_by_degree(ctx, degree) == \
                _per_divisor_reference(ctx, degree), (ctx, degree)


def test_swept_divisors_are_valid_and_distinct():
    # the sweep builds its divisors without Divisor()'s checks and sort:
    # each must equal the validated, sorted one and occur once
    for ctx, top in ((CTX211, 10), (CTX221, 5), (CTX311, 6),
                     (make_context(3, 2, 1), 3)):
        for degree in range(top + 1):
            swept = effective_divisors(ctx, degree)
            assert len(set(swept)) == len(swept)
            for divisor in swept:
                assert divisor == Divisor(divisor.items())
                assert divisor.degree() == degree


def test_sweep_checks_the_place_order(monkeypatch):
    ordered = counting.places
    for shuffled in (lambda ctx, d: ordered(ctx, d)[::-1],
                     lambda ctx, d: ordered(ctx, d) + ordered(ctx, d)[-1:]):
        monkeypatch.setattr(counting, "places", shuffled)
        with pytest.raises(InvariantViolation, match="divisor order"):
            effective_divisors(CTX211, 3)


def test_sweep_builds_through_the_module_divisor(monkeypatch):
    # the cap test patches counting.Divisor to catch any divisor built
    # before a refusal: the sweep must build through that name
    class Tagged(Divisor):
        __slots__ = ()

    monkeypatch.setattr(counting, "Divisor", Tagged)
    swept = effective_divisors(CTX211, 4)
    assert len(swept) == 31 and all(type(d) is Tagged for d in swept)


def _divisor_types(degree):
    """Every type of degree m: sorted tuples of (place degree, exponent)
    pairs, repeats allowed, with sum of degree * exponent = m."""
    pairs = [(d, e) for d in range(1, degree + 1) for e in range(1, degree // d + 1)]

    def extend(rest, start):
        if rest == 0:
            yield ()
        for i in range(start, len(pairs)):
            d, e = pairs[i]
            if d * e <= rest:
                for tail in extend(rest - d * e, i):
                    yield ((d, e),) + tail
    return list(extend(degree, 0))


def _type_count(ctx, divisor_type):
    """prod_d P(d)! / ((P(d) - sum_e k_de)! prod_e k_de!), P = place_count,
    k_de the number of places of degree d with exponent e: the ways to
    give each exponent its places of degree d."""
    out = 1
    for d, group in groupby(sorted(Counter(divisor_type).items()),
                            key=lambda item: item[0][0]):
        ks = [k for _, k in group]
        places_d, taken = place_count(ctx, d), sum(ks)
        if taken > places_d:
            return 0
        out *= factorial(places_d) // factorial(places_d - taken)
        for k in ks:
            out //= factorial(k)
    return out


def test_swept_types_match_their_place_count_formula():
    for ctx, top in ((CTX211, 10), (CTX221, 6), (CTX311, 7)):
        for degree in range(top + 1):
            swept = Counter(tuple(sorted((pl.degree, e) for pl, e in d.items()))
                            for d in effective_divisors(ctx, degree))
            predicted = {t: c for t in _divisor_types(degree)
                         if (c := _type_count(ctx, t))}
            assert swept == predicted, (ctx, degree)


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


@pytest.mark.parametrize("pnr, unramified", [
    ((2, 1, 1), 1), ((2, 1, 2), 0), ((3, 1, 1), 1), ((2, 2, 1), 1),
    ((3, 2, 1), 1)])
def test_oracles_at_exponent_and_degree_zero(pnr, unramified):
    # the bottom of both oracles' ranges: only unramified extensions, the
    # constant-field one at r = 1 and none at r = 2
    ctx = make_context(*pnr)
    assert enumerate_local(ctx, 0) == {0: local_count(ctx, 0)} \
        == {0: unramified}
    tally = counts_by_degree(enumerate_global(ctx, 0))
    assert tally.get(0, 0) == global_count(ctx, Divisor.one()) \
        == global_dirichlet(ctx, 0).coefficient(0) == unramified


# ---------------------------------------------------------------------------
# the packed-coordinate subspace search behind both oracles
# ---------------------------------------------------------------------------


def _all_vectors(p, dim):
    w = _width(p)
    return [sum(d << (w * k) for k, d in enumerate(ds))
            for ds in product(range(p), repeat=dim)]


def _multiples(add, p, v):
    out = [0]
    for _ in range(p - 1):
        out.append(add(out[-1], v))
    return out


@pytest.mark.parametrize("p, dim, r", [(2, 5, 2), (3, 3, 2), (2, 4, 3)])
def test_unpruned_search_yields_every_subspace_once(p, dim, r):
    # every cost zero and every vector a candidate: nothing can be pruned
    cost = dict.fromkeys(_all_vectors(p, dim)[1:], 0)
    found = list(_subspaces(p, r, cost, 0))
    assert len(found) == gaussian_binomial(dim, r, p)
    assert len({frozenset(lines) for _, lines, _ in found}) == len(found)
    add = _adder(p, dim)
    for basis, lines, total in found:
        assert total == 0 and len(lines) == (p ** r - 1) // (p - 1)
        span = {0}
        for row in basis:
            span = {add(s, m) for s in span for m in _multiples(add, p, row)}
        assert len(span) == p ** r and set(lines) <= span


def test_adder_is_digitwise_mod_p():
    for p in (2, 3, 5):
        vectors = _all_vectors(p, 3)
        digits = {v: tuple((v >> (_width(p) * k)) % (1 << _width(p))
                           for k in range(3)) for v in vectors}
        add = _adder(p, 3)
        for a in vectors:
            for b in vectors:
                assert digits[add(a, b)] == tuple(
                    (x + y) % p for x, y in zip(digits[a], digits[b]))


def test_search_rejects_candidates_not_closed_under_scaling():
    # over F_3 the vector 1 is a candidate but its multiple 2 is not
    with pytest.raises(InvariantViolation):
        list(_subspaces(3, 1, {1: 0}, 0))


CANDIDATE_BUDGETS = ((CTX211, 8), (CTX221, 4), (CTX311, 8), (CTX212, 6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CANDIDATE_BUDGETS), st.data())
def test_candidate_coordinates_decode_consistently(case, data):
    ctx, budget = case
    candidates = candidate_vectors(ctx, budget)
    blocks = _blocks(ctx, budget)
    (u, conds), (v, _) = (data.draw(st.sampled_from(candidates)) for _ in range(2))
    rep = _decode(ctx, blocks, u)
    # the representative gives back the same coordinates
    w = _width(ctx.p)
    coords = _constants_by_trace(ctx).index(rep.constant)
    for place, i, offset in blocks:
        z = rep.principal_at(place).get(i, (0,) * place.degree)
        digits = [d for code in z for d in ctx.element_coords(code)]
        coords |= sum(d << (w * (offset + k)) for k, d in enumerate(digits))
    assert coords == u
    # the coordinate conductors are the representative's, place by place
    assert dict(conds) == {place: conductor_exponent(rep, place)
                           for place in rep.support()}
    # the coordinates are F_p-linear, the trace of the constant included
    add = _adder(ctx.p, max(u, v).bit_length() // w + 1)
    assert _decode(ctx, blocks, add(u, v)) == \
        rep_add(ctx, rep, _decode(ctx, blocks, v))
    for k, multiple in enumerate(_multiples(add, ctx.p, u)):
        assert _decode(ctx, blocks, multiple) == rep_scale(ctx, rep, k)


# {str(Divisor): count} of enumerate_global, frozen from the enumeration over
# r-subsets of candidate representatives that preceded the subspace search
FROZEN_GLOBAL_TALLIES = {
    (CTX212, 6): {"inf^4": 1, "t+1^4": 1, "t^4": 1},
    (CTX221, 4): {
        "1": 1, "inf^2": 6, "inf^2,t+1^2": 18, "inf^2,t+[0,1]^2": 18,
        "inf^2,t+[1,1]^2": 18, "inf^2,t^2": 18, "inf^4": 24, "t+1^2": 6,
        "t+1^2,t+[0,1]^2": 18, "t+1^2,t+[1,1]^2": 18, "t+1^4": 24,
        "t+[0,1]^2": 6, "t+[0,1]^2,t+[1,1]^2": 18, "t+[0,1]^4": 24,
        "t+[1,1]^2": 6, "t+[1,1]^4": 24, "t2+[0,1]t+1^2": 30,
        "t2+[0,1]t+[0,1]^2": 30, "t2+[1,1]t+1^2": 30,
        "t2+[1,1]t+[1,1]^2": 30, "t2+t+[0,1]^2": 30, "t2+t+[1,1]^2": 30,
        "t^2": 6, "t^2,t+1^2": 18, "t^2,t+[0,1]^2": 18, "t^2,t+[1,1]^2": 18,
        "t^4": 24},
    (CTX311, 6): {"1": 1, "inf^4": 3, "inf^6": 9, "t+1^4": 3, "t+1^6": 9,
                  "t+2^4": 3, "t+2^6": 9, "t^4": 3, "t^6": 9},
}


@pytest.mark.parametrize("case", list(FROZEN_GLOBAL_TALLIES),
                         ids=["212-deg6", "221-deg4", "311-deg6"])
def test_global_tallies_frozen(case):
    ctx, degree = case
    tally = enumerate_global(ctx, degree, check=True)
    assert {str(d): c for d, c in tally.items()} == FROZEN_GLOBAL_TALLIES[case]


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of each oracle tally in dict order, and of the subspace search's
# yield order: a faster search must find the same subspaces in the same order
ORACLE_DIGESTS = {
    ("global", 2, 1, 2, 6, True):
        "1a87c5b9a7ea977f9a16bba3364176de6a33b97d5bff8b60a901a5398cb695bb",
    ("global", 2, 2, 1, 6, False):
        "b682648ba965e6ca7096be9822ebf6d7b9fae55013ac6a241ea8ef6640007cac",
    ("global", 2, 1, 1, 10, False):
        "93623921bafdc27c7355878ddb04f086ee2cbf8cd9d6a43d965b93bb79ecdeac",
    ("local", 2, 2, 2, 16):
        "716aefad014223f1fcb5f804b4cdab6a95b4fe73e9b846ce85e2c1c4a9809042",
    ("local", 2, 1, 2, 24):
        "fd4d62efb5eddcf32a5d8e9481380367cbfa3ee88a466dddb39c1295afaf15b3",
    ("local", 3, 2, 1, 12):
        "578756ed2bdcb21a75929b3c5dd07c58df00cfc6a3b54e79537c81514dd818e3",
    ("subspaces", 3, 2, 8):
        "143090db994173805a4b44aa128c95a76a3d7b56856f10c86eead933b4c32729",
    ("subspaces", 3, 2, 12):
        "793ed6e7dfc2e26d2121c0b0086c0cc833760da3541e48ab850a76bfb2755823",
}


def test_oracle_tallies_and_search_order_pinned():
    got = {}
    for kind, *args in ORACLE_DIGESTS:
        if kind == "global":
            p, n, r, degree, check = args
            tally = enumerate_global(make_context(p, n, r), degree, check=check)
            got[(kind, *args)] = _sha256([(str(d), c) for d, c in tally.items()])
        elif kind == "local":
            p, n, r, exponent = args
            tally = enumerate_local(make_context(p, n, r), exponent)
            got[(kind, *args)] = _sha256(list(tally.items()))
        else:
            # every nonzero vector of F_3^4 a candidate, costing its pivot:
            # budget 8 prunes 117 of the 130 planes, budget 12 none
            p, r, budget = args
            w = _width(p)
            cost = {v: (v.bit_length() - 1) // w for v in _all_vectors(p, 4)[1:]}
            found = _subspaces(p, r, cost, budget)
            got[(kind, *args)] = _sha256([(tuple(b), tuple(lines), total)
                                          for b, lines, total in found])
    assert got == ORACLE_DIGESTS
