"""Chain combinatorics: compositions, flags, weights, and term counts."""

from fractions import Fraction
from itertools import combinations_with_replacement, groupby, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascount.compositions import (
    TwoLevelComposition,
    _validate_chain,
    aut_order,
    chain_disc_exponent,
    chain_term_count,
    chain_weights,
    compositions,
    delsarte_weight,
    enumerate_admissible_two_level,
    enumerate_chains,
    enumerate_two_level,
    flag_count,
    free_index_count,
    gaussian_binomial,
    kept_step,
    leading_term_count,
    mobius_cpk,
    prefix_sums,
    structure_poly_value,
    weighted_counts,
)
from ascount.dirichlet import delta_exponents
from ascount.errors import InvariantViolation
from ascount.fields import PrimeContext, make_context

CTX211 = make_context(2, 1, 1)
CTX212 = make_context(2, 1, 2)
CTX222 = make_context(2, 2, 2)
CTX312 = make_context(3, 1, 2)


# ---------------------------------------------------------------------------
# q-binomials and flags
# ---------------------------------------------------------------------------


def subspace_count_oracle(n: int, k: int, p: int) -> int:
    """Number of k-dim subspaces of F_p^n, straight from the definition:
    ordered independent k-tuples over ordered bases of a k-space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** n - p ** i
        den *= p ** k - p ** i
    return num // den


def test_gaussian_binomial_small_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(2, 3, 2) == 0


def test_gaussian_binomial_matches_subspace_count():
    for p in (2, 3, 5):
        for n in range(7):
            for k in range(n + 2):
                assert gaussian_binomial(n, k, p) == subspace_count_oracle(n, k, p)


def test_gaussian_binomial_symmetry():
    for p in (2, 3):
        for n in range(8):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)


def test_flag_count_chains_binomials():
    # a flag of type (a_1, ..., a_k) is built by choosing quotients step
    # by step, so gamma is the product of Gaussian binomials of the suffix sums
    assert flag_count((2,), 2) == 1
    assert flag_count((1, 1), 2) == 3
    assert flag_count((1, 1, 1), 2) == 21
    assert flag_count((2, 1), 3) == 13


def test_flag_count_takes_any_sequence():
    # memoised per (tuple(omega), p): a list gives the tuple's value, and a
    # part below 1 is refused on every call
    assert flag_count([1, 1, 1], 2) == flag_count((1, 1, 1), 2) == 21
    assert flag_count(iter([2, 1]), 3) == 13
    for _ in range(2):
        with pytest.raises(ValueError):
            flag_count([1, 0], 2)


@settings(max_examples=60)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.sampled_from((2, 3, 5)))
def test_flag_count_permutation_invariant(parts, p):
    base = flag_count(tuple(parts), p)
    for perm in permutations(parts):
        assert flag_count(perm, p) == base


def test_compositions_count_and_content():
    for h in range(1, 11):
        comps = list(compositions(h))
        assert len(comps) == 2 ** (h - 1)
        assert all(sum(c) == h and all(x >= 1 for x in c) for c in comps)
        assert len(set(comps)) == len(comps)


def test_prefix_sums():
    assert prefix_sums((2, 1, 3)) == (2, 3, 6)
    assert prefix_sums(()) == ()


# ---------------------------------------------------------------------------
# Mobius weights and Delsarte constants
# ---------------------------------------------------------------------------


def test_mobius_cpk_values():
    assert [mobius_cpk(k, 2) for k in range(4)] == [1, -1, 2, -8]
    assert [mobius_cpk(k, 3) for k in range(4)] == [1, -1, 3, -27]


def test_aut_order():
    assert aut_order(1, 2) == 1
    assert aut_order(2, 2) == 6       # GL_2(F_2)
    assert aut_order(2, 3) == 48      # GL_2(F_3)


def test_delsarte_weight_frozen_values():
    assert delsarte_weight(1, CTX211) == 2
    assert delsarte_weight(0, CTX211) == -1
    assert delsarte_weight(2, CTX212) == Fraction(2, 3)
    assert delsarte_weight(1, CTX212) == -1
    assert delsarte_weight(0, CTX212) == Fraction(1, 3)


def test_delsarte_weight_sums():
    # inclusion-exclusion over subgroups: the weights sum to 1 for r = 1
    # (the trivial group is the only proper quotient) and to 0 for r >= 2
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            ctx = make_context(p, 1, r)
            total = sum(delsarte_weight(f, ctx) for f in range(r + 1))
            assert total == (1 if r == 1 else 0)


def test_weighted_counts_divides_exactly():
    # (2,1,2): e_f |GL_2(F_2)| = (2, -6, 4) over 6; the columns are the
    # depth-f local factor coefficients at exponents 0, 8 and 10, so
    # 2 - 6 + 4 = 0, (-6 * 2 + 4 * 6) / 6 = 2 and 4 * 6 / 6 = 4
    rows = [[1, 0, 0], [1, 2, 0], [1, 6, 6]]
    assert weighted_counts(CTX212, rows) == [0, 2, 4]


def test_weighted_counts_rejects_a_remainder():
    with pytest.raises(InvariantViolation):
        weighted_counts(CTX212, [[0], [0], [1]])  # 4 / 6


def test_weighted_counts_rejects_a_negative_count():
    with pytest.raises(InvariantViolation):
        weighted_counts(CTX212, [[0], [1], [0]])  # -6 / 6


def test_weighted_counts_rejects_ragged_rows():
    with pytest.raises(ValueError):
        weighted_counts(CTX212, [[1, 0], [1], [1, 6]])
    with pytest.raises(ValueError):
        weighted_counts(CTX212, [[1], [1]])  # r + 1 = 3 rows needed


def abelian_elements(orders):
    """All elements of prod Z/orders[i], as tuples."""
    from itertools import product
    return list(product(*(range(o) for o in orders)))


def hom_count(p: int, r: int, orders) -> int:
    """|Hom(C_p^r, A)| by exhaustive enumeration: generator images whose
    order divides p (any such choice extends, the domain being elementary
    abelian)."""
    from itertools import product
    torsion = [g for g in abelian_elements(orders)
               if all(p * x % o == 0 for x, o in zip(g, orders))]
    return sum(1 for _ in product(torsion, repeat=r))


def inj_count(p: int, r: int, orders) -> int:
    """|Inj(C_p^r, A)| by exhausting homomorphisms and testing kernels."""
    from itertools import product
    torsion = [g for g in abelian_elements(orders)
               if all(p * x % o == 0 for x, o in zip(g, orders))]
    count = 0
    domain = list(product(range(p), repeat=r))
    for images in product(torsion, repeat=r):
        trivial_kernel = True
        for vec in domain:
            if not any(vec):
                continue
            value = tuple(sum(c * g[i] for c, g in zip(vec, images)) % o
                          for i, o in enumerate(orders))
            if not any(value):
                trivial_kernel = False
                break
        if trivial_kernel:
            count += 1
    return count


def test_delsarte_inclusion_exclusion():
    # |Inj(C_p^r, A)| = sum_f [subgroups C_p^f of C_p^r] mu(C_p^{r-f}) |Hom(C_p^f, A)|
    # with both sides enumerated exhaustively on small abelian p-groups
    targets = {2: [(2,), (2, 2), (2, 2, 2), (2, 4)],
               3: [(3,), (3, 3), (3, 3, 3), (3, 9)]}
    for p in (2, 3):
        for r in (1, 2):
            for orders in targets[p]:
                rhs = sum(gaussian_binomial(r, f, p) * mobius_cpk(r - f, p)
                          * hom_count(p, f, orders)
                          for f in range(r + 1))
                assert inj_count(p, r, orders) == rhs, (p, r, orders)


# ---------------------------------------------------------------------------
# conductor arithmetic
# ---------------------------------------------------------------------------


def test_free_index_count():
    # indices prime to p strictly below c
    assert free_index_count(0, 2) == 0
    assert free_index_count(2, 2) == 1
    assert free_index_count(4, 2) == 2
    assert free_index_count(5, 3) == 3
    with pytest.raises(ValueError):
        free_index_count(-1, 2)


def test_leading_term_count_vanishing():
    # zero exactly when j = 0 and c = 1 mod p; c = 3, p = 2 is such a case
    assert leading_term_count(3, 0, 2, 2) == 0
    assert leading_term_count(2, 0, 2, 2) == 1
    assert leading_term_count(4, 0, 2, 2) == 2
    # q = p block kill: norm^r(c) - p * norm^r(c-1) with equal powers
    assert leading_term_count(2, 1, 2, 2) == 0
    assert leading_term_count(2, 1, 4, 2) == 2


def test_chain_disc_exponent():
    assert chain_disc_exponent((2, 2), CTX212) == 6
    assert chain_disc_exponent((2,), CTX212) == 4
    assert chain_disc_exponent((4,), CTX212) == 8
    assert chain_disc_exponent((2,), CTX312) == 12
    assert chain_disc_exponent((), CTX211) == 0


def test_enumerate_chains():
    # chains are non-increasing with entries > 1 and length <= max_len;
    # entries 1 mod p are generated but always carry weight zero
    assert set(enumerate_chains(8, 2, CTX212)) == {(4,), (3, 2)}
    assert set(enumerate_chains(6, 2, CTX212)) == {(2, 2), (3,)}
    assert list(enumerate_chains(0, 2, CTX212)) == [()]
    for target in (6, 8, 10, 12):
        for chain in enumerate_chains(target, 2, CTX212):
            assert chain_disc_exponent(chain, CTX212) == target
            assert list(chain) == sorted(chain, reverse=True)
            assert all(c > 1 for c in chain)
            if any(c % CTX212.p == 1 for c in chain):
                assert chain_term_count(chain, 2, CTX212) == 0
                assert chain_term_count(chain, 8, CTX212) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumerate_chains_matches_brute_force(p):
    # every non-increasing tuple with entries in [1, top], from itertools,
    # bucketed by exponent.  An entry is at most c_1 <= e / w_1, so the
    # buckets hold every chain of each exponent e <= top * w_1.
    for r in range(1, 6):
        ctx = make_context(p, 1, r)
        w1 = chain_weights(ctx)[0]
        top = max(6, 200 // w1)
        by_target = {}
        for length in range(r + 1):
            for chain in combinations_with_replacement(range(top, 0, -1), length):
                by_target.setdefault(chain_disc_exponent(chain, ctx), []).append(chain)
        targets = set(range(201)) | {e for e in by_target if e <= top * w1}
        for max_len in range(r + 1):
            for target in sorted(targets):
                want = sorted((c for c in by_target.get(target, ())
                               if len(c) <= max_len), key=lambda c: (len(c), c))
                assert enumerate_chains(target, max_len, ctx) == want, \
                    (r, max_len, target)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumerate_nonvanishing_chains_filters_the_full_list(p):
    # the walk that skips entries 1 mod p lists exactly the full list
    # without the chains that have one; a target off the lattice of the
    # weights, all multiples of p - 1, has no chain at all
    for r in range(1, 5):
        ctx = make_context(p, 1, r)
        for max_len in range(r + 1):
            for target in range(241):
                full = enumerate_chains(target, max_len, ctx)
                kept = enumerate_chains(target, max_len, ctx, nonvanishing=True)
                assert kept == [c for c in full if all(x % p != 1 for x in c)], \
                    (r, max_len, target)
                if target % (p - 1):
                    assert full == [], (r, max_len, target)


_LATTICE_GRID = [(2, 1, r) for r in range(1, 6)] + [(3, 1, 3), (5, 1, 2)]


@pytest.mark.parametrize("pnr", _LATTICE_GRID,
                         ids=lambda pnr: "".join(map(str, pnr)))
def test_no_kept_chain_off_the_lattice(pnr):
    # a chain with no entry 1 mod p has an exponent on the lattice of
    # kept_step (even at p = 2, a multiple of p - 1 otherwise): out to
    # twice the pole degree D_r, every other target has no kept chain,
    # neither in the pruned walk nor in the full list
    p, _, r = pnr
    ctx = make_context(*pnr)
    top = 2 * sum(delta_exponents(ctx, j)[1] for j in range(1, r + 1))
    off = [target for target in range(top + 1) if target % kept_step(p)]
    assert len(off) == top - top // kept_step(p)
    for target in off:
        assert enumerate_chains(target, r, ctx, nonvanishing=True) == [], target
        assert all(any(x % p == 1 for x in chain)
                   for chain in enumerate_chains(target, r, ctx)), target


def test_chain_term_count_q_equals_p_kill():
    # equal-pair chains die at q = p because the j = 1 slot hits q = p
    assert chain_term_count((2, 2), 2, CTX212) == 0
    assert chain_term_count((2, 2), 4, CTX222) == 6


def test_local_factor_against_tally_entry():
    # e-weighted sum reproduces the q = 4 exponent-6 count of 4
    from ascount.counting import local_count
    assert local_count(CTX222, 6) == 4
    assert local_count(CTX212, 6) == 0


# ---------------------------------------------------------------------------
# two-level compositions
# ---------------------------------------------------------------------------


def test_two_level_census():
    # refining a composition of h splits each part or not: 3^(h-1) shapes
    for h in range(1, 8):
        shapes = list(enumerate_two_level(h))
        assert len(shapes) == 3 ** (h - 1)
        assert len(set(shapes)) == len(shapes)


def test_admissible_two_level_census():
    # inner parts bounded by p-1; at p = 2 only singleton inner parts
    # survive, collapsing to plain compositions
    for h in range(1, 7):
        assert len(list(enumerate_admissible_two_level(h, 2))) == 2 ** (h - 1)
    for h in range(1, 5):
        # p large enough never cuts anything
        assert len(list(enumerate_admissible_two_level(h, 7))) == 3 ** (h - 1)
    # built once per (h, p), in the order of enumerate_two_level
    built = enumerate_admissible_two_level(4, 3)
    assert enumerate_admissible_two_level(4, 3) is built
    assert built == tuple(t for t in enumerate_two_level(4) if t.admissible(3))


# Reference two-level structure of a chain, by its (k, l) profile; the
# library builds two-level compositions only by enumerating them.


def two_level_of(chain, ctx: PrimeContext) -> TwoLevelComposition:
    """Two-level structure of a chain: write c = p*k + l + 1 with l in
    [1, p-1]; outer blocks are runs of k, inner blocks runs of l within them.

    Raises ValueError if some entry has c = 1 mod p (no valid l exists; such
    chains carry coefficient count zero and never reach this refinement).
    """
    _validate_chain(chain)
    if not chain:
        raise ValueError("the empty chain has no two-level structure")
    profile = chain_profile(chain, ctx.p)
    outer, inner = [], []
    for _, krun in groupby(profile, key=lambda kl: kl[0]):
        krun = list(krun)
        outer.append(len(krun))
        inner.append(tuple(sum(1 for _ in grp)
                           for _, grp in groupby(kl[1] for kl in krun)))
    return TwoLevelComposition(tuple(outer), tuple(inner))


def chain_profile(chain, p: int):
    """Per-entry pairs (k, l) with c = p*k + l + 1, l in [1, p-1]."""
    out = []
    for c in chain:
        l = (c - 1) % p
        if l == 0:
            raise ValueError(f"conductor exponent {c} is 1 mod p")
        out.append(((c - 1 - l) // p, l))
    return out


def chain_from_profile(profile, p: int) -> tuple:
    """Inverse of chain_profile (the profile must give a valid chain)."""
    chain = tuple(p * k + l + 1 for k, l in profile)
    _validate_chain(chain)
    return chain


def test_chain_profile_roundtrip_examples():
    for chain, p in (((4, 2, 2), 2), ((6, 5, 2), 3), ((8, 3, 3, 2), 5)):
        profile = chain_profile(chain, p)
        assert chain_from_profile(profile, p) == tuple(chain)


@settings(max_examples=80)
@given(st.integers(2, 5).flatmap(
    lambda p: st.tuples(st.just(p),
                        st.lists(st.tuples(st.integers(0, 3),
                                           st.integers(1, p - 1)),
                                 min_size=1, max_size=4))))
def test_chain_profile_roundtrip_random(args):
    p, pairs = args
    # build a legal non-increasing chain from (k, l) digits, then round-trip
    chain = sorted((p * k + l + 1 for k, l in pairs), reverse=True)
    profile = chain_profile(tuple(chain), p)
    assert chain_from_profile(profile, p) == tuple(chain)


def test_two_level_of_matches_structure():
    theta = two_level_of((2, 2), CTX222)
    assert isinstance(theta, TwoLevelComposition)
    # g_theta(X) for one inner block of size 2 is (X - 1)(X - 2)
    assert structure_poly_value(theta, 2, 2) == 0
    assert structure_poly_value(theta, 4, 2) == 6
    assert structure_poly_value(theta, Fraction(1, 2), 2) == Fraction(3, 4)


def test_structure_poly_value_single():
    theta = two_level_of((4,), CTX212)
    # single inner block of size 1: g(X) = X - 1
    assert structure_poly_value(theta, 5, 2) == 4
