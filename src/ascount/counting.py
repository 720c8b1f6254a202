"""Counting elementary abelian extensions by discriminant.

Closed-form counts come from summing weighted conductor chains; the brute
force oracles enumerate subspaces of reduced representatives directly and
tally the same discriminants.  The two paths share no code beyond the field
layer, so agreement is a meaningful check.
"""

from __future__ import annotations

from itertools import combinations, product

from .artin_schreier import (
    chain_at_place,
    conductor_exponent,
    constant_reps,
    disc_exponent_via_lines,
    line_reps,
    make_rep,
    rep_scale,
)
from .compositions import (
    chain_disc_exponent,
    chain_term_count,
    delsarte_weight,
    enumerate_chains,
    flag_count,
    gaussian_binomial,
    run_composition,
)
from .errors import InvariantViolation
from .fields import Divisor, PrimeContext, Place, places, residue_field

__all__ = [
    "factor_coefficient",
    "factor_coefficients",
    "local_factor_coefficient",
    "local_count",
    "global_count",
    "counts_by_degree",
    "effective_divisors",
    "enumerate_local",
    "enumerate_global",
    "candidate_vectors",
    "discriminant_divisor",
]


# ---------------------------------------------------------------------------
# closed-form counts
# ---------------------------------------------------------------------------


def factor_coefficients(ctx: PrimeContext, f: int, exponent: int,
                        norms) -> list:
    """Coefficient of the depth-f local factor at places of each given norm.

    Sums, over conductor chains of length at most f realizing the given
    discriminant exponent, the number of flagged subspace configurations
    with that chain.  Depth f is the number of ramified generators tracked;
    the exponent-0 coefficient is 1 for every f.  The chains do not depend
    on the norm, so they are enumerated once for all norms.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    totals = [0] * len(norms)
    for chain in enumerate_chains(exponent, f, ctx):
        omega = run_composition(chain)
        weight = gaussian_binomial(f, len(chain), ctx.p) * flag_count(omega, ctx.p)
        for k, norm in enumerate(norms):
            totals[k] += weight * chain_term_count(chain, norm, ctx)
    return totals


def factor_coefficient(ctx: PrimeContext, f: int, exponent: int,
                       norm: int) -> int:
    """factor_coefficients at a single norm."""
    return factor_coefficients(ctx, f, exponent, (norm,))[0]


def local_factor_coefficient(ctx: PrimeContext, f: int, exponent: int,
                             place_degree: int = 1) -> int:
    """factor_coefficient at a place of F_q(t) of the given degree."""
    return factor_coefficient(ctx, f, exponent, ctx.q ** place_degree)


def _weights(ctx: PrimeContext) -> list:
    return [delsarte_weight(f, ctx) for f in range(ctx.r + 1)]


def _weighted_total(weights, factor_values) -> int:
    """Sum of weights[f] * factor_values[f], the weights from _weights;
    must come out a non-negative integer when the factors are counts."""
    total = sum(w * v for w, v in zip(weights, factor_values))
    if total.denominator != 1 or total < 0:
        raise InvariantViolation(f"count came out {total}, not a natural number")
    return int(total)


def local_count(ctx: PrimeContext, exponent: int) -> int:
    """Number of degree-p^r elementary abelian extensions of F_q((t)) whose
    discriminant exponent equals `exponent`."""
    values = [local_factor_coefficient(ctx, f, exponent) for f in range(ctx.r + 1)]
    return _weighted_total(_weights(ctx), values)


def _divisor_count(ctx: PrimeContext, divisor: Divisor, weights: list,
                   factors: dict) -> int:
    """global_count with the weights and a {(f, exponent, place degree):
    local factor coefficient} memo supplied by the caller."""
    values = []
    for f in range(ctx.r + 1):
        prod_f = 1
        for place, e in divisor.items():
            key = (f, e, place.degree)
            if key not in factors:
                factors[key] = local_factor_coefficient(ctx, f, e, place.degree)
            prod_f *= factors[key]
            if prod_f == 0:
                break
        values.append(prod_f)
    return _weighted_total(weights, values)


def global_count(ctx: PrimeContext, divisor: Divisor) -> int:
    """Number of degree-p^r elementary abelian extensions of F_q(t) whose
    discriminant is exactly the given effective divisor."""
    return _divisor_count(ctx, divisor, _weights(ctx), {})


def global_count_by_degree(ctx: PrimeContext, degree: int) -> int:
    """Total number of extensions of F_q(t) with discriminant degree exactly
    `degree`, by direct enumeration of effective divisors (desk scale).
    The weights and each local factor coefficient are computed once."""
    weights, factors = _weights(ctx), {}
    return sum(_divisor_count(ctx, d, weights, factors)
               for d in effective_divisors(ctx, degree))


def counts_by_degree(tally: dict) -> dict:
    """Collapse a {Divisor: count} tally to {degree: count}."""
    out: dict = {}
    for divisor, c in tally.items():
        d = divisor.degree()
        out[d] = out.get(d, 0) + c
    return dict(sorted(out.items()))


def effective_divisors(ctx: PrimeContext, degree: int) -> list:
    """All effective divisors of exact degree m; there are (q^(m+1)-1)/(q-1).

    An iterative sweep over the places of degree <= m: partial[k] holds the
    divisors of degree k on the places seen so far, and each place of
    degree d extends them with multiplicity e, taking degrees from m down
    so that a place is never used twice.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    partial = [[] for _ in range(degree + 1)]
    partial[0].append(())
    for d in range(1, degree + 1):
        for place in places(ctx, d):
            for k in range(degree, d - 1, -1):
                for e in range(1, k // d + 1):
                    partial[k].extend(pairs + ((place, e),)
                                      for pairs in partial[k - e * d])
    out = [Divisor(pairs) for pairs in partial[degree]]
    expected = (ctx.q ** (degree + 1) - 1) // (ctx.q - 1)
    if len(out) != expected:
        raise InvariantViolation(
            f"found {len(out)} divisors of degree {degree}, expected {expected}")
    return out


# ---------------------------------------------------------------------------
# local oracle: subspaces of truncated representative coordinates
# ---------------------------------------------------------------------------


def _pfree_indices(p: int, cap: int) -> list:
    return [i for i in range(1, cap + 1) if i % p]


def _rref_bases(p: int, dim: int, r: int):
    """Row-reduced bases of all r-dimensional subspaces of F_p^dim."""
    for pivots in combinations(range(dim), r):
        pivot_set = set(pivots)
        free = [(i, c) for i in range(r)
                for c in range(pivots[i] + 1, dim) if c not in pivot_set]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * dim for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield tuple(tuple(row) for row in rows)


def _fp_lines(p: int, basis):
    """One representative per line of the span, normalized the same way as
    line_reps: row k plus arbitrary multiples of the later rows."""
    r = len(basis)
    dim = len(basis[0])
    for k in range(r):
        for lam in product(range(p), repeat=r - k - 1):
            vec = list(basis[k])
            for j, l in enumerate(lam):
                if l:
                    row = basis[k + 1 + j]
                    for c in range(dim):
                        vec[c] = (vec[c] + l * row[c]) % p
            yield tuple(vec)


def _line_conductor(vec, n: int, indices) -> int:
    # layout: slot 0 is the constant coordinate, then n slots per index
    for k in range(len(indices) - 1, -1, -1):
        if any(vec[1 + n * k : 1 + n * (k + 1)]):
            return indices[k] + 1
    return 0


def enumerate_local(ctx: PrimeContext, max_exponent: int) -> dict:
    """Brute-force local counts {exponent: count} for exponents <= max_exponent.

    Enumerates every r-dimensional subspace of the representative space
    truncated at the largest index a single line may reach; chains force at
    least p^(r-1) lines to share the top conductor, so deeper indices cannot
    appear in any subspace within the exponent bound.
    """
    if max_exponent < 0:
        raise ValueError("max_exponent must be non-negative")
    p, n, r = ctx.p, ctx.n, ctx.r
    cap = max_exponent // ((p - 1) * p ** (r - 1)) - 1
    indices = _pfree_indices(p, cap)
    dim = 1 + n * len(indices)
    tally = {m: 0 for m in range(max_exponent + 1)}
    seen = 0
    for basis in _rref_bases(p, dim, r):
        seen += 1
        cond_sum = 0
        for vec in _fp_lines(p, basis):
            cond_sum += _line_conductor(vec, n, indices)
        d = (p - 1) * cond_sum
        if d <= max_exponent:
            tally[d] += 1
    if r <= dim and seen != gaussian_binomial(dim, r, p):
        raise InvariantViolation("subspace enumeration miscounted")
    return tally


# ---------------------------------------------------------------------------
# global oracle: budget-limited enumeration of representative subspaces
# ---------------------------------------------------------------------------


def _principal_options(ctx: PrimeContext, place: Place, budget: int) -> list:
    """Nonzero reduced principal parts at the place whose single-line cost
    (p-1) * (depth+1) * deg fits the budget, as (cost, part) pairs."""
    p = ctx.p
    w = (p - 1) * place.degree
    fld = residue_field(ctx, place)
    elems = list(fld.elements())
    nonzero = [z for z in elems if not fld.is_zero(z)]
    out = []
    for a in range(1, budget // w):
        if a % p == 0:
            continue
        lower = [i for i in range(1, a) if i % p]
        cost = w * (a + 1)
        for top in nonzero:
            for rest in product(elems, repeat=len(lower)):
                part = {i: z for i, z in zip(lower, rest) if not fld.is_zero(z)}
                part[a] = top
                out.append((cost, part))
    return out


def candidate_vectors(ctx: PrimeContext, max_degree: int) -> list:
    """Reduced representatives whose own discriminant degree, as a single
    line, is at most max_degree.  Any line of a subspace within the budget
    must be on this list, which is what makes the oracle exhaustive."""
    plist = []
    for d in range(1, max_degree // (2 * (ctx.p - 1)) + 1):
        plist.extend(places(ctx, d))
    options = [(pl, _principal_options(ctx, pl, max_degree)) for pl in plist]
    combos = []

    def rec(i, remaining, chosen):
        if i == len(options):
            combos.append(dict(chosen))
            return
        rec(i + 1, remaining, chosen)
        place, opts = options[i]
        for cost, part in opts:
            if cost <= remaining:
                chosen.append((place, part))
                rec(i + 1, remaining - cost, chosen)
                chosen.pop()

    rec(0, max_degree, [])
    vectors = []
    for const in constant_reps(ctx):
        for combo in combos:
            vectors.append(make_rep(ctx, const, combo))
    return vectors


def discriminant_divisor(ctx: PrimeContext, lines) -> Divisor:
    """Discriminant divisor of the subspace with the given line representatives."""
    support = set()
    for line in lines:
        support.update(line.support())
    pairs = []
    for place in support:
        e = disc_exponent_via_lines(ctx, lines, place)
        if e > 0:
            pairs.append((place, e))
    return Divisor(pairs)


def line_discriminant(ctx: PrimeContext, rep) -> Divisor:
    """Discriminant divisor of the single line spanned by one representative."""
    pairs = []
    for place in rep.support():
        e = (ctx.p - 1) * conductor_exponent(rep, place)
        if e > 0:
            pairs.append((place, e))
    return Divisor(pairs)


def _span_key(ctx: PrimeContext, lines) -> frozenset:
    # all nonzero elements of the span: canonical regardless of basis choice
    return frozenset(
        rep_scale(ctx, line, k) for line in lines for k in range(1, ctx.p))


def enumerate_global(ctx: PrimeContext, max_degree: int, check: bool = False) -> dict:
    """Brute-force global tally {Divisor: count} up to discriminant degree.

    Builds every candidate line representative within the budget, then every
    r-dimensional subspace with all basis vectors on that list.  Since the
    single-line cost is monotone under enlarging the subspace, no subspace
    within the budget is missed.  With check=True the conductor multiset at
    every ramified place is validated against the chain structure.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    vectors = [v for v in candidate_vectors(ctx, max_degree) if not v.is_zero()]
    tally: dict = {}
    seen = set()
    for combo in combinations(vectors, ctx.r):
        try:
            lines = line_reps(ctx, list(combo))
        except ValueError:
            continue
        key = _span_key(ctx, lines)
        if key in seen:
            continue
        seen.add(key)
        disc = discriminant_divisor(ctx, lines)
        if disc.degree() > max_degree:
            continue
        if check:
            _check_chains(ctx, lines, disc)
        tally[disc] = tally.get(disc, 0) + 1
    return tally


def _check_chains(ctx: PrimeContext, lines, disc: Divisor) -> None:
    for place, e in disc.items():
        chain = chain_at_place(ctx, lines, place)
        if chain_disc_exponent(chain, ctx) != e:
            raise InvariantViolation(
                f"chain {chain} at {place} does not give exponent {e}")
        if any(c % ctx.p == 1 for c in chain):
            raise InvariantViolation(
                f"conductor exponent 1 mod p in chain {chain} at {place}")
