"""Counting elementary abelian extensions by discriminant.

Closed-form counts come from summing weighted conductor chains; the brute
force oracles enumerate subspaces of reduced representatives directly and
tally the same discriminants.  The two paths share no code beyond the field
layer, so agreement is a meaningful check.  The chains and their flag
counts depend on neither n, the depth nor the norm, so _chain_table
enumerates them once per (p, r, exponent) and every closed-form count
reads that one table.  The walk skips every entry 1 mod p, since such a
chain's term count is 0 at every norm, and the table keeps only how many
of the other chains share each run composition omega and free-index
total K: such a chain counts N^K times a product fixed by omega, which
_run_product evaluates once per (p, omega, norm).  The exponents of the
kept chains lie on the lattice of compositions.kept_step, and
factor_support lists the exponents an Euler-factor expansion must sum.

The oracles.  A C_p^r-extension is an r-dimensional subspace of
Artin-Schreier classes; its discriminant is (p-1) times the sum of the
conductors of its (p^r-1)/(p-1) lines.  A class is a vector of F_p digits
packed into one int: digit 0 is the trace F_q -> F_p of the constant (the
trace is linear with kernel {x^p - x}), then a block of n*deg digits per
(place, index prime to p) holds the base-p digits of the principal-part
coefficient, shallowest index first, so a vector's leading digit lies in
its deepest block.  At every place p^(r-1) lines share the top conductor,
so no line of a subspace within a budget B costs more than B // p^(r-1)
alone; candidates are built against that cap.  _subspaces walks reduced
row-echelon bases and drops a partial basis once one of its lines is no
candidate or their costs pass B: costs are non-negative and those lines
lie in every subspace containing it, so no subspace within B is lost.  The
last row completes the subspace, which is yielded on the spot: its span is
never built.  enumerate_global packs the conductors of each candidate line
into one int, a fixed-width slot per place, so the conductor sums of a
subspace are one sum of ints, decoded to a Divisor once per distinct sum.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce
from itertools import islice, product
from operator import eq, itemgetter, lt, mul, xor

from .artin_schreier import (
    chain_at_place,
    constant_reps,
    disc_exponent_via_lines,
    line_reps,
    make_rep,
)
from .compositions import (
    chain_disc_exponent,
    chain_term_count,
    chain_weights,
    enumerate_chains,
    flag_count,
    free_index_count,
    gaussian_binomial,
    kept_step,
    prefix_sums,
    weighted_counts,
)
from .errors import InvariantViolation
from .fields import Divisor, PrimeContext, make_context, places

# ---------------------------------------------------------------------------
# closed-form counts
# ---------------------------------------------------------------------------


# Largest local discriminant exponent e (count local --exp, a divisor
# multiplicity ^e).  A count has about e log2(q) / 2 bits: at e = 2^15
# `count local --p 2 --exp 32768` took 0.6 s and 37 MB at r = 1, 0.65 s
# and 39 MB at r = 2 (Python 3.11, 2-core Xeon VM).  There are about
# e^(r-1) chains, which _MAX_CHAINS bounds.
_MAX_EXPONENT = 2 ** 15

# Largest number of conductor chains a count or an Euler-factor expansion
# may enumerate, counted by _chain_counts before _chain_table walks any:
# by local_count and global_count at one exponent, and by the Euler-factor
# expansions of dirichlet over every exponent up to their horizon.  The
# counts themselves took 6 ms at (2,1,8) for every exponent up to 7172.
# The walk lists only the chains with no entry 1 mod p, and memory grows
# with those: `count local --p 2` took 3.0-3.6 s and 194 MB at r = 3,
# e = 32768 (3,198,001 chains, 800,086 listed), and 2.5-2.7 s and 139 MB at
# r = 4, e = 8192 (4,598,444 chains, 581,532 listed).  The local form at
# (2,1,r) expands out to twice the pole degree: 620,700 chains at r = 6
# (17,812 listed; `series local` about 1 s), 7,112,342 at r = 7 (112,749;
# about 1.5 s), 82,104,262 at r = 8 and 953,203,121 at r = 9 (Python 3.11,
# 2-core Xeon VM).
_MAX_CHAINS = 2 ** 23


@lru_cache(maxsize=None)
def _chain_counts(p: int, r: int, top: int) -> tuple:
    """(len(enumerate_chains(e, r, ctx)) for e = 0..top), in one
    O(r * top) pass of ints.  Writing c_j = d_j + ... + d_h with d_h >= 1
    and the other d_k >= 0, a chain of length h has exponent
    sum_k d_k W_k over the prefix sums W_k of the chain weights: it is a
    way to pay the exponent in coins W_1, ..., W_h that uses W_h at least
    once."""
    ways = [1] + [0] * top    # ways[m]: m paid in the coins so far
    counts = [1] + [0] * top  # the empty chain pays 0
    for coin in prefix_sums(chain_weights(make_context(p, 1, r))):
        for m in range(coin, top + 1):
            ways[m] += ways[m - coin]
            counts[m] += ways[m - coin]
    return tuple(counts)


def _refuse_many_chains(ctx: PrimeContext, exponent: int) -> None:
    """ValueError above _MAX_CHAINS chains; an exponent past _MAX_EXPONENT
    or below 0 is left to factor_coefficients to refuse."""
    if 0 <= exponent <= _MAX_EXPONENT:
        chains = _chain_counts(ctx.p, ctx.r, exponent)[exponent]
        if chains > _MAX_CHAINS:
            raise ValueError(f"discriminant exponent {exponent}: {chains} "
                             f"conductor chains exceed {_MAX_CHAINS}")


def refuse_chain_expansion(ctx: PrimeContext, top: int) -> None:
    """ValueError if the chains of every exponent 0..top, which an Euler
    factor expanded out to u^top lists, exceed _MAX_CHAINS together, or if
    top passes _MAX_EXPONENT."""
    if top > _MAX_EXPONENT:
        raise ValueError(f"discriminant exponent {top} exceeds {_MAX_EXPONENT}")
    chains = sum(_chain_counts(ctx.p, ctx.r, top))
    if chains > _MAX_CHAINS:
        raise ValueError(f"Euler factor to u^{top}: {chains} "
                         f"conductor chains exceed {_MAX_CHAINS}")


@lru_cache(maxsize=None)
def _chain_table(p: int, r: int, exponent: int) -> tuple:
    """The chains of length at most r with the given discriminant exponent,
    summed by run composition omega as (length, flag_count, omega, buckets),
    shortest first.  Nothing here depends on n, the depth or the norm, so
    one table per (p, r, exponent) serves every context, depth and norm.

    Only the chains with no entry c = 1 mod p are listed: such an entry's
    block starts with leading_term_count(c, 0, N, p) = 0, so the chain's
    chain_term_count vanishes at every norm N.  Every other entry has
    free_index_count(c) = free_index_count(c - 1) + 1, so
    leading_term_count(c, j, N, p) = N^fic(c - 1) (N - p^j) and a kept
    chain counts N^K _run_product(p, omega, N), K = sum_i fic(c_i - 1).
    The buckets of omega are therefore the (K, number of chains) pairs.

    Every kept chain's exponent lies on the lattice of
    compositions.kept_step (2 at p = 2, p - 1 otherwise; the proof is in
    its docstring), so off it the walk is empty and the table is ().  The
    chains are first tallied by length, the pattern of equal neighbours,
    which fixes omega, and K, with fic(c - 1) written out as
    c - 2 - (c - 2) // p."""
    chains = enumerate_chains(exponent, r, make_context(p, 1, r),
                              nonvanishing=True)
    if not chains:
        return ()
    tally: dict = {}
    for chain in chains:
        key = (len(chain), tuple(map(eq, chain, chain[1:])),
               sum([c - 2 - (c - 2) // p for c in chain]))
        tally[key] = tally.get(key, 0) + 1
    groups: dict = {}
    for (length, equal, total), count in tally.items():
        cuts = [0, *(i for i, same in enumerate(equal, 1) if not same), length]
        # b > a drops the one empty run of the empty chain
        omega = tuple(b - a for a, b in zip(cuts, cuts[1:]) if b > a)
        groups.setdefault(omega, []).append((total, count))
    # the chains come sorted by length, so the groups are too
    return tuple((sum(omega), flag_count(omega, p), omega, tuple(buckets))
                 for omega, buckets in groups.items())


@lru_cache(maxsize=None)
def _run_product(p: int, omega: tuple, norm: int) -> int:
    """prod over the blocks b of omega of prod_{j<b} (norm - p^j): the
    chain_term_count of any kept chain of run composition omega over
    norm^K, taken on the chain p k, ..., 2p, p (k = len(omega)) with each
    entry repeated by its block.  A remainder raises InvariantViolation."""
    chain = tuple(p * (len(omega) - i) for i, b in enumerate(omega)
                  for _ in range(b))
    total = sum(free_index_count(c - 1, p) for c in chain)
    # chain_term_count reads only the context's p
    value, rem = divmod(chain_term_count(chain, norm, make_context(p, 1, 1)),
                        norm ** total)
    if rem:
        raise InvariantViolation(f"chain {chain} at norm {norm}: term count "
                                 f"is not a multiple of norm^{total}")
    return value


@lru_cache(maxsize=None)
def _binomial_row(p: int, f: int) -> tuple:
    """(gaussian_binomial(f, k, p) for k = 0..f)."""
    return tuple(gaussian_binomial(f, k, p) for k in range(f + 1))


def factor_coefficients(ctx: PrimeContext, f: int, exponent: int,
                        norms) -> list:
    """Coefficient of the depth-f local factor at places of each given norm.

    Sums, over conductor chains of length at most f realizing the given
    discriminant exponent, the number of flagged subspace configurations
    with that chain.  Depth f is the number of ramified generators tracked;
    the exponent-0 coefficient is 1 for every f.  The chains come from
    _chain_table, enumerated once per (p, r, exponent) for every depth,
    norm and call; a run composition omega adds _run_product(p, omega, N)
    times sum_K (number of chains) N^K over its buckets.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if exponent > _MAX_EXPONENT:
        raise ValueError(f"discriminant exponent {exponent} exceeds {_MAX_EXPONENT}")
    if not 0 <= f <= ctx.r:
        raise ValueError(f"depth f = {f} outside [0, r]")
    binomials = _binomial_row(ctx.p, f)
    totals = [0] * len(norms)
    for length, flags, omega, buckets in _chain_table(ctx.p, ctx.r, exponent):
        if length > f:
            break
        weight = binomials[length] * flags
        for k, norm in enumerate(norms):
            totals[k] += (weight * _run_product(ctx.p, omega, norm)
                          * sum(count * norm ** total for total, count in buckets))
    return totals


def factor_support(ctx: PrimeContext, f: int, top: int) -> list:
    """The exponents 0..top at which the depth-f factor coefficient can be
    nonzero: those on the lattice of compositions.kept_step whose chain
    table lists a chain of length at most f.  factor_coefficients is 0 at
    every other exponent, whatever the norm."""
    p, r = ctx.p, ctx.r
    return [m for m in range(0, top + 1, kept_step(p))
            if (table := _chain_table(p, r, m)) and table[0][0] <= f]


def factor_coefficient(ctx: PrimeContext, f: int, exponent: int,
                       norm: int) -> int:
    """factor_coefficients at a single norm."""
    return factor_coefficients(ctx, f, exponent, (norm,))[0]


def local_count(ctx: PrimeContext, exponent: int) -> int:
    """Number of degree-p^r elementary abelian extensions of F_q((t)) whose
    discriminant exponent equals `exponent`."""
    _refuse_many_chains(ctx, exponent)
    rows = [[factor_coefficient(ctx, f, exponent, ctx.q)]
            for f in range(ctx.r + 1)]
    return weighted_counts(ctx, rows)[0]


def _depth_values(ctx: PrimeContext, pairs, factors: dict) -> list:
    """For f = 0..r, the product over the (place degree, exponent) pairs of
    a divisor of the depth-f local factor coefficients, with a {(f,
    exponent, place degree): local factor coefficient} memo supplied by
    the caller."""
    values = []
    for f in range(ctx.r + 1):
        prod_f = 1
        for degree, e in pairs:
            key = (f, e, degree)
            if key not in factors:
                factors[key] = factor_coefficient(ctx, f, e, ctx.q ** degree)
            prod_f *= factors[key]
            if prod_f == 0:
                break
        values.append(prod_f)
    return values


def global_count(ctx: PrimeContext, divisor: Divisor) -> int:
    """Number of degree-p^r elementary abelian extensions of F_q(t) whose
    discriminant is exactly the given effective divisor."""
    for e in {e for _, e in divisor.items()}:
        _refuse_many_chains(ctx, e)
    pairs = [(place.degree, e) for place, e in divisor.items()]
    return weighted_counts(ctx, [[v] for v in _depth_values(ctx, pairs, {})])[0]


def global_count_by_degree(ctx: PrimeContext, degree: int) -> int:
    """Total number of extensions of F_q(t) with discriminant degree exactly
    `degree`, by direct enumeration of effective divisors (desk scale).

    global_count(D) depends only on the type of D, the sorted tuple of its
    (place degree, exponent) pairs.  The swept divisors are tallied by
    their sequence of such pairs, and each distinct sequence is sorted
    into its type afterwards.  The depth values are built once per type
    (each local factor coefficient once), all types are weighted in one
    weighted_counts call, which checks every distinct column, and each
    count is taken as many times as its type occurs."""
    sequences = Counter(tuple([(place.degree, e) for place, e in divisor.items()])
                        for divisor in effective_divisors(ctx, degree))
    types: Counter = Counter()
    for sequence, count in sequences.items():
        types[tuple(sorted(sequence))] += count
    factors: dict = {}
    columns = [_depth_values(ctx, key, factors) for key in types]
    counts = weighted_counts(ctx, list(zip(*columns)))
    return sum(map(mul, types.values(), counts))


def counts_by_degree(tally: dict) -> dict:
    """Collapse a {Divisor: count} tally to {degree: count}."""
    out: dict = {}
    for divisor, c in tally.items():
        d = divisor.degree()
        out[d] = out.get(d, 0) + c
    return dict(sorted(out.items()))


# Largest divisor sweep: effective_divisors (and global_count_by_degree,
# the test-suite oracle) lists all (q^(m+1)-1)/(q-1) effective divisors of
# degree m, refused above this many before any list is sized.  Time and
# memory grow with the divisors: global_count_by_degree at r = 1, the
# median of three runs each in a fresh process, took 0.41 s and 26 MB at
# q = 2, m = 15 (65,535 divisors), 0.74 s and 37 MB at m = 16, and 1.7 s
# and 58 MB at m = 17 (262,143, the largest sweep under the cap), about
# half of it listing the places of degree <= 17; at q = 3, m = 10 (88,573
# divisors) it took 0.58 s and 31 MB (Python 3.11, 2-core Xeon VM).
_MAX_DIVISORS = 2 ** 18


def effective_divisors(ctx: PrimeContext, degree: int) -> list:
    """All effective divisors of exact degree m; there are (q^(m+1)-1)/(q-1),
    refused past _MAX_DIVISORS.

    An iterative sweep over the places of degree <= m: partial[k] holds the
    (place, multiplicity) tuples of degree k on the places seen so far, and
    each place of degree d extends them with multiplicity e, taking degrees
    from m down so that a place is never used twice.  No degree k with
    0 < m - k < d is made: every later place has degree >= d, so nothing
    could complete it to degree m.

    Each place is used once, with e >= 1, in the order of places(ctx, d),
    so each tuple is a valid divisor in Place.sort_key order if those are
    strictly increasing: that is checked once per degree, and the divisors
    are then built without the per-divisor checks and sort of Divisor().
    The number found must be the census count.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    expected = 1
    for _ in range(degree):  # (q^(k+1)-1)/(q-1) by Horner, k = 1..degree
        expected = expected * ctx.q + 1
        if expected > _MAX_DIVISORS:
            raise ValueError(f"degree {degree}: more than {_MAX_DIVISORS} "
                             f"effective divisors to sweep")
    partial = [[] for _ in range(degree + 1)]
    partial[0].append(())
    for d in range(1, degree + 1):
        found = places(ctx, d)
        order = [place.sort_key() for place in found]
        if not all(map(lt, order, order[1:])):
            raise InvariantViolation(f"places of degree {d} are not in "
                                     f"strictly increasing divisor order")
        targets = [degree, *range(degree - d, d - 1, -1)]
        for place in found:
            for k in targets:
                for e in range(1, k // d + 1):
                    tail = ((place, e),)
                    partial[k].extend([pairs + tail
                                       for pairs in partial[k - e * d]])
    out = list(map(Divisor._unchecked, partial[degree]))
    if len(out) != expected:
        raise InvariantViolation(
            f"found {len(out)} divisors of degree {degree}, expected {expected}")
    return out


# ---------------------------------------------------------------------------
# brute-force oracles: one budget-pruned subspace search on packed F_p
# coordinates
# ---------------------------------------------------------------------------


def _width(p: int) -> int:
    """Bits per packed F_p digit: one for p = 2, where addition is XOR;
    otherwise room for the sum of two digits, whose top bit flags >= p
    once 2^(width-1) - p is added."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


def _adder(p: int, dim: int):
    """Digit-wise addition mod p of packed vectors of at most dim digits."""
    if p == 2:
        return xor
    w = _width(p)
    ones = sum(1 << (w * k) for k in range(dim))
    offset, flags = ((1 << (w - 1)) - p) * ones, ones << (w - 1)

    def add(a, b):
        s = a + b
        return s - (((s + offset) & flags) >> (w - 1)) * p
    return add


def _principal_parts(p: int, blocks, digits: int) -> list:
    """Every nonzero vector on the blocks [(index, digit offset)] of
    `digits` digits each, indices ascending, as (vector, top index) pairs
    with the top index non-decreasing."""
    w = _width(p)
    parts, below = [], [0]
    for index, offset in blocks:
        values = [sum(d << (w * (offset + k)) for k, d in enumerate(ds))
                  for ds in product(range(p), repeat=digits)]  # zero first
        parts.extend((v | low, index) for v in values[1:] for low in below)
        below = [v | low for v in values for low in below]
    return parts


def _subspaces(p: int, r: int, cost: dict, budget: int):
    """Yield (basis, lines, total) once for every r-dimensional subspace of
    packed F_p vectors whose lines all lie in `cost`, a {vector: line cost}
    dict closed under nonzero scaling, with total line cost <= budget.

    The reduced row-echelon basis is chosen bottom-up: each row has leading
    digit 1, its pivot above the earlier rows' and zeros at their pivots,
    and adds the p^(k-1) lines row + s, s in the span so far.  These lines
    all have the row's pivot, so none costs less than the cheapest row of
    that pivot, and the rows of a pivot, cheapest first, stop at the first
    whose cost plus p^(k-1) - 1 such minima passes the budget.
    """
    w = _width(p)
    groups: dict = {}
    for v, c in sorted(cost.items(), key=itemgetter(1)):
        pivot = (v.bit_length() - 1) // w
        if v >> (w * pivot) == 1:
            groups.setdefault(pivot, []).append((c, v))
    if sum(map(len, groups.values())) * (p - 1) != len(cost):
        raise InvariantViolation("candidate lines are not closed under scaling")
    pivots = sorted(groups)
    add = _adder(p, pivots[-1] + 1 if pivots else 0)
    expected = (p ** r - 1) // (p - 1)

    def extend(start, basis, span, lines, total, pivot_digits):
        last = len(basis) == r - 1
        for g in range(start, len(pivots)):
            group = groups[pivots[g]]
            rest = (len(span) - 1) * group[0][0]
            for c, row in group:
                if total + c + rest > budget:
                    break
                if row & pivot_digits:
                    continue
                new, running = [row], total + c
                for s in islice(span, 1, None):  # span[0] is 0
                    line = add(row, s)
                    line_cost = cost.get(line)
                    if line_cost is None or running + line_cost > budget:
                        break
                    running += line_cost
                    new.append(line)
                else:
                    if last:  # the leaf: its span is never read
                        every = lines + new
                        if len(set(every)) != expected:
                            raise InvariantViolation(f"{len(set(every))} distinct "
                                                     f"lines, expected {expected}")
                        yield basis + [row], every, running
                    else:
                        grown = span + new
                        for _ in range(p - 2):
                            grown += [add(s, row) for s in grown[-len(span):]]
                        yield from extend(
                            g + 1, basis + [row], grown, lines + new, running,
                            pivot_digits | (((1 << w) - 1) << (w * pivots[g])))

    yield from extend(0, [], [0], [], 0, 0)


def enumerate_local(ctx: PrimeContext, max_exponent: int) -> dict:
    """Brute-force local counts {exponent: count} for exponents <= max_exponent.

    A class of F_q((t)) has the coordinates of the module docstring at the
    one place t; a line costs (p-1) * (top index + 1), and every vector
    within the p^(r-1) cap is a candidate, which truncates the indices.
    """
    if max_exponent < 0:
        raise ValueError("max_exponent must be non-negative")
    p, n, r = ctx.p, ctx.n, ctx.r
    cap = max_exponent // p ** (r - 1)
    indices = [i for i in range(1, cap // (p - 1)) if i % p]
    parts = _principal_parts(p, [(i, 1 + n * k) for k, i in enumerate(indices)], n)
    cost = {c: 0 for c in range(1, p)}
    cost.update({v | c: (p - 1) * (i + 1) for v, i in parts for c in range(p)})
    tally = dict.fromkeys(range(max_exponent + 1), 0)
    for _, _, total in _subspaces(p, r, cost, max_exponent):
        tally[total] += 1
    return tally


def _blocks(ctx: PrimeContext, max_degree: int) -> list:
    """The (place, index, digit offset) blocks of candidate_vectors: n*deg
    digits for each place and index prime to p that a single line of cost
    <= max_degree reaches, shallowest index first after the constant's
    digit 0, so a vector's pivot lies in its deepest block."""
    p = ctx.p
    pairs = [(i, place) for d in range(1, max_degree // (2 * (p - 1)) + 1)
             for place in places(ctx, d)
             for i in range(1, max_degree // ((p - 1) * d)) if i % p]
    blocks, offset = [], 1
    for i, place in sorted(pairs, key=itemgetter(0)):
        blocks.append((place, i, offset))
        offset += ctx.n * place.degree
    return blocks


def candidate_vectors(ctx: PrimeContext, max_degree: int) -> list:
    """Every reduced class whose own discriminant degree, as a single line,
    is at most max_degree, as (packed vector, ((place, conductor), ...)),
    the zero class included.  In the blocks of _blocks a coefficient of
    F_{q^d} is the base-p digits of its d codes.  Each place offers its
    nonzero principal parts, cost (p-1) * deg * (top index + 1), and a
    budget recursion ORs in at most one per place; no GlobalRep is built.
    """
    p, n = ctx.p, ctx.n
    blocks = _blocks(ctx, max_degree)
    options = []
    for place in dict.fromkeys(pl for pl, _, _ in blocks):
        parts = _principal_parts(p, [(i, off) for pl, i, off in blocks if pl == place],
                                 n * place.degree)
        weight = (p - 1) * place.degree
        options.append([(weight * (i + 1), v, (place, i + 1)) for v, i in parts])
    found = []

    def rec(start, remaining, vec, conductors):
        found.append((vec, conductors))
        for k in range(start, len(options)):
            for cost, part, cond in options[k]:
                if cost > remaining:
                    break
                rec(k + 1, remaining - cost, vec | part, conductors + (cond,))

    rec(0, max_degree, 0, ())
    return [(vec | c, conds) for c in range(p) for vec, conds in found]


@lru_cache(maxsize=None)
def _constants_by_trace(ctx: PrimeContext) -> tuple:
    """constant_reps indexed by their trace to F_p."""
    def trace(a):
        return reduce(ctx.fadd, (ctx.fpow(a, ctx.p ** k) for k in range(ctx.n)))
    reps = sorted(constant_reps(ctx), key=trace)
    if [trace(a) for a in reps] != list(range(ctx.p)):
        raise InvariantViolation(f"constants {reps} do not have traces 0..p-1")
    return tuple(reps)


def _decode(ctx: PrimeContext, blocks, vec: int):
    """The GlobalRep with coordinates vec in the layout of _blocks."""
    p, n, w = ctx.p, ctx.n, _width(ctx.p)

    def digit(k):
        return (vec >> (w * k)) & ((1 << w) - 1)

    principal: dict = {}
    for place, i, offset in blocks:
        z = tuple(sum(digit(offset + n * j + k) * p ** k for k in range(n))
                  for j in range(place.degree))
        if any(z):
            principal.setdefault(place, {})[i] = z
    return make_rep(ctx, _constants_by_trace(ctx)[digit(0)], principal)


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


def enumerate_global(ctx: PrimeContext, max_degree: int, check: bool = False) -> dict:
    """Brute-force global tally {Divisor: count} up to discriminant degree.

    _subspaces searches the spans of the candidates within the p^(r-1) cap
    of the module docstring.  Each candidate's conductors are packed into
    one int, conductor c at the k-th place as c << (slot * k): a slot of
    max_degree.bit_length() + 1 bits holds any conductor sum within the
    budget, so the packed ints of a subspace's lines add without carries
    to its conductor sums.  The tally counts these sums, in first-seen
    order, and decodes each to a Divisor once.  With check=True each
    basis is decoded to GlobalReps, whose line_reps must give the same
    divisor and valid conductor chains: the representative layer referees
    the coordinates.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    p, cap = ctx.p, max_degree // ctx.p ** (ctx.r - 1)
    blocks = _blocks(ctx, cap)
    found = list(dict.fromkeys(pl for pl, _, _ in blocks))
    # a place's conductor sum is at most max_degree, so it fits its slot
    slot = max_degree.bit_length() + 1
    where = {place: (slot * k, place.degree) for k, place in enumerate(found)}
    packed, cost = {}, {}
    for v, conds in candidate_vectors(ctx, cap):
        if v:
            key = degree = 0
            for place, c in conds:
                shift, d = where[place]
                key += c << shift
                degree += d * c
            packed[v], cost[v] = key, (p - 1) * degree

    def divisor(key: int) -> Divisor:
        pairs, mask = [], (1 << slot) - 1
        for place in found:
            if key & mask:
                pairs.append((place, (p - 1) * (key & mask)))
            key >>= slot
        return Divisor(pairs)

    tally: dict = {}
    for basis, lines, _ in _subspaces(p, ctx.r, cost, max_degree):
        key = sum(map(packed.__getitem__, lines))
        if check:
            disc = divisor(key)
            reps = line_reps(ctx, [_decode(ctx, blocks, v) for v in basis])
            if discriminant_divisor(ctx, reps) != disc:
                raise InvariantViolation(
                    f"coordinates give {disc}, representatives "
                    f"{discriminant_divisor(ctx, reps)}")
            _check_chains(ctx, reps, disc)
        tally[key] = tally.get(key, 0) + 1
    return {divisor(key): count for key, count in tally.items()}


def _check_chains(ctx: PrimeContext, lines, disc: Divisor) -> None:
    for place, e in disc.items():
        chain = chain_at_place(ctx, lines, place)
        if chain_disc_exponent(chain, ctx) != e:
            raise InvariantViolation(
                f"chain {chain} at {place} does not give exponent {e}")
        if any(c % ctx.p == 1 for c in chain):
            raise InvariantViolation(
                f"conductor exponent 1 mod p in chain {chain} at {place}")
