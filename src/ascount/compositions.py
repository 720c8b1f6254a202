"""Combinatorics of conductor chains.

A chain is a non-increasing tuple of positive integers (c_1 >= ... >= c_h),
the distinct per-step conductor exponents of a wildly ramified C_p^r
extension at one place, with h <= r.  The counting formulas attach to each
chain a composition (its runs of equal values), a flag count, and a signed
coefficient count; this module provides those pieces as exact integers,
plus the two-level refinement used for the closed-form Euler factors, and
the weighting step every count goes through: weighted_counts, Delsarte's
inclusion-exclusion over subgroups, with one checked exact division by
|GL_r(F_p)| per count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation
from .fields import PrimeContext


def gaussian_binomial(x: int, y: int, p: int) -> int:
    """Number of y-dimensional subspaces of F_p^x (exact integer)."""
    if x < 0 or y < 0:
        raise ValueError("gaussian_binomial needs non-negative arguments")
    if y > x:
        return 0
    num = 1
    for i in range(x - y + 1, x + 1):
        num *= p ** i - 1
    den = 1
    for i in range(1, y + 1):
        den *= p ** i - 1
    if num % den:
        raise InvariantViolation(f"q-binomial quotient {num}/{den} is not exact")
    return num // den


def compositions(h: int):
    """All ordered tuples of positive integers summing to h (2^(h-1) many),
    first part varying slowest."""
    if h < 0:
        raise ValueError("compositions of a negative integer")
    if h == 0:
        return [()]
    out = []
    for first in range(1, h + 1):
        for rest in compositions(h - first):
            out.append((first,) + rest)
    return out


def prefix_sums(parts) -> tuple:
    return tuple(itertools.accumulate(parts))


def flag_count(omega, p: int) -> int:
    """Number of flags of F_p-subspaces with successive dimensions given by
    the prefix sums of the composition omega (any sequence of parts)."""
    return _flag_count(tuple(omega), p)


@lru_cache(maxsize=None)
def _flag_count(omega: tuple, p: int) -> int:
    """flag_count, memoised per (omega, p)."""
    if any(a < 1 for a in omega):
        raise ValueError("composition parts must be positive")
    result = 1
    for a_i, cum in zip(omega, prefix_sums(omega)):
        result *= gaussian_binomial(cum, a_i, p)
    return result


def mobius_cpk(k: int, p: int) -> int:
    """Moebius function of the subgroup lattice at C_p^k."""
    if k < 0:
        raise ValueError("negative rank")
    return (-1) ** k * p ** (k * (k - 1) // 2)


def aut_order(r: int, p: int) -> int:
    """|GL_r(F_p)|, the automorphism count of C_p^r."""
    return math.prod(p ** r - p ** i for i in range(r))


def delsarte_weight(f: int, ctx: PrimeContext) -> Fraction:
    """Weight of the rank-f homomorphism count in the inclusion-exclusion
    that isolates injections C_p^r -> quotient, divided by |Aut(C_p^r)|."""
    if f < 0 or f > ctx.r:
        raise ValueError("rank out of range")
    p, r = ctx.p, ctx.r
    num = p ** f * gaussian_binomial(r, f, p) * mobius_cpk(r - f, p)
    return Fraction(num, aut_order(r, p))


def scaled_weights(ctx: PrimeContext) -> tuple:
    """(|GL_r(F_p)|, [delsarte_weight(f) * |GL_r(F_p)| for f = 0..r]), the
    Delsarte weights as ints over their common denominator."""
    order = aut_order(ctx.r, ctx.p)
    return order, [int(delsarte_weight(f, ctx) * order) for f in range(ctx.r + 1)]


def weighted_counts(ctx: PrimeContext, rows) -> list:
    """Column m is sum_f delsarte_weight(f) * rows[f][m] over the depth
    rows f = 0..r, as one exact division of int sums by |GL_r(F_p)|.  A
    remainder or a negative count raises InvariantViolation; a wrong
    number of rows or rows of unequal length raise ValueError."""
    order, weights = scaled_weights(ctx)
    scaled = [[w * v for v in row] for w, row in zip(weights, rows, strict=True)]
    out = []
    for m, column in enumerate(zip(*scaled, strict=True)):
        count, rem = divmod(sum(column), order)
        if rem or count < 0:
            raise InvariantViolation(f"count {m} came out "
                                     f"{Fraction(sum(column), order)}")
        out.append(count)
    return out


def free_index_count(c: int, p: int) -> int:
    """Number of integers in [1, c-1] not divisible by p.

    This is the count of free residue-field coefficients below the leading
    index of a reduced representative with conductor exponent c.
    """
    if c < 0:
        raise ValueError("conductor exponent must be non-negative")
    return c - 1 - (c - 1) // p


def leading_term_count(c: int, j: int, norm: int, p: int) -> int:
    """Signed count of principal parts with conductor exponent c whose
    leading coefficient avoids a j-dimensional F_p-span of earlier choices.

    Returns 1 for c = 0 (nothing to choose); vanishes iff j = 0 and
    c = 1 mod p, reflecting that such conductor exponents cannot occur.
    """
    if c < 0 or j < 0:
        raise ValueError("arguments must be non-negative")
    if c == 0:
        return 1
    return norm ** free_index_count(c, p) - p ** j * norm ** free_index_count(c - 1, p)


def _validate_chain(chain):
    if any(c < 1 for c in chain):
        raise ValueError("chain entries must be positive")
    if any(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
        raise ValueError("chain entries must be non-increasing")


def chain_term_count(chain, norm: int, ctx: PrimeContext) -> int:
    """Product of leading_term_count over a chain, blocks of equal entries.

    Within a block of equal conductor exponents the j-th repetition must
    avoid the span of the j earlier leading coefficients, so j runs from 0
    to block length - 1 and resets at each new block.
    """
    result = 1
    for c, block in itertools.groupby(chain):
        for j, _ in enumerate(block):
            result *= leading_term_count(c, j, norm, ctx.p)
    return result


def chain_weights(ctx: PrimeContext) -> tuple:
    """(w_1, ..., w_r), w_j = (p-1) p^(r-j): the weight of entry j of a
    chain in its discriminant exponent."""
    p, r = ctx.p, ctx.r
    return tuple((p - 1) * p ** (r - j) for j in range(1, r + 1))


def chain_disc_exponent(chain, ctx: PrimeContext) -> int:
    """Discriminant exponent of a chain: sum_j w_j c_j over chain_weights."""
    _validate_chain(chain)
    if len(chain) > ctx.r:
        raise ValueError("chain longer than the group rank")
    return sum(w * c for w, c in zip(chain_weights(ctx), chain))


def kept_step(p: int) -> int:
    """The step of the lattice that holds the exponent of every chain with
    no entry 1 mod p (a kept chain): 2 at p = 2, p - 1 otherwise.

    Every weight w_j = (p-1) p^(r-j) is a multiple of p - 1, so every
    chain's exponent sum_j w_j c_j is too.  At p = 2 an entry that is not
    1 mod 2 is even, so every term w_j c_j of a kept chain, and its
    exponent, is even.  Off this lattice every depth-f Euler-factor
    coefficient is 0.  Every delta exponent A_j = p^(r+1-j) (p^j - 1) lies
    on it: a multiple of p - 1 and, at p = 2, of 2, as r + 1 - j >= 1."""
    return 2 if p == 2 else p - 1


def enumerate_chains(target: int, max_len: int, ctx: PrimeContext, *,
                     nonvanishing: bool = False):
    """All chains C of length <= max_len with chain_disc_exponent(C) = target,
    sorted by (length, entries).  target = 0 yields only the empty chain,
    and a target off the lattice of the weights, all multiples of p - 1,
    none.  With nonvanishing=True only the chains with no entry = 1 mod p
    are listed: the others have chain_term_count 0 at every norm, and no
    prefix ending in such an entry is extended; a target off the lattice
    of kept_step yields none before any walk.

    The entries after position j are at most c_j, so a prefix ending in c_j
    with `remaining` still to cover can reach the target only if
    c_j * (w_j + ... + w_max_len) >= remaining; c_j starts at the ceiling
    of remaining over that weight tail, and no dead prefix is walked."""
    if target < 0:
        raise ValueError("target exponent must be non-negative")
    if max_len < 0 or max_len > ctx.r:
        raise ValueError("max_len out of range")
    if target == 0:
        return [()]
    p = ctx.p
    if target % (kept_step(p) if nonvanishing else p - 1):
        return []
    weights = chain_weights(ctx)
    # tails[j - 1] = w_j + ... + w_max_len
    tails = list(itertools.accumulate(reversed(weights[:max_len])))[::-1]
    found = []

    def rec(prefix, j, remaining, bound):
        if remaining == 0 and prefix:
            found.append(tuple(prefix))
            return
        if j > max_len:
            return
        weight = weights[j - 1]
        if j == max_len:
            # the last entry has to use up the remainder exactly
            c, rem = divmod(remaining, weight)
            if not rem and c <= bound and not (nonvanishing and c % p == 1):
                found.append(tuple(prefix) + (c,))
            return
        for c in range(-(-remaining // tails[j - 1]),
                       min(bound, remaining // weight) + 1):
            if nonvanishing and c % p == 1:
                continue
            prefix.append(c)
            rec(prefix, j + 1, remaining - weight * c, c)
            prefix.pop()

    rec([], 1, target, target)
    found.sort(key=lambda c: (len(c), c))
    return found


# ---------------------------------------------------------------------------
# two-level compositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLevelComposition:
    """A composition (outer) of h, each part refined by an inner composition.

    outer  -- runs of the coarse invariant (the quotient digit of c-1 by p)
    inner  -- per outer part, the runs of the fine invariant (the remainder)
    """

    outer: tuple
    inner: tuple

    def __post_init__(self):
        if len(self.outer) != len(self.inner):
            raise ValueError("outer and inner lengths differ")
        for b, theta in zip(self.outer, self.inner):
            if b < 1 or any(a < 1 for a in theta):
                raise ValueError("composition parts must be positive")
            if sum(theta) != b:
                raise ValueError("inner composition does not refine its part")

    @property
    def flattened(self) -> tuple:
        """The refinement composition theta_omega: all inner parts in order."""
        return tuple(a for theta in self.inner for a in theta)

    @property
    def inner_counts(self) -> tuple:
        """Number of inner blocks within each outer part."""
        return tuple(len(theta) for theta in self.inner)

    def admissible(self, p: int) -> bool:
        """Whether each outer part carries at most p-1 inner blocks (the fine
        invariant takes values in [1, p-1] and strictly decreases)."""
        return all(len(theta) <= p - 1 for theta in self.inner)


def enumerate_two_level(h: int):
    """All two-level compositions of h (3^(h-1) many), deterministic order."""
    if h < 1:
        raise ValueError("h must be positive")
    out = []
    for outer in compositions(h):
        for inners in itertools.product(*(compositions(b) for b in outer)):
            out.append(TwoLevelComposition(tuple(outer), tuple(inners)))
    return out


@lru_cache(maxsize=None)
def enumerate_admissible_two_level(h: int, p: int) -> tuple:
    """The admissible two-level compositions of h at p, in the order of
    enumerate_two_level; built once per (h, p)."""
    return tuple(t for t in enumerate_two_level(h) if t.admissible(p))


def structure_poly_value(theta: TwoLevelComposition, x, p: int):
    """The structure polynomial of theta evaluated at x: over all inner
    blocks of size a, the product of (x - p^j) for j = 0..a-1.

    Vanishes at x = norm exactly when some block is too large for the
    residue field to supply independent leading coefficients.
    """
    result = 1
    for a in theta.flattened:
        for j in range(a):
            result = result * (x - p ** j)
    return result
