"""Exact Dirichlet-series machinery in the variable t = q^(-s).

Everything here is exact: truncated power series of ints with hard
truncation horizons, rational functions with recurrence-based expansion,
the Euler factors of the counting series and their polynomial closed
forms, zeta factors of the rational function field, and the global
coefficient series: zeta factors times, per place degree, the Euler
numerator Psi_f powered to the number of places.  Integer data stays
int: the delta factors, both Euler numerators Psi_f and the zeta-factor
polynomials have int coefficients, and the counting series are weighted
over depths by compositions.weighted_counts, in ints, so a truncated
series holds ints only.  The polynomial and rational-series layer takes
ints only: a rational series holds its numerator (the local one carries
the Delsarte weights) as ints over one int unit, and the local stages
(the gcd, the reduced form, the R of the rightmost split) stay in ints.
Fractions are made only where values leave the library, in
RationalSeries.num, coefficient and recurrence; floats are banned from
this module, and the asymptotics layer is their only consumer.
"""

import itertools
import json
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from .compositions import (
    chain_weights,
    enumerate_admissible_two_level,
    flag_count,
    gaussian_binomial,
    kept_step,
    prefix_sums,
    scaled_weights,
    structure_poly_value,
    weighted_counts,
)
from .counting import (factor_coefficient, factor_coefficients,
                       factor_support, refuse_chain_expansion)
from .errors import InvariantViolation, TruncationError
from .fields import PrimeContext, place_count, ptrim

# Largest series truncation M (series --max, count global --degree,
# asymptotics --fit-max), checked before a list of M + 1 coefficients is
# sized.  Coefficient m has O(m log q) bits, so memory grows like
# M^2 log q: `series local --p 2 --r 1` took 3.3 s and 233 MB at M = 2^15,
# 20 s and 800 MB at 2^16.  The global series is bound by time far below
# the cap: `series global --p 2 --r 1 --max 4000` took 11-13 s and 40 MB,
# nearly all of it in the products of the degrees d <= 2000 whose factor
# reaches t^4000 (Python 3.11, 2-core Xeon VM).
_MAX_TRUNCATION = 2 ** 15


# ---------------------------------------------------------------------------
# integer polynomials (dense coefficient tuples, index = power of t)
#
# Every polynomial the library builds has int coefficients, and poly_gcd
# and RationalSeries take ints only (anything else raises TypeError).
# poly_add and poly_mul walk only the nonzero terms, which _support finds
# in C: a delta 1 - c u^A has two, and a product with it costs two passes
# over the other operand's terms.
# ---------------------------------------------------------------------------


def poly_add(a, b) -> tuple:
    out = [0] * max(len(a), len(b))
    for poly in (a, b):
        for i in _support(poly):
            out[i] += poly[i]
    return ptrim(out)


def poly_mul(a, b) -> tuple:
    """The product over the nonzero terms only, the sparser operand's in
    the inner loop."""
    at, bt = _support(a), _support(b)
    if not at or not bt:
        return ()
    if len(at) < len(bt):
        a, b, at, bt = b, a, bt, at
    terms = [(j, b[j]) for j in bt]
    out = [0] * (at[-1] + bt[-1] + 1)
    for i in at:
        ca = a[i]
        for j, cb in terms:
            out[i + j] += ca * cb
    return tuple(out)


def poly_scale(a, c) -> tuple:
    return ptrim(x * c for x in a)


def _support(ints) -> list:
    """The indices of the nonzero entries, found in C by compress."""
    return list(itertools.compress(range(len(ints)), ints))


def _primitive_remainder(a, b) -> list:
    """The primitive part of lead(b)^k (a mod b), some k >= 0, for integer
    polynomials with b nonzero: each step scales a by lead(b) and cancels
    its top term, visiting only the nonzero terms of b; the content of the
    remainder is then divided out, which keeps the ints small."""
    a, lead, top = list(a), b[-1], len(b) - 1
    terms = [(i, b[i]) for i in _support(b[:-1])]
    while len(a) > top:
        c = a.pop()
        if c:
            shift = len(a) - top
            a = [x * lead for x in a]
            for i, bi in terms:
                a[shift + i] -= c * bi
    while a and not a[-1]:
        a.pop()
    content = gcd(*a)
    return [x // content for x in a] if content > 1 else a


def _gcd_degree_mod(a, b, prime: int) -> int:
    """The degree of gcd(a mod prime, b mod prime) over F_prime, by
    Euclid on int lists reduced mod prime; each step makes the divisor
    monic and cancels the top term (-1 if both vanish mod prime)."""
    a, b = (list(ptrim(x % prime for x in c)) for c in (a, b))
    while b:
        inv, top = pow(b[-1], -1, prime), len(b) - 1
        low = [x * inv % prime for x in b[:-1]]
        while len(a) > top:
            c = a.pop()
            if c:
                shift = len(a) - top
                a[shift:] = [(x - c * y) % prime for x, y in zip(a[shift:], low)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


# The prime of poly_gcd's certificate, a word-size Mersenne prime.
_CERTIFICATE_PRIME = 2 ** 61 - 1


def poly_gcd(a, b) -> tuple:
    """The primitive gcd over Z, leading coefficient positive ((1,) if
    coprime, () for two zeros), of two integer polynomials (anything else
    raises TypeError), by the primitive pseudo-remainder sequence (Knuth,
    TAOCP vol. 2, 4.6.1) after a certificate modulo l = _CERTIFICATE_PRIME.

    The primitive gcd g over Z divides a and b in Z[t] (Gauss's lemma),
    so its leading coefficient divides theirs.  If l does not divide the
    leading coefficient of one of them, then g mod l keeps its degree and
    divides both reductions, so a gcd of degree 0 mod l proves g = 1.
    Only a positive degree mod l runs the remainder sequence."""
    a, b = (list(ptrim(map(operator.index, x))) for x in (a, b))
    prime = _CERTIFICATE_PRIME
    if ((a and a[-1] % prime or b and b[-1] % prime)
            and _gcd_degree_mod(a, b, prime) == 0):
        return (1,)
    while b:
        a, b = b, _primitive_remainder(a, b)
    content = gcd(*a) * (1 if a and a[-1] > 0 else -1)  # 0 for two zeros
    return tuple(c // content for c in a)


def _low_division(poly, divisor) -> tuple:
    """(quotient, excess) of poly by divisor from the low end, divisor[0] = 1."""
    poly, terms = list(poly), [(i, divisor[i]) for i in _support(divisor)[1:]]
    size = max(len(poly) - len(divisor) + 1, 0)
    for k in range(size):
        for i, g in terms:
            poly[k + i] -= g * poly[k]
    return poly[:size], poly[size:]


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


class TruncatedSeries:
    """Power series with int coefficients, known exactly up to degree
    `truncation`.

    Every series the library builds is integral: the counting series,
    their Euler factors and the integer polynomials multiplied into them.
    `nums` is the tuple of coefficients, and every operation works on
    these ints.  Products and powers visit only the nonzero entries, whose
    positions itertools.compress finds in C: a per-degree factor spread
    out to t^d is sparse, and it has constant term 1, so its product with
    the running series starts from a copy of that series.

    Binary operations propagate the minimum truncation of the operands;
    asking for a coefficient past the horizon raises TruncationError rather
    than silently returning zero.
    """

    __slots__ = ("nums",)

    def __init__(self, coeffs, truncation: int):
        """coeffs: ints, zero-padded out to the truncation; anything else
        raises TypeError."""
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        nums = [operator.index(c) for c in coeffs]
        if len(nums) > truncation + 1:
            raise TruncationError("more coefficients than the truncation admits")
        nums.extend([0] * (truncation + 1 - len(nums)))
        self.nums = tuple(nums)

    @classmethod
    def _from_ints(cls, nums) -> "TruncatedSeries":
        """The series with int coefficients nums, truncated at
        len(nums) - 1."""
        if not nums:
            raise ValueError("a series needs a coefficient")
        series = cls.__new__(cls)
        series.nums = tuple(nums)
        return series

    @property
    def truncation(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, m: int) -> int:
        if m < 0:
            raise ValueError("negative degree")
        if m > self.truncation:
            raise TruncationError(
                f"coefficient {m} requested past truncation {self.truncation}")
        return self.nums[m]

    def coefficients(self) -> tuple:
        return self.nums

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.nums == other.nums

    def __mul__(self, other):
        """The sparser operand drives the outer loop over its nonzero
        positions; a unit constant term starts the product from a copy of
        the other operand instead of multiplying it by 1."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        m = min(self.truncation, other.truncation)
        a, b = self.nums[:m + 1], other.nums[:m + 1]
        at, bt = _support(a), _support(b)
        if len(at) > len(bt):
            a, b, at, bt = b, a, bt, at
        if a[0] == 1:
            out, at = list(b), at[1:]
        else:
            out = [0] * (m + 1)
        for i in at:
            ca, top = a[i], m - i
            for j in bt:
                if j > top:
                    break
                out[i + j] += ca * b[j]
        return TruncatedSeries._from_ints(out)

    def __pow__(self, exponent: int):
        """Power by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
        b = a^n with a_0 != 0 satisfies
            k a_0 b_k = sum_{j=1..k} ((n+1) j - k) a_j b_{k-j},
        one O(M^2) pass on the ints, whose power is integral, so every
        division is exact.  A zero constant term is shifted out first."""
        if exponent < 0:
            raise ValueError("negative power of a series")
        m = self.truncation
        if exponent == 0:
            return TruncatedSeries([1], m)
        a = self.nums
        valuation = next(itertools.compress(range(m + 1), a), m + 1)
        out = [0] * (m + 1)
        shift = valuation * exponent
        if shift <= m:
            width = m - shift + 1
            a = a[valuation:valuation + width]
            a0 = a[0]
            terms = [(j, (exponent + 1) * j, a[j]) for j in _support(a)[1:]]
            b = [a0 ** exponent]
            for k in range(1, width):
                acc = 0
                for j, nj, aj in terms:
                    if j > k:
                        break
                    acc += (nj - k) * aj * b[k - j]
                bk, rem = divmod(acc, k * a0)
                if rem:
                    raise InvariantViolation(
                        f"power recurrence inexact at degree {k}")
                b.append(bk)
            out[shift:] = b
        return TruncatedSeries._from_ints(out)

    def __repr__(self):
        head = ", ".join(map(str, self.nums[:8]))
        tail = ", ..." if self.truncation >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], M={self.truncation})"


# ---------------------------------------------------------------------------
# rational series (numerator / denominator, recurrence-based expansion)
# ---------------------------------------------------------------------------


class RationalSeries:
    """A rational function num/den in t with den(0) != 0, num held as ints
    over one int unit N in lowest terms (N > 0); the constructor takes the
    int numerator and denominator coefficients and an optional int unit
    (anything else raises TypeError), and `num` rebuilds Fractions.

    Coefficients follow the recurrence den[0] c_m = num_m - sum_{k>=1}
    den[k] c_{m-k}, expanded incrementally in ints: with d = den[0] and n
    the ints, b_m = N d^(m+1) c_m is an integer with
        b_m = d^m n_m - sum_{k>=1} den[k] d^(k-1) b_{m-k},
    so no step divides, and only the nonzero terms of den are visited (at
    most 2^r for a product of r binomials).  coefficient(m) returns
    b_m / (N d^(m+1)); series(M) divides each b_m by it exactly, since the
    series it hands over counts extensions (else InvariantViolation).
    """

    __slots__ = ("ints", "unit", "den", "_recurrence")

    def __init__(self, ints, den, unit: int = 1):
        self.den = den = ptrim(map(operator.index, den))
        if not den or den[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")
        ints = ptrim(map(operator.index, ints))
        common = gcd(unit, *ints) * (1 if unit > 0 else -1)
        self.ints, self.unit = tuple(x // common for x in ints), unit // common
        terms = [(k, den[k] * den[0] ** (k - 1)) for k in _support(den)[1:]]
        self._recurrence = self.ints, den[0], terms, []

    @property
    def num(self) -> tuple:
        return tuple(Fraction(x, self.unit) for x in self.ints)

    def _expanded(self, m: int) -> tuple:
        """(b, d) with the ints b expanded through b_m."""
        if m < 0:
            raise ValueError("negative degree")
        if m > _MAX_TRUNCATION:
            raise ValueError(f"series truncation {m} exceeds {_MAX_TRUNCATION}")
        num, d, terms, b = self._recurrence
        for k in range(len(b), m + 1):
            acc = num[k] * d ** k if k < len(num) else 0
            for j, w in terms:
                if j > k:
                    break
                acc -= w * b[k - j]
            b.append(acc)
        return b, d

    def coefficient(self, m: int) -> Fraction:
        b, d = self._expanded(m)
        return Fraction(b[m], self.unit * d ** (m + 1))

    def series(self, truncation: int) -> TruncatedSeries:
        b, d = self._expanded(truncation)
        out, scale = [], self.unit * d  # scale = N d^(m+1)
        for m in range(truncation + 1):
            c, rem = divmod(b[m], scale)
            if rem:
                raise InvariantViolation(f"series coefficient {m} is "
                                         f"{Fraction(b[m], scale)}, not an int")
            out.append(c)
            scale *= d
        return TruncatedSeries._from_ints(out)

    def recurrence(self) -> tuple:
        """Weights (w_1, ..., w_k): for m > deg num,
        c_m = w_1 c_{m-1} + ... + w_k c_{m-k}."""
        return tuple(Fraction(-c, self.den[0]) for c in self.den[1:])

    def __repr__(self):
        return f"RationalSeries(num={self.ints}, den={self.den}, unit={self.unit})"


# ---------------------------------------------------------------------------
# delta factors and Euler factors
# ---------------------------------------------------------------------------


def delta_exponents(ctx: PrimeContext, j: int):
    """Exponent pair (a, A) of the j-th pole factor: 1 - norm^a * u^A with
    a = j(p-1) and A = p^(r+1-j) (p^j - 1); u = t^(deg of the place)."""
    if not 1 <= j <= ctx.r:
        raise ValueError(f"j = {j} outside [1, r]")
    p = ctx.p
    return j * (p - 1), p ** (ctx.r + 1 - j) * (p ** j - 1)


# Largest pole degree D_f = A_1 + ... + A_f of the local form, a bound on
# memory, not time: psi_polynomial expands 2 D_f + 1 coefficients.  At
# (127, 1, 1), D = 16002, `series local --max 5` took 1.1 s and 44 MB,
# `asymptotics --local` 1.2 s and 48 MB; at (2, 1, 6), D = 642, they took
# 0.8 s and 1.0 s at 40 MB, and at (2, 1, 7), D = 1538, `series local`
# took 1.5 s and 52 MB (Python 3.11, 2-core Xeon VM).  The chains that
# expansion lists are capped apart, by counting._MAX_CHAINS.
_MAX_POLE_DEGREE = 2 ** 14


def _pole_degree(ctx: PrimeContext, f: int) -> int:
    """D_f, the u-degree of prod_{j<=f} delta_j; ValueError above the cap."""
    degree = sum(delta_exponents(ctx, j)[1] for j in range(1, f + 1))
    if degree > _MAX_POLE_DEGREE:
        raise ValueError(f"local form: pole degree {degree} exceeds {_MAX_POLE_DEGREE}")
    return degree


def delta_polynomial(ctx: PrimeContext, j: int, norm: int) -> tuple:
    """1 - norm^(j(p-1)) u^(A_j) as a polynomial in u."""
    _pole_degree(ctx, j)
    a, big_a = delta_exponents(ctx, j)
    return (1,) + (0,) * (big_a - 1) + (-norm ** a,)


def euler_factor_series(ctx: PrimeContext, f: int, norm: int,
                        truncation: int) -> TruncatedSeries:
    """The depth-f Euler factor 1 + sum_n factor_coefficient(n) u^n at a
    place of the given norm, truncated at the given u-degree.  Only the
    exponents of counting.factor_support are summed: they lie on the
    lattice of compositions.kept_step and have a chain of length at most
    f.  Every other coefficient is 0 and is written without a call."""
    if not 0 <= f <= ctx.r:
        raise ValueError(f"f = {f} outside [0, r]")
    refuse_chain_expansion(ctx, truncation)
    coeffs = [0] * (truncation + 1)
    for m in factor_support(ctx, f, truncation):
        coeffs[m] = factor_coefficient(ctx, f, m, norm)
    return TruncatedSeries._from_ints(coeffs)


def psi_polynomial(ctx: PrimeContext, f: int, norm: int) -> tuple:
    """Numerator polynomial of the depth-f Euler factor: the factor times
    prod_j delta_j, which the theory promises is a polynomial in u.

    Computed out to twice the structural degree sum(A_j); the trailing
    window of that length must be identically zero or the promise failed.
    """
    if not 0 <= f <= ctx.r:
        raise ValueError(f"f = {f} outside [0, r]")
    degree_bound = _pole_degree(ctx, f)
    horizon = 2 * degree_bound
    series = euler_factor_series(ctx, f, norm, horizon)
    for j in range(1, f + 1):
        series = series * TruncatedSeries(delta_polynomial(ctx, j, norm), horizon)
    tail = [m for m in range(degree_bound + 1, horizon + 1) if series.nums[m]]
    if tail:
        raise InvariantViolation(
            f"Euler numerator not a polynomial: nonzero at degrees {tail}")
    return ptrim(series.nums[:degree_bound + 1])  # both factors: den 1


def psi_closed_form(ctx: PrimeContext, f: int, norm: int) -> tuple:
    """The same numerator polynomial assembled from the closed form: a sum
    over admissible two-level compositions with structure-polynomial values,
    flag counts, and monomials from the geometric-series prefactors.  These
    and the deltas off the outer prefixes depend on the outer composition
    alone, so they multiply the sum over its refinements once."""
    if not 0 <= f <= ctx.r:
        raise ValueError(f"f = {f} outside [0, r]")
    p, chain_w = ctx.p, chain_weights(ctx)
    deltas = [delta_polynomial(ctx, j, norm) for j in range(1, f + 1)]
    result = reduce(poly_mul, deltas, (1,))
    for h in range(1, f + 1):
        binom = gaussian_binomial(f, h, p)
        for outer, thetas in itertools.groupby(
                enumerate_admissible_two_level(h, p), operator.attrgetter("outer")):
            prefix = prefix_sums(outer)
            pairs = [delta_exponents(ctx, b) for b in prefix]
            scale = binom * norm ** sum(a for a, _ in pairs[:-1])
            shift = sum(big_a for _, big_a in pairs[:-1])
            terms = [0] * (shift + pairs[-1][1] + 1)  # A_h = p (w_1 + ... + w_h)
            for theta in thetas:
                g_val = structure_poly_value(theta, norm, p)
                if g_val == 0:
                    continue
                flat = theta.flattened
                base = scale * flag_count(flat, p) * g_val
                # chain weight of each inner block, for the fine-value monomials
                weights = [sum(chain_w[end - a_i:end])
                           for a_i, end in zip(flat, prefix_sums(flat))]
                # fine values in [1, p-1], strictly decreasing within an
                # outer part and free across outer parts
                for pick in itertools.product(*(
                        itertools.combinations(range(p - 1, 0, -1), count)
                        for count in theta.inner_counts)):
                    coeff, degree = base, shift
                    for a_i, w_i, ell in zip(flat, weights,
                                             itertools.chain.from_iterable(pick)):
                        coeff *= norm ** (a_i * (ell - 1))
                        degree += w_i * (ell + 1)
                    terms[degree] += coeff
            off_prefix = (deltas[j - 1] for j in range(1, f + 1) if j not in prefix)
            result = poly_add(result, reduce(poly_mul, off_prefix, terms))
    return ptrim(result)


# ---------------------------------------------------------------------------
# nested geometric series identity (exact check on integer power series)
# ---------------------------------------------------------------------------


def nested_geometric_check(alphas, depth: int) -> bool:
    """Verify the closed form of the strictly-nested geometric sum
    sum_{k_1 > k_2 > ... > k_J >= 0} x^(sum alpha_i k_i), namely
    x^(sum (J-i) alpha_i) * prod_i (1 - x^(alpha_1+...+alpha_i))^(-1),
    as an identity of formal power series.

    With D the common denominator of the alphas and z = x^(-1/D), every
    beta_i = -D alpha_i is an integer and both sides are integer power
    series in z.  The sum side counts the tuples with k_1 <= depth by
    their exponent; a tuple with k_1 > depth has exponent at least
    (depth + 1) * min_l B_l, where B_l = beta_1 + ... + beta_l, so the
    check passes iff the two sides agree on every degree below that.

    Raises ValueError if there are no alphas or some prefix sum of them
    is nonnegative (the sum diverges).
    """
    alphas = [Fraction(a) for a in alphas]
    if not alphas:
        raise ValueError("need at least one exponent")
    denom = lcm(*(a.denominator for a in alphas))
    betas = [int(-a * denom) for a in alphas]
    prefixes = list(itertools.accumulate(betas))
    if min(prefixes) <= 0:
        raise ValueError("nonnegative prefix exponent: series diverges")
    horizon = (depth + 1) * min(prefixes)

    observed = [0] * horizon
    for ks in itertools.combinations(range(depth, -1, -1), len(betas)):
        exponent = sum(map(operator.mul, betas, ks))
        if exponent < horizon:
            observed[exponent] += 1

    closed = [0] * horizon
    shift = sum(prefixes[:-1])
    if shift < horizon:
        closed[shift] = 1
    for step in prefixes:  # divide by 1 - z^step
        for m in range(step, horizon):
            closed[m] += closed[m - step]
    return closed == observed


# ---------------------------------------------------------------------------
# zeta factors of the rational function field (genus 0, L = 1)
# ---------------------------------------------------------------------------


def zeta_shift(ctx: PrimeContext, a: int, b: int) -> RationalSeries:
    """Zeta of F_q(t) with s -> a*s - b as a rational function of t = q^(-s):
    1 / ((1 - q^b t^a)(1 - q^(b+1) t^a)).  With (a, b) = (1, 0) this is the
    zeta function of F_q(t) itself, whose coefficient of t^m counts the
    effective divisors of degree m."""
    if a < 1:
        raise ValueError("the s-coefficient must be positive")
    gap = (0,) * (a - 1)
    return RationalSeries((1,), poly_mul((1,) + gap + (-ctx.q ** b,),
                                         (1,) + gap + (-ctx.q ** (b + 1),)))


def zeta_factors(ctx: PrimeContext) -> tuple:
    """The (p, r) case split, written out once: (degree, shift) pairs whose
    zeta_shift factors multiply to the zeta-product comparison function at
    depth f = r.  r = 1 takes zeta((l+1)(p-1)s - l) for each fine value
    l = 1..p-1, r = p = 2 takes zeta(6s-2) zeta(4s-1)^3, and every other
    case the single factor zeta(A_r s - a_r), (a_r, A_r) = delta_exponents
    at j = r.  The factors vanishing at the abscissa fix the main-term pole
    order and angular periods."""
    p, r = ctx.p, ctx.r
    if r == 1:
        return tuple(((ell + 1) * (p - 1), ell) for ell in range(1, p))
    if r == 2 and p == 2:
        return ((6, 2), (4, 1), (4, 1), (4, 1))
    return (delta_exponents(ctx, r)[::-1],)


# ---------------------------------------------------------------------------
# the global series over F_q(t)
# ---------------------------------------------------------------------------


def powered_place_factor(ctx: PrimeContext, degree: int,
                         factor: TruncatedSeries,
                         truncation: int) -> TruncatedSeries:
    """All degree-d places at once: a factor shared by the degree-d places,
    given in u = t^d out to u^(truncation // degree), raised to the number
    of such places, then written in t (u -> t^d) out to t^truncation."""
    powered = factor ** place_count(ctx, degree)
    out = [0] * (truncation + 1)
    out[::degree] = powered.nums[:truncation // degree + 1]
    return TruncatedSeries._from_ints(out)


def global_factor_series(ctx: PrimeContext, f: int,
                         truncation: int) -> TruncatedSeries:
    """Product over all places of the depth-f Euler factor, zeta-factorised.

    The depth-f factor at a place of norm N is Psi_f(N, u) / prod_j delta_j
    with delta_j = 1 - N^(a_j) u^(A_j), and over all places of F_q(t) the
    deltas multiply out to prod_j Z(q^(a_j) t^(A_j)), Z the zeta function
    of P^1.  So the product starts from those zeta factors and powers
    Psi_f(q^d, u), of u-degree at most D = sum A_j, at each degree d.

    The chains of each exponent up to min(truncation, 2D), shared by all
    depths, are counted first and refused past counting._MAX_CHAINS.  Only
    the exponents of counting.factor_support, on the lattice of
    compositions.kept_step, are evaluated, at every norm q^d whose factor
    still reaches that exponent (d * exponent <= truncation); every other
    coefficient is 0.  Each A_j is on the lattice too, so the delta pass
    below visits the lattice only.  Psi_f is 1 + O(u^low), low the smaller
    of A_1 and the first exponent whose coefficients are nonzero at some
    norm, so only the degrees d <= truncation // low are built: every
    larger degree has Psi_f = 1 below u^(truncation // d + 1), and its
    window check below could not fail, since truncation // d < low <= D.

    Each built degree's coefficients are multiplied by the deltas in
    place; the computed part of the window (D, 2D] must vanish, as
    psi_polynomial requires, and coefficients past 2D are trusted to
    vanish too.  A checked Psi_f that is 1 out to u^(truncation // d) is
    1 mod t^(truncation + 1) and is skipped; every other one is powered
    and inflated, and the product is taken in increasing degree order.
    The inflated factor has constant term 1 and at most truncation // d
    other nonzero terms, at multiples of d, so the product copies the
    running series and adds one shifted multiple of it per such term."""
    if not 0 <= f <= ctx.r:
        raise ValueError(f"f = {f} outside [0, r]")
    if truncation > _MAX_TRUNCATION:
        raise ValueError(f"series truncation {truncation} exceeds {_MAX_TRUNCATION}")
    if f == 0 or truncation == 0:
        return TruncatedSeries([1], truncation)
    pairs = [delta_exponents(ctx, j) for j in range(1, f + 1)]
    degree_bound = sum(big_a for _, big_a in pairs)
    top = min(truncation, 2 * degree_bound)
    refuse_chain_expansion(ctx, top)
    exponents = factor_support(ctx, f, top)[1:]  # exponent 0 is 1 at every norm
    smallest = pairs[0][1]  # A_1, the smallest delta degree
    norms = [ctx.q ** d
             for d in range(1, truncation // min(exponents[:1] + [smallest]) + 1)]
    columns = {m: factor_coefficients(ctx, f, m, norms[:truncation // m])
               for m in exponents}
    low = next((m for m, values in columns.items() if any(values)), top + 1)
    low = min(low, smallest)
    # in_u[d - 1]: degree d in u, out to u^min(top, truncation // d)
    in_u = [[1] + [0] * min(top, truncation // d)
            for d in range(1, truncation // low + 1)]
    for m, values in columns.items():
        for coeffs, value in zip(in_u, values):
            coeffs[m] = value
    step = kept_step(ctx.p)
    zeta = (zeta_shift(ctx, big_a, a).den for a, big_a in pairs
            if big_a <= truncation)  # 1 below t^(truncation + 1) otherwise
    result = RationalSeries((1,), reduce(poly_mul, zeta, (1,))).series(truncation)
    for degree, (norm, coeffs) in enumerate(zip(norms, in_u), start=1):
        last = (len(coeffs) - 1) // step * step
        for a, big_a in pairs:  # times delta_j, backwards so each read is old
            if big_a < len(coeffs):
                scale = norm ** a
                for m in range(last, big_a - 1, -step):
                    coeffs[m] -= scale * coeffs[m - big_a]
        tail = [m for m in range(degree_bound + 1, len(coeffs)) if coeffs[m]]
        if tail:
            raise InvariantViolation(
                f"Euler numerator at norm {norm} not a polynomial: "
                f"nonzero at degrees {tail}")
        psi = coeffs[:degree_bound + 1]
        if not any(psi[1:]):  # 1 out to u^(truncation // degree)
            continue
        psi.extend([0] * (truncation // degree + 1 - len(psi)))
        factor = TruncatedSeries._from_ints(psi)
        result = powered_place_factor(ctx, degree, factor, truncation) * result
    return result


def _counting_series(ctx: PrimeContext, depths) -> TruncatedSeries:
    """weighted_counts degree by degree over the depth-f series f = 0..r."""
    return TruncatedSeries._from_ints(
        weighted_counts(ctx, [series.nums for series in depths]))


def global_dirichlet(ctx: PrimeContext, truncation: int) -> TruncatedSeries:
    """Coefficient m counts the extensions of F_q(t) with discriminant
    degree m; the weighted sum over depths must be a nonnegative integer in
    every degree or the theory (or this code) is wrong."""
    return _counting_series(ctx, [global_factor_series(ctx, f, truncation)
                                  for f in range(ctx.r + 1)])


@lru_cache(maxsize=None)
def local_rational(ctx: PrimeContext) -> RationalSeries:
    """The local counting series of F_q((t)) as an exact rational function:
    sum_f e_f (prod_{j>f} delta_j) Psi_f over prod_{j=1..r} delta_j; built
    once per context, so `series local`, rightmost_split and the local
    report on one context share one expansion of the Euler numerators.

    The Horner pass in the deltas runs on ints over |GL_r(F_p)|, each
    Psi_f weighted by the int delsarte_weight(f) * |GL_r(F_p)| as in
    weighted_counts; the ints are the numerator over the unit |GL_r(F_p)|."""
    norm, (order, weights) = ctx.q, scaled_weights(ctx)
    numerator, denominator = (), (1,)
    deltas = [delta_polynomial(ctx, j, norm) for j in range(1, ctx.r + 1)]
    # the deepest expansion, f = r, is refused before a shallower one lists any
    refuse_chain_expansion(ctx, 2 * _pole_degree(ctx, ctx.r))
    for f in range(ctx.r + 1):  # Horner in the deltas
        if f:
            numerator = poly_mul(numerator, deltas[f - 1])
            denominator = poly_mul(denominator, deltas[f - 1])
        numerator = poly_add(numerator, poly_scale(psi_polynomial(ctx, f, norm),
                                                   weights[f]))
    return RationalSeries(numerator, denominator, order)


def _fold(ints, c: int, period: int) -> tuple:
    """(H, top) with H / c^top = ints mod 1 - c u^period, by Horner in c:
    u^(period i + k) folds to c^(-i) u^k, so H_k = sum_i
    ints[period i + k] c^(top - i), top the largest i.  ints and c may be
    ints or Fractions alike."""
    ints = list(ints) or [0]
    ints += [0] * (-len(ints) % period)
    head = [0] * period
    for i in range(0, len(ints), period):
        head = [h * c + x for h, x in zip(head, ints[i:i + period])]
    return head, len(ints) // period - 1


@lru_cache(maxsize=None)
def local_reduced(ctx: PrimeContext) -> RationalSeries:
    """local_rational(ctx) in lowest terms, built once: its ints and den
    divided by their gcd over Z, scaled to constant term 1, which is found
    by one gcd per delta.

    The roots of delta_j = 1 - q^(a_j) u^(A_j) lie on the circle |u| =
    q^(-a_j / A_j), so deltas on distinct circles are pairwise coprime
    (two on one circle raise InvariantViolation), and gcd(num, prod_j
    delta_j) = prod_j gcd(num mod delta_j, delta_j), num mod delta_j by
    _fold.  By Gauss's lemma each primitive gcd has constant term +-1, so
    num's ints and den are divided by their product exactly, from the low
    end (else InvariantViolation).

    delta_j's leading coefficient q^(a_j) is prime to poly_gcd's
    certificate prime, so a gcd of degree 0 modulo it is proved 1 by one
    word-size Euclid; only the others run the remainder sequence over Z."""
    rational, q = local_rational(ctx), ctx.q
    pairs = [delta_exponents(ctx, j) for j in range(1, ctx.r + 1)]
    for (a, big_a), (b, big_b) in itertools.combinations(pairs, 2):
        if a * big_b == b * big_a:
            raise InvariantViolation(f"two deltas on the circle "
                                     f"|u| = q^(-{a}/{big_a})")
    common = (1,)
    for j, (a, big_a) in enumerate(pairs, start=1):
        fold = _fold(rational.ints, q ** a, big_a)[0]
        factor = poly_gcd(fold, delta_polynomial(ctx, j, q))
        if factor[0] not in (1, -1):
            raise InvariantViolation(f"the gcd at {ctx} is not integral: "
                                     f"{factor} over its constant term")
        common = poly_mul(common, poly_scale(factor, factor[0]))
    (num, num_excess), (den, den_excess) = (
        _low_division(poly, common) for poly in (rational.ints, rational.den))
    if any(num_excess) or any(den_excess):
        raise InvariantViolation(f"the gcd at {ctx} leaves a remainder")
    return RationalSeries(num, den, rational.unit)


@lru_cache(maxsize=None)
def rightmost_split(ctx: PrimeContext) -> tuple:
    """(num/den, (H, h), S/D') with num/den = local_rational(ctx) =
    R/delta_r + S/D', where D' = prod_{j<r} delta_j and R = H/h: the A =
    A_r ints H over one int h > 0, gcd(h, *H) = 1; built once per context.

    Modulo delta_r = 1 - c u^A, delta_j = 1 - x, x = q^(a_j) u^(A_j), has
    the inverse (1 + x + ... + x^(L-1)) / (1 - lambda_j) for L = A /
    gcd(A_j, A), x^L folding to the rational lambda_j.  lambda_j = 1
    (delta_j vanishing on the rightmost circle) and a remainder in
    (num - R D') / delta_r raise InvariantViolation.

    The numerator, ints N over U, folds by _fold to H over h = U c^top.
    For delta_j, with lambda_j = l_num / l_den, H times the geometric sum
    (by poly_mul) folds by _fold to H' over c^top_j; then H' is multiplied
    by l_den and h by c^top_j (l_den - l_num), in place of dividing by
    1 - lambda_j.  num - R D' and its quotient by delta_r, S, stay over
    the unit h."""
    rational, q = local_rational(ctx), ctx.q
    shift, period = delta_exponents(ctx, ctx.r)
    c = q ** shift
    head, top = _fold(rational.ints, c, period)
    hden, rest_den = rational.unit * c ** top, (1,)
    for j in range(1, ctx.r):
        a, big_a = delta_exponents(ctx, j)
        cycle = period // gcd(big_a, period)
        lam_num, lam_den = q ** (a * cycle), c ** (big_a * cycle // period)
        if lam_num == lam_den:
            raise InvariantViolation(f"delta_{j} meets the rightmost circle")
        geometric = [0] * (big_a * (cycle - 1) + 1)
        geometric[::big_a] = [q ** (a * t) for t in range(cycle)]
        head, top = _fold(poly_mul(head, geometric), c, period)
        head = [h * lam_den for h in head]
        hden *= c ** top * (lam_den - lam_num)
        rest_den = poly_mul(rest_den, delta_polynomial(ctx, j, q))
    rest, excess = _low_division(
        poly_add([x * (hden // rational.unit) for x in rational.ints],
                 poly_scale(poly_mul(rest_den, head), -1)),
        delta_polynomial(ctx, ctx.r, q))
    if any(excess):
        raise InvariantViolation("delta_r does not divide num - R D'")
    common = gcd(hden, *head) * (1 if hden > 0 else -1)
    return (rational, (tuple(h // common for h in head), hden // common),
            RationalSeries(rest, rest_den, hden))


def local_direct_series(ctx: PrimeContext, truncation: int) -> TruncatedSeries:
    """The same local series summed term by term, bypassing the rational
    closed form; agreement with local_rational is a theorem.  Every
    coefficient must come out a natural number."""
    return _counting_series(ctx, [euler_factor_series(ctx, f, ctx.q, truncation)
                                  for f in range(ctx.r + 1)])


def lambda_inverse(ctx: PrimeContext) -> tuple:
    """Inverse of the zeta-factor comparison function at depth f = r, as an
    exact polynomial in t: the product of the zeta_shift denominators
    (1 - q^b t^a)(1 - q^(b+1) t^a) over the (a, b) pairs of zeta_factors.
    """
    return reduce(poly_mul, (zeta_shift(ctx, degree, shift).den
                             for degree, shift in zeta_factors(ctx)), (1,))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def series_to_json(ctx: PrimeContext, series: TruncatedSeries,
                   rational: RationalSeries = None) -> str:
    """Schema: {"p", "n", "r", "variable": "q^-s", "truncation",
    "coefficients": [truncation + 1 decimal strings]}, and with a rational
    form of the series also "numerator", "denominator" and "recurrence",
    decimal or fraction strings.  Integers of any length need the
    interpreter's digit limit lifted around the call."""
    payload = {
        "p": ctx.p,
        "n": ctx.n,
        "r": ctx.r,
        "variable": "q^-s",
        "truncation": series.truncation,
        "coefficients": [str(c) for c in series.coefficients()],
    }
    if rational is not None:
        payload["numerator"] = [str(c) for c in rational.num]
        payload["denominator"] = [str(c) for c in rational.den]
        payload["recurrence"] = [str(w) for w in rational.recurrence()]
    return json.dumps(payload, indent=2)
