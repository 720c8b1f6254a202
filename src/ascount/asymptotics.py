"""Pole structure and main-term constants of the counting series.

The local and global counting series are rational, respectively
zeta-comparable, in t = q^(-s), so coefficient growth is governed by the
poles on the circle of convergence.  This module exposes the exact pole
data (abscissa, angular spacing, orders, certainty), per-class local
leading constants, exact verification of the four abscissa comparison
lemmas, and desk-scale least-squares fits of exact coefficients against
the predicted main term.

Everything that can be exact is exact.  The local constants are read off
one partial-fraction split at the rightmost local pole circle, whose
identity is checked on every coefficient up to a horizon that grows by
whole periods until the 1% gate holds; local_pole_catalog certifies the
dominant pole line by a nonzero numerator R in the split's term R/delta_r,
and psi_lower_bound certifies positivity bounds at the real pole points.
Floats appear only in reported values (the constants, their relative
errors, the fits and the Klein constant) and in the first estimate of
that horizon.  The irrational values among them are taken in mpmath at
_PRECISION bits and rounded once to a float.  On every tested context
120 bits give the same local constants as 240 bits, while 53 or 64 bits
change the last digits.
"""

import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath
import numpy

from .compositions import chain_weights, compositions, prefix_sums
from .dirichlet import (
    RationalSeries,
    TruncatedSeries,
    _fold,
    delta_exponents,
    global_dirichlet,
    lambda_inverse,
    psi_polynomial,
    rightmost_split,
    zeta_factors,
)
from .errors import InvariantViolation
from .fields import PrimeContext, _prime_factors, make_context, place_count

ZERO = Fraction(0)
_BISECTION_STEPS = 300
_PRECISION = 120  # mpmath working bits of the constants and fits
_KLEIN_PLACE_DEGREE = 40  # Euler product truncation: tail bound ~1e-12 at q=2


@dataclass(frozen=True)
class MainTermParams:
    """Exact main-term data for counts by discriminant degree m.

    The number of extensions of discriminant degree m grows like
    P(m log q) * q^(abscissa * m) where P is a real polynomial of degree
    pole_order - 1 whose coefficients depend on m mod class_modulus.  The
    leading coefficient of P only depends on m mod constant_modulus.
    Counts over the local field use local_modulus residue classes.
    prime_lcm is lcm(2, ..., p); error_exponent bounds the relative error
    term (the count minus the main term is O(q^(error_exponent*m + eps))).
    """

    abscissa: Fraction
    pole_order: int
    class_modulus: int
    local_modulus: int
    constant_modulus: int
    prime_lcm: int
    error_exponent: Fraction


def main_term_params(ctx: PrimeContext) -> MainTermParams:
    """Main-term parameters for counting C_p^r-extensions of F_q(t).

    With (a_r, A_r) the deepest pole pair of dirichlet.delta_exponents,
    the abscissa is (1 + a_r)/A_r, local_modulus is A_r and error_exponent
    is abscissa - 1/(p A_r); prime_lcm is a closed formula too.  The rest
    comes from the zeta factors of dirichlet.zeta_factors that vanish at
    the abscissa: pole_order is their count, class_modulus the lcm and
    constant_modulus the gcd of their degrees.
    """
    a_r, top = delta_exponents(ctx, ctx.r)
    abscissa = Fraction(1 + a_r, top)
    vanishing = [degree for degree, shift in zeta_factors(ctx)
                 for b in (shift, shift + 1) if b == abscissa * degree]
    return MainTermParams(abscissa, len(vanishing), math.lcm(*vanishing),
                          top, math.gcd(*vanishing),
                          math.lcm(*range(2, ctx.p + 1)),
                          abscissa - Fraction(1, ctx.p * top))


def holomorphy_radius_check(ctx: PrimeContext, truncation: int) -> bool:
    """After dividing out the expected pole-carrying factor, the remaining
    coefficients d_m must grow strictly slower than the main term: checks
    |d_m| <= q^(e m) for every m in [20, truncation], all exact, with e
    halfway between the abscissa and the error exponent of
    main_term_params."""
    params = main_term_params(ctx)
    exponent = (params.abscissa + params.error_exponent) / 2
    series = global_dirichlet(ctx, truncation)
    reduced = series * TruncatedSeries(lambda_inverse(ctx), truncation)
    for m in range(20, truncation + 1):
        d_m = reduced.coefficient(m)
        if abs(d_m) ** exponent.denominator > ctx.q ** (exponent.numerator * m):
            return False
    return True


@dataclass(frozen=True)
class PoleLine:
    """One circle of (candidate) poles in the t = q^(-s) plane.

    real_part is the common real part of the matching s-values; the
    candidate angles are spaced by angular_step in units of 2*pi/log(q).
    Lines flagged definite carry at least one pole of order max_order,
    backed by a non-vanishing argument; candidate lines bound the order
    from above but individual points may fail to be poles at all.
    """

    real_part: Fraction
    angular_step: Fraction
    max_order: int
    definite: bool


def local_pole_catalog(ctx: PrimeContext) -> tuple:
    """Pole lines of the local counting series, rightmost first.

    The series is rational with denominator prod_j (1 - q^(j(p-1)) t^(A_j)),
    A_j = p^(r+1-j) (p^j - 1); line j lies at real part j(p-1)/A_j.  Only
    the rightmost line (j = r) is definite: the numerator provably keeps a
    positive value there (see psi_lower_bound).  It is certified here by
    R != 0 in the exact split R/delta_r + S/D' of
    dirichlet.rightmost_split: D' is coprime to delta_r, so R = 0 exactly
    when delta_r divides the numerator.  Lines with j < r may be cancelled
    by the numerator and stay candidates.
    """
    lines = []
    for j in range(ctx.r, 0, -1):
        shift, degree = delta_exponents(ctx, j)
        lines.append(PoleLine(Fraction(shift, degree), Fraction(1, degree),
                              1, j == ctx.r))
    for upper, lower in zip(lines, lines[1:]):
        if not upper.real_part > lower.real_part:
            raise InvariantViolation("local pole lines out of order")
    if not any(rightmost_split(ctx)[1][0]):
        raise InvariantViolation("rightmost local pole cancelled by the "
                                 "numerator")
    return tuple(lines)


def _interval_eval(poly, lo: Fraction, hi: Fraction):
    """Exact bounds of a polynomial over [lo, hi] with 0 <= lo <= hi."""
    lower = upper = ZERO
    lo_pow = hi_pow = Fraction(1)
    for c in poly:
        if c >= 0:
            lower += c * lo_pow
            upper += c * hi_pow
        else:
            lower += c * hi_pow
            upper += c * lo_pow
        lo_pow *= lo
        hi_pow *= hi
    return lower, upper


def value_bounds_at_real_root(poly, power, index: int):
    """Exact rational bounds on poly(x) at the positive real root of
    x**index = power, for power in (0, 1].

    Bisects until the bounds exclude 0, so the sign is certified.  Returns
    (0, 0) when poly is an exact polynomial multiple of x**index - power:
    dirichlet._fold of poly at c = 1 / power, which is its remainder
    modulo 1 - c x**index scaled by a power of c, vanishes.
    Raises InvariantViolation when the bisection budget is exhausted,
    which happens only if the value is zero without the divisibility
    witness or absurdly close to it.
    """
    power = Fraction(power)
    if not 0 < power <= 1:
        raise ValueError("power must lie in (0, 1]")
    if index < 1:
        raise ValueError("index must be positive")
    if not any(_fold(poly, 1 / power, index)[0]):
        return ZERO, ZERO
    lo, hi = ZERO, Fraction(1)
    for _ in range(_BISECTION_STEPS):
        lower, upper = _interval_eval(poly, lo, hi)
        if lower > 0 or upper < 0:
            return lower, upper
        mid = (lo + hi) / 2
        if mid ** index <= power:
            lo = mid
        else:
            hi = mid
    raise InvariantViolation("sign not separated within the bisection "
                             "budget")


def psi_lower_bound(ctx: PrimeContext, f: int) -> Fraction:
    """Certified positive rational lower bound for the depth-f numerator
    polynomial at its rightmost real pole point t = q^(-f(p-1)/A_f).

    The point is the positive real zero of 1 - q^(f(p-1)) t^(A_f); the
    numerator staying positive there is what makes the rightmost local
    pole line definite.  Raises InvariantViolation when positivity cannot
    be certified.
    """
    shift, degree = delta_exponents(ctx, f)
    poly = psi_polynomial(ctx, f, ctx.q)
    lower, upper = value_bounds_at_real_root(
        poly, Fraction(1, ctx.q ** shift), degree)
    if not lower > 0:
        raise InvariantViolation(
            f"depth-{f} numerator not positive at its pole point: "
            f"bounds [{lower}, {upper}]")
    return lower


def _sample_cap(ctx: PrimeContext) -> int:
    """First coefficient horizon for validating the local constants.

    Far enough out that the subleading pole family has decayed to about
    1e-4 relative to the main term, rounded up to whole residue classes.
    """
    shift, period = delta_exponents(ctx, ctx.r)
    need = 60
    if ctx.r > 1:
        a, big_a = delta_exponents(ctx, ctx.r - 1)
        gap = (shift * big_a - a * period) / (period * big_a)
        need = max(need, math.ceil(4 * math.log(10) / (gap * math.log(ctx.q))))
    return period * math.ceil(need / period)


@dataclass(frozen=True)
class LocalConstants:
    """Per-class leading constants of the local counts, with diagnostics.

    constants maps m mod modulus to the constant in front of
    q^(m r(p-1)/modulus); relative_errors maps each class with a nonzero
    constant to the trailing (m, relative error) samples used for
    validation, ordered by m.
    """

    modulus: int
    constants: dict
    relative_errors: dict
    m_max: int


def local_leading_constants(ctx: PrimeContext,
                            tolerance: float = 1e-2) -> LocalConstants:
    """Leading constants of the local count per residue class mod p(p^r-1).

    With A = p(p^r - 1), a = r(p-1), c = q^a and the exact split
    num/den = R/delta_r + S/D', R = H/h, of dirichlet.rightmost_split, the
    count at m = Ai + k is c_m = R_k c^i + [S/D']_m, so it behaves like
    constant(k) * q^(m a/A), constant(k) = R_k q^(-a k/A): the one float,
    rounded from a _PRECISION-bit value; a class is zero exactly when R_k is.

    Validation is exact and runs on ints: the counts c_m are the ints of
    rational.series(m_max), and T = t S is the int series of S's ints
    over D', t the unit of S (D' has constant term 1).  Checked are
    R_k >= 0, not all zero; the identity t (h c_m - H_k c^i) = h T_m for
    every m <= m_max; zero coefficients on zero classes; on the others,
    the relative errors |h c_m - H_k c^i| / (h c_m) over the positive
    suffix of the last ten samples end below tolerance and do not grow,
    compared as int pairs by cross-multiplication.  m_max starts at
    max(_sample_cap(ctx), 2A) and grows by up to four periods while a
    nonzero class has no positive sample or misses the tolerance; the
    counts are expanded again to each new m_max."""
    rational, (head, hden), rest = rightmost_split(ctx)  # refuses a pole degree past the cap
    shift, period = delta_exponents(ctx, ctx.r)
    c = ctx.q ** shift
    m_max = max(_sample_cap(ctx), 2 * period)
    nonzero = [cls for cls in range(period) if head[cls]]
    if not nonzero or min(head) < 0:
        raise InvariantViolation(f"leading constants all zero or negative: "
                                 f"smallest R_k = {Fraction(min(head), hden)}")
    tol_num, tol_den = tolerance.as_integer_ratio()
    counts = rational.series(m_max).nums

    def trail(cls: int) -> list:
        # early entries may still be exact zeros (killed coefficient
        # chains); only the positive suffix is compared to the main term
        window = list(range(cls or period, m_max + 1, period))[-10:]
        while window and counts[window[0]] == 0:
            window.pop(0)
        if any(counts[m] <= 0 for m in window):
            raise InvariantViolation(f"class {cls} expected positive "
                                     f"coefficients at m = {window}")
        return [(m, abs(hden * counts[m] - head[cls] * c ** (m // period)),
                 hden * counts[m]) for m in window]

    def below(sample) -> bool:  # its relative error under the tolerance
        return sample[1] * tol_den < tol_num * sample[2]

    for _ in range(4):
        if all(t and below(t[-1]) for t in map(trail, nonzero)):
            break
        m_max += period
        counts = rational.series(m_max).nums
    scaled_rest = RationalSeries(rest.ints, rest.den).series(m_max).nums
    power = 1  # c^i at m = Ai + k
    for m, (count, tail) in enumerate(zip(counts, scaled_rest)):
        k = m % period
        if m and not k:
            power *= c
        if rest.unit * (hden * count - head[k] * power) != hden * tail:
            raise InvariantViolation(
                f"partial fractions disagree with the series at m = {m}")
        if m and count and not head[k]:
            raise InvariantViolation(f"class {k} has vanishing constant but "
                                     f"nonzero coefficient at m = {m}")
    constants, errors = dict.fromkeys(range(period), 0.0), {}
    for cls in nonzero:
        samples = trail(cls)
        errors[cls] = tuple((m, err / size) for m, err, size in samples)
        if not samples or not below(samples[-1]) \
                or samples[-1][1] * samples[0][2] > samples[0][1] * samples[-1][2]:
            raise InvariantViolation(
                f"class {cls} fails validation up to m = {m_max}: relative "
                f"errors {errors[cls]} must end below {tolerance} and not grow")
        common = math.gcd(head[cls], hden)  # R_k in lowest terms
        with mpmath.workprec(_PRECISION):
            constants[cls] = float(
                mpmath.mpf(head[cls] // common) / (hden // common)
                * mpmath.power(ctx.q, -mpmath.mpf(shift * cls) / period))
    return LocalConstants(period, constants, errors, m_max)


def global_pole_catalog(ctx: PrimeContext) -> tuple:
    """Pole lines of the F_q(t) counting series on its abscissa.

    All entries share real part main_term_params(ctx).abscissa, and like
    the rest of those parameters the lines come from the zeta factors of
    dirichlet.zeta_factors that vanish there.  The definite line carries
    the poles of order exactly pole_order, spaced by 1/constant_modulus;
    for parameter ranges where finer candidates exist (r = 1 with p odd,
    and r = p = 2) a second line with the candidate lattice
    1/class_modulus and the order bound pole_order - 1 follows.  Points of
    the candidate lattice that lie on the definite lattice are covered by
    the definite entry.
    """
    params = main_term_params(ctx)
    lines = [PoleLine(params.abscissa,
                      Fraction(1, params.constant_modulus),
                      params.pole_order, True)]
    if params.class_modulus != params.constant_modulus:
        lines.append(PoleLine(params.abscissa,
                              Fraction(1, params.class_modulus),
                              params.pole_order - 1, False))
    return tuple(lines)


def main_term_fit(ctx: PrimeContext, coefficients) -> dict:
    """Least-squares fit of exact coefficients against the main term.

    coefficients[m] must be the exact number of extensions of F_q(t) with
    discriminant degree m (the series.global_dirichlet output).  For each
    residue class mod class_modulus the rescaled values
    y_m = c_m * q^(-abscissa*m) are fitted by a polynomial of degree
    pole_order - 1 in m, by ordinary least squares over the last 60% of
    the class's points (early points carry transients from subleading
    poles).  Classes that are identically zero short-circuit to a zero
    fit.  Fitted coefficients are reported in ascending order; the
    residual trend lists |residual| / max|y| over the window, ordered
    by m.

    Raises ValueError when a nonzero class has fewer than 2*pole_order
    points.
    """
    params = main_term_params(ctx)
    period, order = params.class_modulus, params.pole_order
    a = params.abscissa
    top = len(coefficients) - 1
    classes = {}
    with mpmath.workprec(_PRECISION):
        for cls in range(period):
            points = list(range(cls, top + 1, period))
            exact = [coefficients[m] for m in points]
            zero = all(c == 0 for c in exact)
            if zero:
                coeffs, leading, window, trend = (0.0,) * order, 0.0, 0, ()
            elif len(points) < 2 * order:
                raise ValueError(
                    f"class {cls}: need at least {2 * order} points for a "
                    f"degree-{order - 1} fit, have {len(points)}")
            else:
                rescaled = [float(c * mpmath.power(
                    ctx.q, -mpmath.mpf(m) * a.numerator / a.denominator))
                    for m, c in zip(points, exact)]
                window = math.ceil(0.6 * len(points))
                xs = points[-window:]
                ys = rescaled[-window:]
                fit = numpy.polyfit(xs, ys, order - 1)
                scale = max(abs(y) for y in ys)
                trend = tuple(abs(y - float(numpy.polyval(fit, x))) / scale
                              for x, y in zip(xs, ys))
                coeffs = tuple(float(c) for c in fit[::-1])
                leading = float(fit[0])
            classes[cls] = {"degree": order - 1, "coefficients": coeffs,
                            "leading": leading, "points": len(points),
                            "window": window, "residual_trend": trend,
                            "zero": zero}
    return {"modulus": period, "abscissa": a, "degree": order - 1,
            "classes": classes}


def _block_maximum(gains, corners) -> tuple:
    """(value, tuple): the largest sum(g * v) over the nonincreasing
    tuples v over corners (given in decreasing order) of length
    len(gains), with the first tuple that reaches it."""
    return max(((sum(map(operator.mul, gains, ell)), ell)
                for ell in itertools.combinations_with_replacement(
                    corners, len(gains))),
               key=operator.itemgetter(0))


def verify_inequalities(p_max: int = 7, r_max: int = 6) -> dict:
    """Exact check of the four abscissa comparison lemmas.

    Families, each over primes p <= p_max and 2 <= r <= r_max, compare
    three axes at depth h, built from the pole pair (a_h, A_h) of
    dirichlet.delta_exponents: the local abscissa a_h/A_h, the comparison
    axis (a_h + 1 - 1/p)/A_h and the zeta abscissa (a_h + 1)/A_h.
      - local_abscissa_chain: successive local pole abscissas are strictly
        increasing in the depth f (2 <= f <= r).
      - zeta_abscissa_chain: for 2 <= j <= r the previous zeta abscissa is
        <= the depth-j comparison axis < the zeta abscissa, except that
        j = p = 2 collapses (outer terms equal, comparison axis below);
        left equality holds exactly for p = 2, j = 3.
      - single_block_bound: the one-part case of the block sweep below.
        For a single run of h <= r equal outer values and non-increasing
        inner values in [1, p-1], the growth exponent stays strictly below
        the comparison axis except at the all-(p-1) tuple, which lands
        exactly on the zeta abscissa.
      - multi_block_bound: the other cases of that sweep.  With at least
        two outer runs (outer block sizes b_i, h = sum b_i <= min(r, 5))
        the bound is strict for every admissible inner assignment.

    The (p, r) grid is walked once; one loop over the compositions of h
    serves both block families, in integers.  For an inner tuple ell the
    bound is num/den with num = 1 + sum(ell) + extra_num and den =
    extra_den + sum_k w_k (ell_k + 1), the extra terms fixed by the
    composition (zero for one part).  Each comparison is affine in the
    inner values, so it is checked at the nonincreasing tuples over
    {p-1, p-2, 1}: they hold every vertex of a block's chain polytope,
    also without the all-(p-1) tuple (the constraints are totally
    unimodular; Schrijver 1986, ch. 19).  The single block walks those
    tuples one by one.  With two or more blocks the excess
        E = num mid.den - mid.num den
          = mid.den (1 + extra_num) - mid.num (extra_den + sum_{k<h} w_k)
            + sum_k (mid.den - mid.num w_k) ell_k
    separates over the blocks, so its maximum is the constant plus the
    sum of the block maxima (_block_maximum, each block over its own
    corner tuples): one check per composition, and a violation (max E >=
    0) lists the tuple that reaches it.  "checked" counts all C(b+p-2, b)
    tuples of each block, as a tuple-by-tuple sweep would.

    Returns a report mapping family name to counts, equality witnesses and
    violations; all violations lists are expected to stay empty.
    """
    report = {name: {"checked": 0, "equalities": [], "violations": []}
              for name in ("local_abscissa_chain", "zeta_abscissa_chain",
                           "single_block_bound", "multi_block_bound")}
    local, zeta, single, multi = report.values()
    shapes = {h: compositions(h) if h <= 5 else [(h,)]
              for h in range(2, r_max + 1)}
    for p in (v for v in range(2, p_max + 1) if _prime_factors(v) == [v]):
        corners = sorted({p - 1, p - 2, 1} - {0}, reverse=True)
        for r in range(2, r_max + 1):
            ctx = make_context(p, 1, r)
            pairs = [delta_exponents(ctx, j) for j in range(1, r + 1)]
            weights = chain_weights(ctx)
            for h in range(2, r + 1):
                (a_prev, big_a_prev), (a, big_a) = pairs[h - 2], pairs[h - 1]
                mid = Fraction(p * (a + 1) - 1, p * big_a)

                lhs, rhs = Fraction(a_prev, big_a_prev), Fraction(a, big_a)
                local["checked"] += 1
                if not lhs < rhs:
                    local["violations"].append((p, r, h, str(lhs), str(rhs)))

                lhs, rhs = Fraction(a_prev + 1, big_a_prev), Fraction(a + 1, big_a)
                zeta["checked"] += 1
                if not mid < rhs:
                    zeta["violations"].append((p, r, h, "mid >= rhs"))
                if h == 2 and p == 2:
                    if lhs == rhs == Fraction(1, 2 ** (r - 1)) and lhs > mid:
                        zeta["equalities"].append(("collapse j=p=2", p, r, h))
                    else:
                        zeta["violations"].append((p, r, h, "collapse shape broken"))
                elif lhs == mid:
                    if p == 2 and h == 3:
                        zeta["equalities"].append(("left equality", p, r, h))
                    else:
                        zeta["violations"].append((p, r, h, "unexpected left "
                                                            "equality"))
                elif not lhs < mid:
                    zeta["violations"].append((p, r, h, "left inequality fails"))
                elif p == 2 and h == 3:
                    zeta["violations"].append((p, r, h, "expected left equality "
                                                        "missing"))

                # the bound num/den against mid and edge, cross-multiplied
                edge_num, edge_den = a + 1, big_a
                base = sum(weights[:h])
                gains = [mid.denominator - mid.numerator * w for w in weights[:h]]
                peaks = {}  # (end, b) -> maximum over positions end-b..end-1
                for outer in shapes[h]:
                    if len(outer) == 1:
                        single["checked"] += math.comb(h + p - 2, h)
                        for ell in itertools.combinations_with_replacement(
                                corners, h):
                            num = 1 + sum(ell)
                            den = sum(w * (v + 1) for w, v in zip(weights, ell))
                            if all(v == p - 1 for v in ell):
                                if num * edge_den == edge_num * den:
                                    single["equalities"].append((p, r, h, ell))
                                else:
                                    single["violations"].append(
                                        (p, r, h, ell, "edge equality broken"))
                            elif num * mid.denominator >= mid.numerator * den:
                                single["violations"].append(
                                    (p, r, h, ell, str(Fraction(num, den))))
                        continue
                    spread, bounds = len(outer), prefix_sums(outer)
                    extra_num = (p - 1) * sum((spread - i) * outer[i - 1]
                                              for i in range(1, spread))
                    extra_den = p * sum(
                        (spread - i) * sum(weights[end - b:end])
                        for i, (b, end) in enumerate(zip(outer, bounds[:-1]), 1))
                    multi["checked"] += math.prod(math.comb(b + p - 2, b)
                                                  for b in outer)
                    tops = []
                    for b, end in zip(outer, bounds):
                        if (end, b) not in peaks:
                            peaks[end, b] = _block_maximum(gains[end - b:end],
                                                           corners)
                        tops.append(peaks[end, b])
                    if (mid.denominator * (1 + extra_num)
                            - mid.numerator * (extra_den + base)
                            + sum(value for value, _ in tops)) >= 0:
                        ell = tuple(itertools.chain.from_iterable(
                            piece for _, piece in tops))
                        num = 1 + sum(ell) + extra_num
                        den = extra_den + base + sum(
                            w * v for w, v in zip(weights, ell))
                        multi["violations"].append(
                            (p, r, h, outer, ell, str(Fraction(num, den))))
    report["ok"] = not any(family["violations"]
                           for family in (local, zeta, single, multi))
    return report


def klein_constant_check(ctx: PrimeContext, coefficients) -> dict:
    """Compare the closed-form leading constant for the Klein four-group
    C_2 x C_2 over F_q(t) with the fitted cubic coefficient.

    Report only: the fit converges slowly (the error term trails the main
    term by a factor of only X^(1/12)), so agreement is logged rather than
    asserted.  The closed form is
        (|G| / |Aut G|) * (log q / 144) * rho^4 * E
    with rho the residue of the zeta function at s = 1, namely
    1/((1 - 1/q) log q), and E the Euler product of
    (1 + 4x + x^2)(1 - x)^4 over all places, x = norm^(-1).  The product
    is truncated at place degree 40 (reported as max_place_degree); the
    factor at degree d is 1 + O(q^(-2d)), giving a certified tail bound
    (tail_bound) which must come out below 1e-9.  The fitted value is the
    coefficient of m^3 in y_m = c_m q^(-m/2); the closed form multiplies
    (log X)^3 = (m log q)^3, so the comparison rescales by log(q)^3.
    """
    return _klein_constant(ctx, main_term_fit(ctx, coefficients))


def _klein_constant(ctx: PrimeContext, fit: dict) -> dict:
    """klein_constant_check on a main_term_fit already taken."""
    if ctx.p != 2 or ctx.r != 2:
        raise ValueError("closed form only covers p = 2, r = 2")
    q = ctx.q
    with mpmath.workprec(_PRECISION):
        log_product = mpmath.mpf(0)
        for d in range(1, _KLEIN_PLACE_DEGREE + 1):
            x = mpmath.mpf(1) / q ** d
            log_product += place_count(ctx, d) * mpmath.log(
                (1 + 4 * x + x * x) * (1 - x) ** 4)
        # |log factor| <= 24 x^2 for x <= 1/8 and N_d <= 2 q^d / d
        tail = mpmath.mpf(48) / ((_KLEIN_PLACE_DEGREE + 1) * (q - 1)
                                 * q ** _KLEIN_PLACE_DEGREE)
        euler = mpmath.e ** log_product
        log_q = mpmath.log(q)
        residue = 1 / ((1 - mpmath.mpf(1) / q) * log_q)
        predicted = mpmath.mpf(2) / 3 * log_q / 144 * residue ** 4 * euler
        rescale = float(log_q) ** 3
    fitted = {}
    ratios = {}
    for cls, entry in fit["classes"].items():
        fitted[cls] = entry["leading"]
        if not entry["zero"]:
            ratios[cls] = entry["leading"] / (float(predicted) * rescale)
    even = [ratios[cls] for cls in sorted(ratios)]
    return {"predicted": float(predicted),
            "fitted_by_class": fitted,
            "ratio_by_class": ratios,
            "ratio": sum(even) / len(even) if even else 0.0,
            "odd_classes_zero": all(
                fit["classes"][cls]["zero"]
                for cls in range(1, fit["modulus"], 2)),
            "tail_bound": float(tail),
            "max_place_degree": _KLEIN_PLACE_DEGREE}


def _encode(value):
    """json.dumps' default hook: a Fraction as its 'num/den' string, a
    PoleLine as its object; anything else is not JSON, as json says."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, PoleLine):
        return {"real_part": str(value.real_part),
                "angular_step": str(value.angular_step),
                "max_order": value.max_order,
                "certainty": "definite" if value.definite else "candidate"}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def report_json(ctx: PrimeContext, coefficients=None) -> str:
    """Full asymptotics report for one context as a JSON document.

    Includes the main-term parameters, both pole catalogs and the local
    leading constants, and fits (and for p = r = 2 the Klein constant
    comparison) when exact coefficients are supplied.  The inequality
    lemmas are not per context; verify_inequalities reports them.  Output
    is deterministic.
    """
    constants = local_leading_constants(ctx)  # first: its pole-degree cap bounds p
    payload = {
        "p": ctx.p,
        "n": ctx.n,
        "r": ctx.r,
        "params": asdict(main_term_params(ctx)),
        "pole_catalog": {
            "local": list(local_pole_catalog(ctx)),
            "global": list(global_pole_catalog(ctx)),
        },
        "constants": {
            "modulus": constants.modulus,
            "values": constants.constants,
            "relative_errors": constants.relative_errors,
            "m_max": constants.m_max,
        },
        "fits": None,
    }
    if coefficients is not None:
        payload["fits"] = main_term_fit(ctx, coefficients)
        if ctx.p == 2 and ctx.r == 2:
            payload["klein_constant"] = _klein_constant(ctx, payload["fits"])
    return json.dumps(payload, indent=2, default=_encode)
