"""Exact arithmetic in F_q, dense polynomials over F_q, and places of F_q(t).

Conventions used throughout the package:

* An element of F_q (q = p^n) is stored as an integer code in [0, q).
  The element with coordinate vector (c_0, ..., c_{n-1}) over F_p, written
  in the power basis of the fixed modulus, has code c_0 + c_1 p + ... +
  c_{n-1} p^(n-1).  Codes 0 and 1 are the field's 0 and 1.
* A polynomial over F_q is a tuple of codes, lowest degree first, with no
  trailing zeros; the zero polynomial is the empty tuple.
* The modulus defining F_q is the lexicographically smallest monic
  irreducible of degree n over F_p, coefficients compared low-to-high as
  integers.  For n = 1 this degenerates to x, i.e. the prime field itself.
  It is found on first use, so a context whose work reads only p, n, r and
  q (local counts, the global series, the asymptotics) never searches.
* F_q arithmetic runs on tables of q^2 entries, built on first use for
  q <= 2^10 only; above that it raises ValueError.
* Places of F_q(t) are the monic irreducible polynomials plus the place at
  infinity (uniformiser 1/t, degree 1).
* Divisors have one text format, term(,term)* with term = poly[^e] or
  inf[^e]: poly_str and Divisor.__str__ write it, parse_divisor reads it.
* Irreducibility tests and factoring share one distinct-degree split: the
  factors of degree d are gcd(f, x^(q^d) - x) once the lower degrees are
  divided out.  The exhaustive sieve `irreducibles` lists the places of one
  degree, making each composite once from its least factor, and checks
  their number against the necklace count; factoring uses it only to
  separate factors of equal degree.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from .errors import InvariantViolation

Poly = tuple  # tuple of F_q codes, lowest degree first, no trailing zeros

PZERO: Poly = ()
PONE: Poly = (1,)
PX: Poly = (0, 1)

# Largest q for which F_q arithmetic builds its tables: the add and multiply
# tables have q^2 entries; building all three took 0.3 s and 45 MB at
# q = 2^10, 1.1 s and 210 MB at q = 2^11 (Python 3.11 on one core of a
# 2-core Xeon virtual machine).
_TABLE_LIMIT = 2 ** 10

# Largest rank r.  The chain weights, the Delsarte weights and |GL_r(F_p)|
# take powers of p in r before any other cap is met: at p = 2 and r = 256
# every subcommand took about 12 s to print zeros, and at p = 2^31 - 1 one
# took 4 s at r = 64 and over 30 s at r = 128.  At p = 2 and r >= 16 no
# kept chain of exponent <= 2^15 exists except the empty one, so a larger
# r adds cost and no count.  At r = 32 every subcommand took <= 0.6 s at
# p in {2, 3, 2^31 - 1} (Python 3.11, 2-core Xeon VM).
_MAX_RANK = 32


def _prime_factors(m: int) -> list:
    """Distinct prime factors of m, ascending, by trial division up to
    sqrt(m); empty for m < 2."""
    out, ell = [], 2
    while ell * ell <= m:
        if m % ell == 0:
            out.append(ell)
            while m % ell == 0:
                m //= ell
        ell += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeContext:
    """Fixed parameters (p, n, r): base prime, log_p of the constant field
    size, and the rank of the elementary-abelian Galois group C_p^r."""

    p: int
    n: int
    r: int

    @cached_property
    def q(self) -> int:
        return self.p ** self.n

    @cached_property
    def modulus(self) -> tuple:
        """Monic irreducible of degree n over F_p defining F_q.

        Coefficient tuples are compared low-to-high; the first irreducible
        in that order is chosen, so the convention is reproducible.
        """
        if self.n == 1:
            return (0, 1)
        prime = make_context(self.p, 1, 1)
        for coeffs in itertools.product(range(self.p), repeat=self.n):
            f = coeffs + (1,)
            # x divides f when the constant term is 0, so skip the test
            if coeffs[0] and is_irreducible(prime, f):
                return f
        raise InvariantViolation("no irreducible modulus found")

    # --- F_q arithmetic on integer codes -----------------------------------

    def _table_size(self) -> int:
        """q, or ValueError if it is too large for the tables below."""
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"F_q arithmetic needs q <= {_TABLE_LIMIT}, "
                             f"got q = {self.p}^{self.n} = {self.q}")
        return self.q

    @cached_property
    def _mul_table(self):
        """a*b for all codes, by discrete logarithms: one primitive element
        g is found, its powers are listed with O(q) polynomial products, and
        a*b = g^(log a + log b) is an index lookup."""
        p, n, q = self.p, self.n, self._table_size()
        if n == 1:
            return [[a * b % p for b in range(q)] for a in range(q)]
        prime = make_context(p, 1, 1)
        for g in range(2, q):
            gen, power, antilog = ptrim(_decode_full(g, p, n)), PONE, [1]
            while True:
                power = pmod(prime, pmul(prime, power, gen), self.modulus)
                if power == PONE:
                    break
                antilog.append(_encode(power, p))
            if len(antilog) == q - 1:
                break
        else:
            raise InvariantViolation("no primitive element found")
        log = [0] * q
        for k, a in enumerate(antilog):
            log[a] = k
        antilog += antilog
        return [[0] * q] + [[0] + [antilog[log[a] + log[b]] for b in range(1, q)]
                            for a in range(1, q)]

    @cached_property
    def _add_table(self):
        """a+b for all codes, one base-p digit at a time: with a = a0 + p*a1
        and b = b0 + p*b1, a+b = (a0+b0 mod p) + p*(a1+b1), the second term
        read from the table of the higher digits."""
        self._table_size()
        p = self.p
        low = [[(a0 + b0) % p for b0 in range(p)] for a0 in range(p)]
        table = [[0]]
        for _ in range(self.n):
            table = [[p * t + s for t in upper for s in low[a0]]
                     for upper in table for a0 in range(p)]
        return table

    @cached_property
    def _neg_table(self):
        p, n, q = self.p, self.n, self._table_size()
        return [_encode([(-x) % p for x in _decode_full(a, p, n)], p)
                for a in range(q)]

    def fadd(self, a: int, b: int) -> int:
        return self._add_table[a][b]

    def fneg(self, a: int) -> int:
        return self._neg_table[a]

    def fsub(self, a: int, b: int) -> int:
        return self._add_table[a][self._neg_table[b]]

    def fmul(self, a: int, b: int) -> int:
        return self._mul_table[a][b]

    def fpow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        result = 1
        while e:
            if e & 1:
                result = self.fmul(result, a)
            a = self.fmul(a, a)
            e >>= 1
        return result

    def finv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.fpow(a, self.q - 2)

    def fsmul(self, k: int, a: int) -> int:
        """Scalar multiple by k in F_p (k an integer, reduced mod p): codes
        0..p-1 are the prime-field elements, so one product."""
        return self.fmul(k % self.p, a)

    def element_coords(self, a: int) -> tuple:
        """Coordinate vector of length n over F_p for the code a."""
        return tuple(_decode_full(a, self.p, self.n))

    def element_from_coords(self, coords) -> int:
        if len(coords) != self.n:
            raise ValueError(f"need {self.n} coordinates, got {len(coords)}")
        return _encode(tuple(c % self.p for c in coords), self.p)


def _decode_full(a: int, p: int, n: int):
    out = []
    for _ in range(n):
        out.append(a % p)
        a //= p
    return out


def _encode(coeffs, p: int) -> int:
    a = 0
    for c in reversed(coeffs):
        a = a * p + c
    return a


@lru_cache(maxsize=None)
def make_context(p: int, n: int, r: int) -> PrimeContext:
    """Build the shared context for (p, n, r).  q = p^n.

    Raises ValueError for p >= 2^31, non-prime p, non-positive n or r,
    or r > _MAX_RANK.
    """
    if p >= 2 ** 31:  # trial division below takes 6 ms at p = 2^31 - 1
        raise ValueError(f"p = {p} is not below 2^31")
    if _prime_factors(p) != [p]:
        raise ValueError(f"p = {p} is not prime")
    if n < 1 or r < 1:
        raise ValueError("n and r must be at least 1")
    if r > _MAX_RANK:
        raise ValueError(f"r = {r} exceeds {_MAX_RANK}")
    return PrimeContext(p, n, r)


# ---------------------------------------------------------------------------
# dense polynomials over F_q
# ---------------------------------------------------------------------------


def ptrim(a) -> Poly:
    """a as a tuple without its trailing zeros, cut by one slice."""
    a = tuple(a)
    end = len(a)
    while end and a[end - 1] == 0:
        end -= 1
    return a[:end]


def pdeg(a: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def padd(ctx: PrimeContext, a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ctx.fadd(out[i], c)
    return ptrim(out)


def pneg(ctx: PrimeContext, a: Poly) -> Poly:
    return tuple(ctx.fneg(c) for c in a)


def psub(ctx: PrimeContext, a: Poly, b: Poly) -> Poly:
    return padd(ctx, a, pneg(ctx, b))


def pmul(ctx: PrimeContext, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return PZERO
    out = [0] * (len(a) + len(b) - 1)
    fmul, fadd = ctx.fmul, ctx.fadd
    for i, ai in enumerate(a):
        if ai:
            row = ctx._mul_table[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = fadd(out[i + j], row[bj])
    return ptrim(out)


def pmulc(ctx: PrimeContext, a: Poly, c: int) -> Poly:
    if c == 0:
        return PZERO
    row = ctx._mul_table[c]
    return ptrim(row[x] for x in a)


def pdivmod(ctx: PrimeContext, a: Poly, b: Poly):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return PZERO, a
    rem = list(a)
    db = len(b) - 1
    inv_lead = ctx.finv(b[-1])
    quot = [0] * (len(a) - db)
    for shift in range(len(a) - db - 1, -1, -1):
        top = rem[shift + db]
        if top:
            c = ctx.fmul(top, inv_lead)
            quot[shift] = c
            for i, bi in enumerate(b):
                rem[shift + i] = ctx.fsub(rem[shift + i], ctx.fmul(c, bi))
    return ptrim(quot), ptrim(rem[:db])


def pmod(ctx: PrimeContext, a: Poly, b: Poly) -> Poly:
    return pdivmod(ctx, a, b)[1]


def pmonic(ctx: PrimeContext, a: Poly) -> Poly:
    if not a:
        return a
    return pmulc(ctx, a, ctx.finv(a[-1]))


def pgcd(ctx: PrimeContext, a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, pmod(ctx, a, b)
    return pmonic(ctx, a)


def ppowmod(ctx: PrimeContext, a: Poly, e: int, m: Poly) -> Poly:
    result = PONE
    a = pmod(ctx, a, m)
    while e:
        if e & 1:
            result = pmod(ctx, pmul(ctx, result, a), m)
        a = pmod(ctx, pmul(ctx, a, a), m)
        e >>= 1
    return result


def ppow(ctx: PrimeContext, a: Poly, e: int) -> Poly:
    result = PONE
    while e:
        if e & 1:
            result = pmul(ctx, result, a)
        a = pmul(ctx, a, a)
        e >>= 1
    return result


def _distinct_degree(ctx: PrimeContext, f: Poly) -> Iterator[tuple]:
    """Distinct-degree split of a monic f over F_q: yields (d, part) for
    each d in ascending order at which f has irreducible factors, part
    being their product, each factor once.

    With rest = f stripped of all factors of degree < d, part is
    gcd(rest, x^(q^d) - x); x^(q^d) mod rest advances by one q-th power
    per degree.  Once 2d exceeds deg(rest), rest is irreducible and comes
    last.
    """
    rest, xpow, d = f, PX, 0
    while pdeg(rest) > 0:
        d += 1
        if 2 * d > pdeg(rest):
            yield pdeg(rest), rest
            return
        xpow = ppowmod(ctx, xpow, ctx.q, rest)
        part = pgcd(ctx, rest, psub(ctx, xpow, PX))
        if pdeg(part) > 0:
            yield d, part
            common = part
            while pdeg(common) > 0:
                rest = pdivmod(ctx, rest, common)[0]
                common = pgcd(ctx, rest, common)


def is_irreducible(ctx: PrimeContext, f: Poly) -> bool:
    """Whether the monic f is irreducible over F_q: its distinct-degree
    split starts with f itself."""
    f = tuple(f)
    if pdeg(f) < 1:
        return False
    if f[-1] != 1:
        raise ValueError("irreducibility test expects a monic polynomial")
    return next(_distinct_degree(ctx, f)) == (pdeg(f), f)


def factor_monic(ctx: PrimeContext, f: Poly) -> list:
    """Factor a monic polynomial into (irreducible, multiplicity) pairs,
    ascending by degree.  A part of the distinct-degree split whose degree
    is d is itself the factor; one holding several factors of degree d is
    split by trial division with irreducibles(ctx, d)."""
    out, rest = [], f
    for d, part in _distinct_degree(ctx, f):
        found = [part] if pdeg(part) == d else [
            g for g in irreducibles(ctx, d) if not pmod(ctx, part, g)]
        for g in found:
            e = 0
            while True:
                quot, rem = pdivmod(ctx, rest, g)
                if rem:
                    break
                rest, e = quot, e + 1
            out.append((g, e))
    return out


@lru_cache(maxsize=None)
def _least_factors(ctx: PrimeContext, d: int):
    """The least irreducible factor of every monic polynomial of degree d,
    indexed by its lexicographic rank: the rank of (c_0, ..., c_{d-1}, 1)
    is c_0 q^(d-1) + ... + c_{d-1}, the order of itertools.product.  A
    factor of degree e and rank k is stored as the key (q^e-1)/(q-1) + k,
    which orders factors by degree, then rank; an irreducible is its own
    least factor, so it alone has a key >= (q^d-1)/(q-1).

    Each composite h is made once, as f*g with f its least factor (degree
    e <= d/2) and g of degree d-e with least factor >= f, read off the
    table of degree d-e: no product of lower degree is formed again.  The
    table is an array of 8-byte ints.
    """
    from array import array  # loaded only by the commands that sieve

    q, mul, add = ctx.q, ctx._mul_table, ctx._add_table  # q > 2^10 refused here
    least = array("q", range((q ** d - 1) // (q - 1), (q ** (d + 1) - 1) // (q - 1)))
    for e in range(1, d // 2 + 1):
        below, start = _least_factors(ctx, d - e), (q ** e - 1) // (q - 1)
        for key in filter(start.__le__, _least_factors(ctx, e)):
            f = _decode_full(key - start, q, e)[::-1]  # below t^e
            rows = [(i, mul[a]) for i, a in enumerate(f + [1]) if a]
            shifted = [0] * (d - e) + f  # f * t^(d-e) below t^d
            for g in itertools.compress(itertools.product(range(q), repeat=d - e),
                                        map(key.__le__, below)):
                h = shifted[:]  # f * (g + t^(d-e)) below t^d
                for i, row in rows:
                    for j, b in enumerate(g, i):
                        if b:
                            h[j] = add[h[j]][row[b]]
                rank = 0
                for c in h:
                    rank = rank * q + c
                least[rank] = key
    return least


@lru_cache(maxsize=None)
def irreducibles(ctx: PrimeContext, d: int) -> tuple:
    """All monic irreducibles of degree d over F_q, lexicographic order.

    Computed by a sieve on least factors (_least_factors): every monic
    polynomial of degree d that factors is made once from its least
    factor, and the rest are irreducible.  Their number must be the
    necklace count of place_count.  Exhaustive, desk scale.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    # its own least factor, with a key past every lower degree's
    irreducible = map(((ctx.q ** d - 1) // (ctx.q - 1)).__le__, _least_factors(ctx, d))
    out = tuple(coeffs + (1,) for coeffs in itertools.compress(
        itertools.product(range(ctx.q), repeat=d), irreducible))
    expected = place_count(ctx, d) - (d == 1)
    if len(out) != expected:
        raise InvariantViolation(f"sieve found {len(out)} irreducibles of "
                                 f"degree {d}, the necklace count is {expected}")
    return out


@lru_cache(maxsize=None)
def place_count(ctx: PrimeContext, d: int) -> int:
    """Number of places of F_q(t) of degree d (infinity counts at d = 1):
    the necklace sum of (-1)^k q^(d/e) over the squarefree divisors e of d,
    k the number of primes in e, divided by d.  Memoised per (ctx, d), as
    the global product asks for every degree once per depth."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    primes = _prime_factors(d)
    total = sum((-1) ** k * ctx.q ** (d // math.prod(chosen))
                for k in range(len(primes) + 1)
                for chosen in itertools.combinations(primes, k))
    if total % d:
        raise InvariantViolation(f"necklace sum {total} not divisible by {d}")
    count = total // d
    return count + 1 if d == 1 else count


# ---------------------------------------------------------------------------
# places and divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of F_q(t): a monic irreducible polynomial, or infinity.

    poly is None exactly for the place at infinity (uniformiser 1/t).  ctx,
    when given, only tells __str__ how to write coefficients of F_q (see
    poly_str); it takes no part in equality or hashing.
    """

    poly: Optional[Poly]
    ctx: Optional[PrimeContext] = field(default=None, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else len(self.poly) - 1

    def sort_key(self):
        # by degree, then poly; infinity's (2, ()) precedes every degree 1
        return (2, ()) if self.poly is None else (len(self.poly), self.poly)

    def __str__(self) -> str:
        return "inf" if self.poly is None else poly_str(self.poly, ctx=self.ctx)


INFINITY = Place(None)


def finite_place(ctx: PrimeContext, poly: Poly) -> Place:
    poly = ptrim(poly)
    if pdeg(poly) < 1 or poly[-1] != 1:
        raise ValueError("a finite place needs a monic polynomial of degree >= 1")
    if not is_irreducible(ctx, poly):
        raise ValueError(f"{poly_str(poly, ctx=ctx)} is not irreducible")
    return Place(poly, ctx)


@lru_cache(maxsize=None)
def places(ctx: PrimeContext, d: int) -> tuple:
    """All places of degree d, deterministic order (infinity first at d=1).
    Memoised per (ctx, d), like irreducibles."""
    finite = tuple(Place(f, ctx) for f in irreducibles(ctx, d))
    return (INFINITY, *finite) if d == 1 else finite


def poly_str(a: Poly, ctx: Optional[PrimeContext] = None) -> str:
    """a written in the divisor grammar below, e.g. t2+t+1, or [0,1]t+1
    over F_4.  Without ctx every code is written as a digit, which is the
    same thing when n = 1."""
    if not a:
        return "0"

    def coefficient(c: int) -> str:
        if ctx is None or c < ctx.p:
            return str(c)
        return "[" + ",".join(map(str, ctx.element_coords(c))) + "]"

    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(coefficient(c))
        else:
            coeff = "" if c == 1 else coefficient(c)
            power = "t" if i == 1 else f"t{i}"
            parts.append(coeff + power)
    return "+".join(parts)


# Largest degree of a polynomial in a divisor.  Checking that a place is
# irreducible at degree d costs d/2 gcds and q-th powers modulo it; for an
# irreducible place of degree 64 that took 0.05 s at q = 2 and 2.4 s at
# q = 2^10, and at degree 128 0.4 s and 16 s (Python 3.11 on one core of a
# 2-core Xeon virtual machine).
_MAX_PLACE_DEGREE = 64

# The grammar that poly_str and Divisor.__str__ write: term(,term)*, with
# whitespace (what str.strip removes) around a term, term = poly[^e] or
# inf[^e]; the empty divisor is written 1, which parse_divisor reads apart.
# A polynomial is monomials joined by +; a monomial is a coefficient, or t
# with an optional coefficient before it and an optional exponent after it
# (t2 is t^2).  A coefficient is ASCII digits naming an element of F_p, or
# a bracketed base-p coordinate vector in the power basis, constant digit
# first, whose trailing zeros may be left out.
_COEFFICIENT = r"(?:\[[0-9]+(?:,[0-9]+)*\]|[0-9]+)"
_MONOMIAL = rf"(?:{_COEFFICIENT}?t[0-9]*|{_COEFFICIENT})"
_TERM = re.compile(rf"(inf|{_MONOMIAL}(?:\+{_MONOMIAL})*)(?:\^([0-9]+))?")
_DIVISOR = re.compile(rf"\s*{_TERM.pattern}\s*(?:,\s*{_TERM.pattern}\s*)*")


def _read_int(digits: str, bound: Optional[int] = None) -> Optional[int]:
    """int(digits) if it is at most bound, else None.  Leading zeros are
    dropped, and no more digits than bound has (or, if None, than the
    interpreter converts) reach int()."""
    digits = digits.lstrip("0") or "0"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or len(digits)
    if len(digits) > (limit if bound is None else len(str(bound))):
        return None
    value = int(digits)
    return value if bound is None or value <= bound else None


def _read_coefficient(ctx: PrimeContext, text: str) -> int:
    coords = [_read_int(d, ctx.p - 1) for d in text.strip("[]").split(",")]
    if len(coords) > ctx.n:
        raise ValueError(f"coefficient {text} needs 1..{ctx.n} digits")
    if None in coords:
        raise ValueError(f"coefficient {text} is not reduced mod {ctx.p}")
    return ctx.element_from_coords(coords + [0] * (ctx.n - len(coords)))


def _read_poly(ctx: PrimeContext, text: str) -> Poly:
    coeffs: dict = {}
    for monomial in text.split("+"):
        coefficient, t, power = monomial.partition("t")
        k = _read_int(power or "1", _MAX_PLACE_DEGREE) if t else 0
        if k is None:
            raise ValueError(
                f"degree {power} in divisor exceeds {_MAX_PLACE_DEGREE}")
        c = _read_coefficient(ctx, coefficient) if coefficient else 1
        coeffs[k] = ctx.fadd(coeffs.get(k, 0), c)
    return tuple(coeffs.get(i, 0) for i in range(max(coeffs) + 1))


def parse_divisor(ctx: PrimeContext, spec: str) -> Divisor:
    """Read a divisor in the grammar above, e.g. t2+t+1^2,inf over F_2 or
    t+[0,1]^2 over F_4, so parse_divisor(ctx, str(D)) == D for every D.
    Bad input raises ValueError."""
    if spec.strip() == "1":  # str(Divisor.one()); no other constant is a place
        return Divisor.one()
    if not _DIVISOR.fullmatch(spec):
        raise ValueError(f"malformed divisor {spec!r}")
    pairs = []  # a full match makes findall yield exactly its terms
    for base, exp in _TERM.findall(spec):
        e = _read_int(exp or "1")
        if not e:
            raise ValueError(f"bad multiplicity {exp!r} in divisor")
        place = INFINITY if base == "inf" else \
            finite_place(ctx, _read_poly(ctx, base))
        pairs.append((place, e))
    return Divisor(pairs)


class Divisor:
    """An effective divisor of F_q(t): places with positive multiplicities,
    built from (place, multiplicity) tuples, which it keeps as given."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        pairs = tuple(pairs)
        seen = set()  # polys: place equality is poly equality
        for place, e in pairs:
            if not isinstance(place, Place):
                raise ValueError("divisor keys must be places")
            if e < 1:
                raise ValueError("divisor multiplicities must be positive")
            if place.poly in seen:
                raise ValueError("repeated place in divisor")
            seen.add(place.poly)
        self._pairs = tuple(sorted(pairs, key=lambda pair: pair[0].sort_key()))

    @classmethod
    def one(cls) -> "Divisor":
        return cls(())

    @classmethod
    def _unchecked(cls, pairs: tuple) -> "Divisor":
        """The divisor on a tuple of pairs that is already valid and in
        Place.sort_key order (distinct places, multiplicities >= 1), kept
        as is: for a caller that vouches for both, as the divisor sweep
        does."""
        divisor = cls.__new__(cls)
        divisor._pairs = pairs
        return divisor

    def items(self):
        return self._pairs

    def degree(self) -> int:
        return sum(place.degree * e for place, e in self._pairs)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __str__(self):
        if not self._pairs:
            return "1"
        return ",".join(f"{place}^{e}" for place, e in self._pairs)

    def __repr__(self):
        return f"Divisor({self})"


# ---------------------------------------------------------------------------
# residue fields
# ---------------------------------------------------------------------------


class ResidueField:
    """The residue field F_{q^d} at a place, as polynomials modulo the place.

    Elements are tuples of F_q codes of fixed length d = deg(place); the
    residue field at infinity is F_q itself (d = 1).  Only the operations
    the reduction algorithm needs are provided.
    """

    __slots__ = ("ctx", "place", "degree")

    def __init__(self, ctx: PrimeContext, place: Place):
        self.ctx = ctx
        self.place = place
        self.degree = place.degree

    def _pad(self, a: Poly) -> tuple:
        return tuple(a) + (0,) * (self.degree - len(a))

    def from_poly(self, a: Poly) -> tuple:
        if self.place.poly is None:
            if pdeg(a) > 0:
                raise ValueError("the residue field at infinity holds constants")
            return self._pad(a)
        return self._pad(pmod(self.ctx, a, self.place.poly))

    def add(self, a, b):
        fadd = self.ctx.fadd
        return tuple(fadd(x, y) for x, y in zip(a, b))

    def neg(self, a):
        fneg = self.ctx.fneg
        return tuple(fneg(x) for x in a)

    def smul(self, k: int, a):
        """Multiple by the prime-field scalar k (an integer mod p)."""
        fsmul = self.ctx.fsmul
        return tuple(fsmul(k, x) for x in a)

    def pth_root(self, a):
        """Inverse Frobenius: the unique x with x^p = a in F_{q^d}, which is
        a^(p^(n d - 1)) since x^(q^d) = x."""
        e = self.ctx.p ** (self.ctx.n * self.degree - 1)
        if self.place.poly is None:
            return (self.ctx.fpow(a[0], e),)
        return self._pad(ppowmod(self.ctx, ptrim(a), e, self.place.poly))


@lru_cache(maxsize=None)
def residue_field(ctx: PrimeContext, place: Place) -> ResidueField:
    return ResidueField(ctx, place)
