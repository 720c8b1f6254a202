"""Reduced Artin-Schreier representatives of F_q(t) modulo x^p - x.

Every class of F_q(t) modulo the image of x -> x^p - x has a unique reduced
representative: a constant from a fixed transversal of F_q modulo that image,
plus, at finitely many places, a principal part sum z_i / pi^i over indices i
not divisible by p with coefficients in the residue field.  The conductor
exponent of the degree-p extension attached to a nonzero class at a place is
the largest such index plus one, and zero where the principal part is empty.

Representatives are immutable and hashable so they can serve as set elements
in the brute-force enumerations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation
from .fields import (
    INFINITY,
    Place,
    PrimeContext,
    ResidueField,
    PONE,
    PZERO,
    factor_monic,
    padd,
    pdeg,
    pdivmod,
    pmod,
    pmonic,
    pmul,
    pmulc,
    ppow,
    ppowmod,
    ptrim,
    residue_field,
)


@lru_cache(maxsize=None)
def _constant_rep_table(ctx: PrimeContext) -> tuple:
    """For each code, the canonical representative of its coset of F_q
    modulo the additive subgroup {x^p - x}: the smallest code in it."""
    image = {ctx.fsub(ctx.fpow(x, ctx.p), x) for x in range(ctx.q)}
    table = [None] * ctx.q
    for a in range(ctx.q):
        if table[a] is None:
            for y in image:
                table[ctx.fadd(a, y)] = a
    if len(set(table)) != ctx.p:
        raise InvariantViolation(
            f"constant representatives {sorted(set(table))} are not p cosets")
    return tuple(table)


@lru_cache(maxsize=None)
def constant_reps(ctx: PrimeContext) -> tuple:
    """Transversal of F_q modulo the additive subgroup {x^p - x}: one code
    per coset, the smallest in each, ascending.  Always starts with 0."""
    return tuple(a for a, rep in enumerate(_constant_rep_table(ctx)) if rep == a)


@dataclass(frozen=True)
class GlobalRep:
    """A reduced representative: canonical constant code plus principal
    parts, stored as a sorted tuple of (place, ((index, coefficient), ...))
    with indices ascending, all coefficients nonzero residue elements."""

    constant: int
    parts: tuple

    def principal_at(self, place: Place) -> dict:
        for pl, entries in self.parts:
            if pl == place:
                return dict(entries)
        return {}

    def support(self) -> tuple:
        return tuple(pl for pl, _ in self.parts)

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.parts


def make_rep(ctx: PrimeContext, constant: int, principal: dict) -> GlobalRep:
    """Normalise a constant code and a {place: {index: coefficient}} mapping
    into a GlobalRep, dropping zero coefficients and empty places."""
    parts = []
    for place in sorted(principal, key=Place.sort_key):
        entries = tuple(sorted((i, tuple(z)) for i, z in principal[place].items()
                               if any(z)))
        if any(i < 1 or i % ctx.p == 0 for i, _ in entries):
            raise ValueError("principal part indices must be positive and prime to p")
        if entries:
            parts.append((place, entries))
    return GlobalRep(_constant_rep_table(ctx)[constant], tuple(parts))


def rep_add(ctx: PrimeContext, a: GlobalRep, b: GlobalRep) -> GlobalRep:
    merged: dict = {}
    for rep in (a, b):
        for place, entries in rep.parts:
            field = residue_field(ctx, place)
            bucket = merged.setdefault(place, {})
            for i, z in entries:
                bucket[i] = field.add(bucket[i], z) if i in bucket else z
    return make_rep(ctx, ctx.fadd(a.constant, b.constant), merged)


def rep_scale(ctx: PrimeContext, a: GlobalRep, k: int) -> GlobalRep:
    k %= ctx.p
    if k == 0:
        return GlobalRep(0, ())
    principal = {place: {i: residue_field(ctx, place).smul(k, z) for i, z in entries}
                 for place, entries in a.parts}
    return make_rep(ctx, ctx.fsmul(k, a.constant), principal)


def asc_at(rep: GlobalRep, place: Place) -> int:
    """Largest principal-part index at the place; -1 if there is none
    (the class is unramified there)."""
    entries = rep.principal_at(place)
    return max(entries) if entries else -1


def conductor_exponent(rep: GlobalRep, place: Place) -> int:
    m = asc_at(rep, place)
    return 0 if m == -1 else m + 1


def line_reps(ctx: PrimeContext, basis) -> list:
    """One representative per line of the span of the basis: the normalised
    combinations u_k + sum of lambda_j u_j over j > k.  Raises ValueError
    if the basis is dependent (two combinations land in the same class)."""
    basis = list(basis)
    out = []
    for k, u in enumerate(basis):
        tail = basis[k + 1:]
        for lambdas in itertools.product(range(ctx.p), repeat=len(tail)):
            rep = u
            for lam, v in zip(lambdas, tail):
                if lam:
                    rep = rep_add(ctx, rep, rep_scale(ctx, v, lam))
            out.append(rep)
    expected = (ctx.p ** len(basis) - 1) // (ctx.p - 1)
    if len(set(out)) != expected or any(rep.is_zero() for rep in out):
        raise ValueError("basis classes are linearly dependent")
    return out


def chain_at_place(ctx: PrimeContext, lines, place: Place) -> tuple:
    """Recover the conductor chain (c_1 >= ... >= c_h > 0) from the line
    conductor exponents at one place.

    The structure theorem forces the sorted multiset to consist of p^(r-1)
    copies of c_1, then p^(r-2) copies of c_2, and so on; a violation means
    the inputs were not the lines of an r-dimensional subspace.
    """
    conds = sorted((conductor_exponent(rep, place) for rep in lines), reverse=True)
    p = ctx.p
    r = 0
    while (p ** r - 1) // (p - 1) < len(conds):
        r += 1
    if (p ** r - 1) // (p - 1) != len(conds):
        raise InvariantViolation("line count is not (p^r - 1)/(p - 1)")
    chain, pos = [], 0
    for i in range(1, r + 1):
        block = conds[pos:pos + p ** (r - i)]
        pos += p ** (r - i)
        if any(c != block[0] for c in block):
            raise InvariantViolation(
                f"conductor multiset {conds} violates the block structure")
        chain.append(block[0])
    return tuple(c for c in chain if c > 0)


def disc_exponent_via_lines(ctx: PrimeContext, lines, place: Place) -> int:
    """Discriminant exponent by the conductor-discriminant formula:
    (p-1) times the sum of line conductor exponents."""
    return (ctx.p - 1) * sum(conductor_exponent(rep, place) for rep in lines)


# ---------------------------------------------------------------------------
# reduction of rational functions
# ---------------------------------------------------------------------------


def reduce_global(ctx: PrimeContext, num, den) -> GlobalRep:
    """Reduced representative of num/den in F_q(t) modulo x^p - x.

    Partial fractions give the canonical principal parts, one factor pi^e
    of the monic denominator at a time: with rem = num mod den and the
    cofactor c = den/pi^e, the part is h/pi^e for h = rem * c^(-1) mod pi^e,
    the inverse taken by Euler's theorem in (F_q[t]/pi^e)^x, whose order is
    q^(d(e-1)) (q^d - 1) for d = deg pi.
    Indices divisible by p are then cancelled by adding x^p - x applied to
    g/pi^l, where g is the p-th root of the negated offending coefficient
    (Frobenius is onto).  A factor common to num and den only adds zero
    digits.
    """
    num, den = ptrim(num), ptrim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    lead_inv = ctx.finv(den[-1])
    num, den = pmulc(ctx, num, lead_inv), pmonic(ctx, den)

    whole, rem = pdivmod(ctx, num, den)
    principal: dict = {}

    # polynomial part: constant plus the principal part at infinity
    constant = whole[0] if whole else 0
    if pdeg(whole) >= 1:
        principal[INFINITY] = {i: (c,) for i, c in enumerate(whole) if i >= 1 and c}

    if rem:
        total = PZERO
        for fpoly, e in factor_monic(ctx, den):
            power = ppow(ctx, fpoly, e)
            cofactor = pdivmod(ctx, den, power)[0]
            qd = ctx.q ** pdeg(fpoly)
            inverse = ppowmod(ctx, cofactor, qd ** (e - 1) * (qd - 1) - 1, power)
            h = pmod(ctx, pmul(ctx, rem, inverse), power)
            total = padd(ctx, total, pmul(ctx, h, cofactor))
            place = Place(fpoly, ctx)
            digits = _base_digits(ctx, h, fpoly, e)
            field = residue_field(ctx, place)
            entries = {}
            for i in range(1, e + 1):
                d = digits[e - i]
                if d:
                    entries[i] = field.from_poly(d)
            if entries:
                principal[place] = entries
        if total != rem:
            raise InvariantViolation("partial fractions do not sum to the remainder")

    for place in list(principal):
        _cancel_p_indices(ctx, place, principal[place])

    return make_rep(ctx, constant, principal)


def _base_digits(ctx: PrimeContext, h, base, count: int):
    """Digits of h in powers of base: h = sum digits[j] * base^j, each digit
    of degree < deg(base); exactly `count` digits are returned."""
    digits = []
    rest = h
    for _ in range(count):
        rest, d = pdivmod(ctx, rest, base)
        digits.append(d)
    if rest != PZERO:
        raise InvariantViolation("digit expansion overflow")
    return digits


def _cancel_p_indices(ctx: PrimeContext, place: Place, part: dict) -> None:
    """In-place removal of indices divisible by p from one principal part."""
    field = residue_field(ctx, place)
    p = ctx.p
    while True:
        bad = [i for i in part if i % p == 0]
        if not bad:
            break
        i = max(bad)
        ell = i // p
        z = part.pop(i)
        g = field.pth_root(field.neg(z))
        # add (g/pi^ell)^p - g/pi^ell; the top coefficient cancels exactly
        if place.poly is None:
            digits = [(ctx.fpow(g[0], p),)] + [(0,)] * (p - 1)
        else:
            gp = ppow(ctx, ptrim(g), p)
            digits = [field.from_poly(d)
                      for d in _base_digits(ctx, gp, place.poly, p)]
        if any(field.add(z, digits[0])):
            raise InvariantViolation("p-th power cancellation failed")
        for j in range(1, p):
            if any(digits[j]):
                _add_into(field, part, i - j, digits[j])
        _add_into(field, part, ell, field.neg(g))
    for i in [i for i, z in part.items() if not any(z)]:
        del part[i]


def _add_into(field: ResidueField, part: dict, index: int, value) -> None:
    s = field.add(part[index], value) if index in part else value
    if not any(s):
        part.pop(index, None)
    else:
        part[index] = s


def rep_to_rational(ctx: PrimeContext, rep: GlobalRep):
    """A rational function (num, den) whose class has this representative."""
    num = (rep.constant,) if rep.constant else PZERO
    den = PONE
    for place, entries in rep.parts:
        if place.poly is None:
            poly = [0] * (max(i for i, _ in entries) + 1)
            for i, z in entries:
                poly[i] = z[0]
            num = padd(ctx, num, pmul(ctx, ptrim(poly), den))
            continue
        top = max(i for i, _ in entries)
        pk = ppow(ctx, place.poly, top)
        local = PZERO
        for i, z in entries:
            local = padd(ctx, local,
                              pmul(ctx, ptrim(z), ppow(ctx, place.poly, top - i)))
        num = padd(ctx, pmul(ctx, num, pk), pmul(ctx, local, den))
        den = pmul(ctx, den, pk)
    return num, den
