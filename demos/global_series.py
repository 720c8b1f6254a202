"""
The Dirichlet series counting C_p^r-extensions of the rational function
field F_q(t) by discriminant degree: exact coefficients from an Euler
product, cross-checked against a brute-force sweep over divisors, with
integer coefficients even though the inclusion-exclusion weights are not.
"""

from fractions import Fraction

from ascount.compositions import delsarte_weight
from ascount.counting import (counts_by_degree, enumerate_global,
                              global_count, global_count_by_degree)
from ascount.dirichlet import global_dirichlet, series_to_json
from ascount.fields import Divisor, INFINITY, finite_place, make_context

ctx = make_context(p=2, n=1, r=1)

## Coefficients of the counting series for (q, r) = (2, 1)
series = global_dirichlet(ctx, 12)
print("c_m for m <= 12:", list(series.coefficients()))
# c_0 = 1 is the trivial extension; odd degrees are empty; the rest
# quadruple: two ramified places more than make up for a lost degree

## The same numbers the slow way
tally = counts_by_degree(enumerate_global(ctx, 6))
print("enumeration by degree:", tally)
print("closed form agrees:",
      all(global_count_by_degree(ctx, d) == tally.get(d, 0)
          for d in range(7)))

## Counts attached to a single divisor
T = finite_place(ctx, [0, 1])
quad = finite_place(ctx, [1, 1, 1])          # t^2 + t + 1, irreducible
print("\ndisc = t^2:        ", global_count(ctx, Divisor([(T, 2)])))
print("disc = inf^2:      ", global_count(ctx, Divisor([(INFINITY, 2)])))
print("disc = (t2+t+1)^2: ", global_count(ctx, Divisor([(quad, 2)])))
# the last one sits at a norm-4 place, which carries 3 lines of
# conductor 2 instead of 1; with the rank-1 weights that gives 2 * 3

## Fractional weights, integral counts
ctx22 = make_context(p=2, n=1, r=2)
weights = [delsarte_weight(f, ctx22) for f in range(3)]
print("\nDelsarte weights for r = 2:", [str(Fraction(w)) for w in weights])
coeffs = global_dirichlet(ctx22, 16).coefficients()
print("c_m for (q, r) = (2, 2), m <= 16:", list(coeffs))
# e_2 = 2/3 and e_0 = 1/3 cancel in every coefficient: the weighted sum
# counts honest extensions, so it could never be fractional, and the
# series divides by |GL_2(F_2)| = 6 exactly or raises InvariantViolation

## Serialization keeps everything exact
print("\nJSON schema (truncated):")
print("\n".join(series_to_json(ctx, global_dirichlet(ctx, 4)).splitlines()[:9]))
