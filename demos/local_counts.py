"""
Counting wildly ramified C_p^r-extensions of a local field F_q((t)),
exactly, three independent ways: the closed-form count, brute-force
enumeration of Artin-Schreier subspaces, and the rational generating
function with its linear recurrence.
"""

from ascount.counting import enumerate_local, local_count
from ascount.dirichlet import local_direct_series, local_reduced
from ascount.fields import make_context

## C_2-extensions of F_2((t))
ctx = make_context(p=2, n=1, r=1)

print("Z(F_2((t)), C_2) by discriminant exponent:")
for exponent in range(9):
    print(f"  d = {exponent}: {local_count(ctx, exponent)}")

# exponent 0 is the unramified count, odd exponents are impossible
# (conductors c = 1 mod p never occur), and the rest double each step

## The same numbers by enumerating reduced representatives
brute = enumerate_local(ctx, 8)
print("enumeration agrees:",
      brute == {e: local_count(ctx, e) for e in range(9)})

## The generating function is rational
rational = local_reduced(ctx)
print("numerator:  ", ", ".join(map(str, rational.num)))
print("denominator:", ", ".join(map(str, rational.den)))
print("recurrence weights:", ", ".join(map(str, rational.recurrence())))
# den = 1 - 2u^2, so c_m = 2 c_{m-2} once past the numerator degree

series = rational.series(16)
print("series to u^16:", list(series.coefficients()))
print("matches the direct expansion:",
      series == local_direct_series(ctx, 16))

## A rank-2 example where the count is not monotone
ctx22 = make_context(p=2, n=2, r=2)
print("\nZ(F_4((t)), C_2 x C_2) by discriminant exponent:")
for exponent in range(0, 13, 2):
    print(f"  d = {exponent}: {local_count(ctx22, exponent)}")

# d = 6 counts 4 extensions over F_4 but zero over F_2: the only chain
# with that exponent is the equal pair (2, 2), and its leading-term count
# has a factor (norm - p) that vanishes exactly when q = p
ctx12 = make_context(p=2, n=1, r=2)
print("over F_2 the d = 6 count collapses:", local_count(ctx12, 6))
