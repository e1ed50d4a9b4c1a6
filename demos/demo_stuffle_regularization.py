"""
Stuffle products and regularized values
=======================================

Truncated multiple zeta values multiply by the stuffle (harmonic) rule,
and divergent indices acquire a polynomial in T that tracks the
truncation at T = log M + gamma.  Both facts are exact/asymptotic
statements the library can demonstrate in a few lines.
"""

import math

from schurmzv.mzv import EULER_GAMMA, truncated_mzv, truncated_mzv_float
from schurmzv.stuffle import eval_tpoly, regularize, stuffle_product

# The stuffle rule: zeta_M(2) * zeta_M(3) = zeta_M(2,3) + zeta_M(3,2)
# + zeta_M(5), and likewise for any pair of indices.
u, v = (2,), (3,)
prod = stuffle_product(u, v)
print("stuffle product of", u, "and", v, "->", prod)

for M in (4, 10, 25):
    lhs = truncated_mzv(u, M) * truncated_mzv(v, M)
    rhs = sum(c * truncated_mzv(idx, M) for idx, c in prod.terms.items())
    print(f"  M = {M:2d}: product {lhs} == expansion {rhs}: {lhs == rhs}")

# Divergent indices end in 1, and their truncations grow like log M.
# Regularization returns a polynomial in T whose coefficients are
# convergent combinations; substituting T = log M + gamma recovers the
# truncation up to O(log^2 M / M).
idx = (2, 1)
poly = regularize(idx)
print("\nregularized", idx, "has T-degree", poly.degree)

print("truncation vs regularized polynomial at T = log M + gamma:")
for M in (2**8, 2**10, 2**12, 2**14):
    zm = truncated_mzv_float(idx, M)
    zs = eval_tpoly(poly, math.log(M) + EULER_GAMMA)
    bound = math.log(M) ** 2 / M
    print(
        f"  M = {M:5d}: zeta_M = {zm:.8f}, zeta* = {zs:.8f}, "
        f"|diff| = {abs(zm - zs):.2e}  (log^2 M / M = {bound:.2e})"
    )

# The admissible part of the polynomial is its constant coefficient;
# for (2,1) the whole dependence on T sits in degree 1 against zeta(2).
print("\ncoefficients by T-power:", poly)
