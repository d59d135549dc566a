"""Why the steep bound forces nowhere differentiability, made numerical.

If f were differentiable at x, the one-sided slopes over the zooming
stencils around x would both converge to f'(x), so their gap would tend to
0.  The steep bound pins the gap at or below -c at every depth.  The probe
tabulates the gap; a persistent gap is finite-depth evidence of
non-differentiability at that x (never a proof over all depths).
"""

import math
from fractions import Fraction as F

from pathfn import Distance, USeries, divergence_probe

tau2 = USeries(2, Distance())

print("=== takagi_2 at the grid point x = 0 (exact) ===")
for row in divergence_probe(tau2, F(0), 6, y=F(1, 2), r=2):
    print(f"  n={row.n:2d}  slope+ = {str(row.dplus):>6}  slope- = {str(row.dminus):>5}  "
          f"gap = {row.gap}")
print("  the gap is exactly -2 at every depth: the bound holds with equality")

print("\n=== takagi_2 at x = 1/3, off the dyadic grid (exact) ===")
for row in divergence_probe(tau2, F(1, 3), 6, r=2):
    print(f"  n={row.n:2d}  y_n = {str(row.y):>3}  gap = {row.gap}")
print("  the interior offset y_n alternates through the orbit of 1/3")

print("\n=== a rational approximation of sqrt(2) - 1 (certified floats) ===")
x = F(round((math.sqrt(2) - 1) * 10**12), 10**12)
print(f"  x = {x}")
print("  (its doubling orbit has a cycle of length ~2e8, so exact summation is")
print("   infeasible; the probe falls back to certified truncated series)")
for row in divergence_probe(tau2, x, 8, r=2, mode="auto"):
    print(f"  n={row.n:2d}  gap = {row.gap.value:+.6f} +- {row.gap.err:.1e}  "
          f"certified <= -2: {row.gap.value + row.gap.err <= -2}")

print("\n=== contrast: the tent function is differentiable off the kinks ===")
for row in divergence_probe(Distance(), F(1, 4), 5, y=F(1, 2), r=2):
    print(f"  n={row.n:2d}  gap = {row.gap}")
print("  gap 0 from depth 1 on: locally linear, slopes agree; the probe shows")
print("  a differentiability signature instead")
