"""Scanning the steep concavity bound Delta_{n,k}(y; f) <= -2 c r^n.

Functions satisfying the bound for every stencil are nowhere differentiable;
the scanner checks it exhaustively over a finite stencil family in exact
rational arithmetic, reporting the worst margin Delta + 2 c r^n (violation
iff positive).
"""

from fractions import Fraction as F

from pathfn import (
    Distance,
    MembershipQuery,
    ThetaSplice,
    USeries,
    membership_scan,
    radix_y_set,
)

print("=== takagi_2 passes at c = 2 with worst margin exactly 0 ===")
rep = membership_scan(
    MembershipQuery(f=USeries(2, Distance()), c=F(2), r=2, n_max=6, y_set=radix_y_set(2, 4))
)
print(f"  verdict: {rep.verdict}")
print(f"  worst margin {rep.worst_margin} at stencil {rep.worst_triplet} "
      f"({rep.scanned} stencils scanned)")
print("  the margin is tight: at (0,0,1/2) the bound holds with equality")

print("\n=== the tent function itself fails: it has linear pieces ===")
rep = membership_scan(
    MembershipQuery(f=Distance(), c=F(1), r=2, n_max=2, y_set=radix_y_set(2, 2))
)
print(f"  verdict: {rep.verdict}, worst margin {rep.worst_margin} at {rep.worst_triplet}")
print("  (a linear cell has second difference 0, which can never be <= -2c r^n)")

print("\n=== the smooth-splice counterexample ===")
u_theta = USeries(2, ThetaSplice(2))
rep = membership_scan(
    MembershipQuery(f=u_theta, c=F(1, 10), r=2, n_max=5, y_set=(F(1, 2),))
)
print(f"  series of the x^2 splice, c = 1/10: {rep.verdict}")
print(f"  worst margin {rep.worst_margin} at {rep.worst_triplet}")
print("  its second difference at (n, 0, 1/2) is flat at -2/(r-1) = -2, so any")
print("  fixed c > 0 is eventually violated once 2 c r^n exceeds 2")

print("\n=== float mode never converts rounding noise into a verdict ===")
rep = membership_scan(
    MembershipQuery(f=USeries(2, Distance()), c=F(2), r=2, n_max=3, y_set=radix_y_set(2, 2), mode="float")
)
print(f"  takagi_2 at c = 2 in float mode: {rep.verdict}")
print(f"  (true worst margin is exactly 0; the certified interval around the")
print(f"   computed {rep.worst_margin} straddles it, so the scan abstains)")
