"""The series transform's exact second-difference decomposition and the
sufficient conditions it yields.

For U_psi(x) = sum_j r^{-j} psi(r^j x), second differences decompose as

    Delta_{n,k}(y; U_psi) = sum_{j<n} r^j Delta_{n-j,k}(y; psi)
                            - (2 r^n / (y(1-y))) U_psi(y),

an identity that holds exactly (rational arithmetic, zero tolerance).  From
it: if m*d <= psi on [0,1] and Delta(psi) <= alpha with 2mr > alpha, the
transform satisfies the steep bound at c = (2mr - alpha)/(2(r-1)).
"""

from fractions import Fraction as F

from pathfn import (
    Distance,
    ScanParams,
    ThetaSplice,
    Triplet,
    USeries,
    check_sufficient_conditions,
    lower_chain_check,
    psi_zero,
    radix_x_samples,
    u_delta_identity_residual,
)
from pathfn.series import identity_residual_scan

print("=== the decomposition holds exactly, stencil by stencil ===")
for psi, r, label in (
    (Distance(), 2, "d, r=2"),
    (psi_zero(1, 1), 3, "d + d^2, r=3"),
    (ThetaSplice(2), 2, "x^2 splice, r=2"),
):
    s = USeries(r, psi)
    t = Triplet(3, 5 % r**3, F(1, r**2))
    print(f"  {label}: residual at {t} = {u_delta_identity_residual(s, t)}")

print("\n=== batch verification over a whole stencil family ===")
s = USeries(2, psi_zero(1, 1))
rep = identity_residual_scan(s, 6, (F(1, 8), F(1, 2), F(7, 8)))
print(f"  d + d^2, r=2, depths 0..6: {rep.checked} residuals, all zero: "
      f"{rep.offender is None}")

print("\n=== sufficient conditions in action ===")
cases = [
    ("d (concave, m=1, alpha=0)", Distance(), 2, F(1), F(0)),
    ("d + d^2 (semiconcave, m=1, alpha=2)", psi_zero(1, 1), 2, F(1), F(2)),
    ("x^2 splice (m=1, alpha=2)", ThetaSplice(2), 2, F(1), F(2)),
]
for label, psi, r, m, alpha in cases:
    s = USeries(r, psi)
    rep = check_sufficient_conditions(s, m, alpha, ScanParams(n_max=4, y_depth=3))
    if rep.passed:
        print(f"  {label}: PASS, implied constant c = {rep.c} "
              f"[lower bound checked: {rep.lower_bound_mode}]")
    else:
        print(f"  {label}: FAIL, witness x = {rep.lower_bound_witness} "
              f"(quadratic start loses to m*d near 0)")

print("\n=== the quadratic / takagi-style / transform chain ===")
s = USeries(2, psi_zero(1, 1))
chain = lower_chain_check(s, F(1), radix_x_samples(2, 5))
print(f"  (m r/(r-1)) x(1-x) <= m tau_r(x) <= U_psi(x) at {chain.checked} grid "
      f"points: {chain.holds}")
