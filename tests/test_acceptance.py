"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All exact claims use rational arithmetic end to end; float
claims carry certified error bounds.
"""

import math
import random
import time
from fractions import Fraction

from pathfn.audit import (
    crossing_points,
    dominance_check,
    pde_residual,
    psi_zero,
    sin_cancellation,
    subdiff_witnesses,
    u_delta_identity_residual,
    witness_support_violations,
)
from pathfn.core.funcs import (
    Distance,
    DistancePower,
    Sin2Pi,
    ThetaSplice,
    USeries,
    eval_approx,
    eval_exact,
)
from pathfn.core.points import Triplet, radix_y_set
from pathfn.differences import (
    MembershipQuery,
    central_second_diff,
    divergence_probe,
    membership_scan,
)
from pathfn.flow import (
    FlowQuery,
    flow_bruteforce_points,
    flow_grid,
)
from pathfn.series import (
    identity_residual_scan,
)

F = Fraction
TAU2 = USeries(2, Distance())
TAU3 = USeries(3, Distance())
PSI0 = psi_zero(1, 1)
U_PSI0 = USeries(2, PSI0)


def gate(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def test_c01_takagi_membership():
    t0 = time.perf_counter()
    rep2 = membership_scan(
        MembershipQuery(f=TAU2, c=F(2), r=2, n_max=8, y_set=radix_y_set(2, 6))
    )
    dt2 = time.perf_counter() - t0
    ok2 = rep2.verdict == "no-violation" and rep2.worst_margin == 0 and dt2 < 60.0
    t0 = time.perf_counter()
    rep3 = membership_scan(
        MembershipQuery(f=TAU3, c=F(3, 2), r=3, n_max=5, y_set=radix_y_set(3, 6))
    )
    dt3 = time.perf_counter() - t0
    ok3 = rep3.verdict == "no-violation" and rep3.worst_margin == 0 and dt3 < 60.0
    gate(
        1,
        "steep-bound scan of the radix-2 and radix-3 series of d",
        ok2 and ok3,
        f"margins {rep2.worst_margin}/{rep3.worst_margin}, "
        f"{rep2.scanned}+{rep3.scanned} triplets, {dt2:.1f}s+{dt3:.1f}s",
    )


def test_c02_central_identity():
    rng = random.Random(2024)
    checked = 0
    ok = True
    for psi in (Distance(), DistancePower(2), PSI0, None):
        for r in (2, 3):
            gen = ThetaSplice(r) if psi is None else psi
            s = USeries(r, gen)
            rep = identity_residual_scan(s, 6, radix_y_set(r, 3))
            ok = ok and rep.offender is None
            checked += rep.checked
            # spot-check the batch against the single-triplet definition
            for _ in range(10):
                n = rng.randint(0, 6)
                t = Triplet(n, rng.randrange(r**n), F(rng.randint(1, r**3 - 1), r**3))
                ok = ok and u_delta_identity_residual(s, t) == 0
    gate(2, "series second-difference decomposition residual is exactly 0", ok,
         f"{checked} triplets, zero tolerance")


def test_c03_theta_counterexample():
    ok = True
    for r in (2, 3):
        u_theta = USeries(r, ThetaSplice(r))
        for n in range(0, 11):
            delta = central_second_diff(u_theta, Triplet(n, 0, F(1, r)), r)
            ok = ok and delta == F(-2, r - 1)
    rep = membership_scan(
        MembershipQuery(f=USeries(2, ThetaSplice(2)), c=F(1, 10), r=2, n_max=5,
                        y_set=(F(1, 2),))
    )
    ok = ok and rep.verdict == "violated"
    gate(3, "splice counterexample: flat second difference -2/(r-1), scan violation",
         ok, f"worst margin {rep.worst_margin} at {rep.worst_triplet}")


def test_c04_flow_cross_validation():
    rng = random.Random(44)
    ok = True
    exact_checked = 0
    float_checked = 0
    for f, c in ((TAU2, F(2)), (U_PSI0, F(1))):
        for t in (F(1, 2 * c), F(1, 2 * c * 2), F(1)):
            q = FlowQuery(f=f, c=c, r=2, t=t)
            pq = flow_grid(q)
            depth = q.depth() + 4
            for _ in range(100):
                m = rng.randint(0, 8)
                x = F(rng.randint(0, 2**m), 2**m)
                ok = ok and flow_bruteforce_points(f, t, [x], radix_depth=depth, r=2)[0] == pq.eval(x)
                exact_checked += 1
            for _ in range(2):
                xf = rng.random()
                b = flow_bruteforce_points(f, t, [xf], radix_depth=depth, r=2, mode="float")[0]
                ok = ok and F(b.lo()) <= pq.eval(F(xf)) <= F(b.hi())
                float_checked += 1
    gate(4, "grid flow equals brute-force inf-convolution",
         ok, f"{exact_checked} exact radix points, {float_checked} float radix probes containing the grid value")


def test_c05_crossing_points_and_dominance_audit():
    rng = random.Random(55)
    pool = [TAU2, Distance(), PSI0, ThetaSplice(2), U_PSI0]
    xs = [F(j, 1000) for j in range(1001)]
    ok = True
    disagreements = 0
    for _ in range(1000):
        f = pool[rng.randrange(len(pool))]
        n = rng.randint(0, 4)
        tr = Triplet(n, rng.randrange(2**n), F(rng.randint(1, 31), 32))
        t = F(rng.randint(1, 64), 64)
        x1, x2 = crossing_points(f, tr, 2, t)  # also asserts equalities inside
        left, mid, right = tr.points(2)
        lhs1 = eval_exact(f, mid) + (x1 - mid) ** 2 / (2 * t)
        rhs1 = eval_exact(f, left) + (x1 - left) ** 2 / (2 * t)
        lhs2 = eval_exact(f, mid) + (x2 - mid) ** 2 / (2 * t)
        rhs2 = eval_exact(f, right) + (x2 - right) ** 2 / (2 * t)
        ok = ok and lhs1 == rhs1 and lhs2 == rhs2
        if not dominance_check(f, tr, 2, t, xs).agree:
            disagreements += 1
    ok = ok and disagreements == 0
    gate(5, "crossing-point equalities exact; dominance audit has zero disagreement",
         ok, f"1000 instances x 1001 sample points, {disagreements} disagreements")


def test_c06_lower_bound_chain():
    ok = True
    points = 0
    for r in (2, 3):
        tau = USeries(r, Distance())
        c = F(r, r - 1)
        den = r**8
        for j in range(den + 1):
            x = F(j, den)
            v = eval_exact(tau, x)
            ok = ok and c * x * (1 - x) <= v
            points += 1
        interior = radix_y_set(r, 8) if r == 2 else tuple(F(j, den) for j in range(1, den))
        rep = membership_scan(MembershipQuery(f=tau, c=c, r=r, n_max=0, y_set=interior[:: 16 if r == 3 else 1]))
        ok = ok and rep.verdict == "no-violation"  # depth 0: c y (1 - y) <= tau(y)
    gate(6, "quadratic lower bound r/(r-1) x(1-x) <= series of d, both radixes",
         ok, f"{points} grid points, exact")


def test_c07_sine_examples():
    ueta = USeries(2, Sin2Pi())
    v = eval_approx(ueta, F(1, 2))
    ok = abs(v.value) <= 1e-9 and v.err <= 1e-9
    comp = USeries(2, sin_cancellation(2))
    worst = 0.0
    for j in range(1, 1001):
        xf = j / 1001.0
        got = eval_approx(comp, xf)
        worst = max(worst, abs(got.value - abs(math.sin(math.pi * xf))))
    ok = ok and worst <= 1e-6
    gate(7, "sine series: zero at 1/2; cancellation telescopes to |sin(pi x)|",
         ok, f"|U(1/2)| = {abs(v.value):.2e}, worst telescoping error {worst:.2e}")


def test_c08_pde_residual():
    rng = random.Random(88)
    ok = True
    for t in (F(1, 4), F(1, 2), F(1)):
        pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=t))
        breaks = set(pq.breakpoints())
        count = 0
        while count < 1000:
            x = F(rng.randint(1, 4095), 4096)
            if x in breaks:
                continue
            ok = ok and pde_residual(pq, x) == 0
            count += 1
    gate(8, "transport residual u_t + u_x^2/2 is literally zero inside pieces",
         ok, "3000 interior points, exact")


def test_c09_subdiff_witnesses():
    ws4 = subdiff_witnesses(flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4))))
    ok = [(w.z, w.slope_lo, w.slope_hi) for w in ws4] == [
        (F(0), F(0), F(2)),
        (F(1), F(-2), F(0)),
    ]
    ws8 = subdiff_witnesses(flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8))))
    ok = ok and [w.z for w in ws8] == [F(0), F(1, 2), F(1)]
    ok = ok and all(w.width > 0 for w in ws8)
    offsets = [F(s * j, 64) for j in range(1, 9) for s in (1, -1)]
    for w in ws4 + ws8:
        ok = ok and witness_support_violations(TAU2, w, offsets) == []
    gate(9, "subdifferential-width witnesses with direct slope re-verification",
         ok, f"{len(ws4)} + {len(ws8)} witnesses, 16 offsets each")


def test_c10_divergence_probe():
    ok = True
    for x in (F(0), F(1, 3)):
        rows = divergence_probe(TAU2, x, 12, y=F(1, 2), r=2, mode="exact")
        ok = ok and all(row.gap <= -2 for row in rows)
    x3 = F(round((math.sqrt(2) - 1) * 10**12), 10**12)
    rows = divergence_probe(TAU2, x3, 12, r=2, mode="float")
    certified = all(row.gap.value + row.gap.err <= -2 for row in rows)
    ok = ok and certified
    gate(10, "difference-quotient gap stays <= -2 through depth 12",
         ok, "x = 0 and 1/3 exact; quadratic-surd approximation float-certified")
