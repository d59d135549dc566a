import json
import math
import random
from fractions import Fraction

import pytest

from pathfn.core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    Scale,
    Sin2Pi,
    Sum,
    ThetaSplice,
    USeries,
    eval_exact,
    psi_zero,
)
from pathfn.core.points import Triplet
from pathfn.core.scalars import Approx
from pathfn.errors import AmbiguousEnvelopeError, FlowConditionError
from pathfn.flow import (
    FlowQuery,
    crossing_points,
    dominance_check,
    flow_bruteforce,
    flow_grid,
    parabola_eval,
    pde_residual,
    piecewise_from_json,
    subdiff_witnesses,
    witness_support_violations,
)

F = Fraction
TAU2 = USeries(2, Distance())
U_PSI0 = USeries(2, psi_zero(1, 1))


# ----------------------------------------------------------------- parabolas


def test_parabola_eval():
    assert parabola_eval(TAU2, F(1), F(1, 2), F(1, 2)) == F(1, 2)
    assert parabola_eval(TAU2, F(1, 4), F(1, 2), F(0)) == F(1, 2)
    for x in (F(1, 3), F(5, 8)):
        assert parabola_eval(TAU2, F(2), x, x) == eval_exact(TAU2, x)
    with pytest.raises(ValueError):
        parabola_eval(TAU2, F(0), F(1, 2), F(0))


def test_crossing_points_boundary_case():
    # slopes +-1, curvature exactly critical: both crossings collapse to 1/2
    x1, x2 = crossing_points(TAU2, Triplet(0, 0, F(1, 2)), 2, F(1, 4))
    assert x1 == x2 == F(1, 2)


def test_crossing_points_supercritical():
    x1, x2 = crossing_points(TAU2, Triplet(0, 0, F(1, 2)), 2, F(1))
    assert (x1, x2) == (F(5, 4), F(-1, 4))
    assert x1 > x2  # interior parabola dominated everywhere


def test_crossing_points_linear_cell():
    # equal slopes: the crossings sit half a cell apart, x2 - x1 = 1/(2 r^n)
    for t in (F(1, 4), F(1), F(7, 3)):
        x1, x2 = crossing_points(Distance(), Triplet(1, 0, F(1, 2)), 2, t)
        assert x2 - x1 == F(1, 4)


def test_crossing_points_random_postconditions():
    rng = random.Random(77)
    pool = [TAU2, Distance(), psi_zero(1, 1), ThetaSplice(2), U_PSI0]
    for _ in range(200):
        f = pool[rng.randrange(len(pool))]
        n = rng.randint(0, 4)
        tr = Triplet(n, rng.randrange(2**n), F(rng.randint(1, 31), 32))
        t = F(rng.randint(1, 64), 32)
        x1, x2 = crossing_points(f, tr, 2, t)  # postconditions asserted inside
        left, mid, right = tr.points(2)
        assert parabola_eval(f, t, x1, mid) == parabola_eval(f, t, x1, left)
        assert parabola_eval(f, t, x2, mid) == parabola_eval(f, t, x2, right)


# ---------------------------------------------------------------- dominance


def test_dominance_critical_time():
    xs = [F(j, 16) for j in range(17)]
    rep = dominance_check(TAU2, Triplet(0, 0, F(1, 2)), 2, F(1, 4), xs)
    assert rep.criterion_holds and rep.sampled_holds and rep.agree
    assert rep.delta == -4


def test_dominance_below_critical_time():
    xs = [F(j, 16) for j in range(17)]
    rep = dominance_check(TAU2, Triplet(0, 0, F(1, 2)), 2, F(1, 8), xs)
    assert not rep.criterion_holds and not rep.sampled_holds and rep.agree
    x1, x2 = crossing_points(TAU2, Triplet(0, 0, F(1, 2)), 2, F(1, 8))
    assert x1 < rep.witness_x < x2


def test_dominance_linear_cell_always_fails():
    xs = [F(j, 8) for j in range(9)]
    rep = dominance_check(Distance(), Triplet(1, 0, F(1, 2)), 2, F(1, 4), xs)
    assert not rep.criterion_holds and rep.agree
    assert rep.witness_x == F(1, 2)


def test_dominance_audit_never_disagrees():
    rng = random.Random(3)
    pool = [TAU2, Distance(), psi_zero(1, 1), ThetaSplice(2)]
    xs = [F(j, 64) for j in range(65)]
    for _ in range(100):
        f = pool[rng.randrange(len(pool))]
        n = rng.randint(0, 3)
        tr = Triplet(n, rng.randrange(2**n), F(rng.randint(1, 15), 16))
        t = F(rng.randint(1, 32), 16)
        assert dominance_check(f, tr, 2, t, xs).agree


# ---------------------------------------------------------------- flow grid


def test_flow_grid_two_pieces():
    q = FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4))
    pq = flow_grid(q)
    assert q.depth() == 0
    assert [(p.x_lo, p.x_hi, p.z, p.fz) for p in pq.pieces] == [
        (F(0), F(1, 2), F(0), F(0)),
        (F(1, 2), F(1), F(1), F(0)),
    ]
    assert pq.eval(F(1, 2)) == F(1, 2)  # min(2x^2, 2(1-x)^2) at the kink
    assert pq.eval(F(1, 4)) == F(1, 8)


def test_flow_grid_three_pieces():
    q = FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8))
    pq = flow_grid(q)
    assert q.depth() == 1
    assert [p.z for p in pq.pieces] == [F(0), F(1, 2), F(1)]
    assert [p.x_lo for p in pq.pieces] == [F(0), F(3, 8), F(5, 8)]
    assert pq.eval(F(1, 4)) == F(1, 4)  # q(.; 0) wins against 3/4 and 9/4


def test_flow_grid_depth_defaults():
    # smallest n with t >= 1/(2 c r^n)
    assert FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4)).depth() == 0
    assert FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8)).depth() == 1
    assert FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 100)).depth() == 5
    assert FlowQuery(f=U_PSI0, c=F(1), r=2, t=F(1, 4)).depth() == 1


def test_flow_grid_rejects_small_t():
    with pytest.raises(FlowConditionError, match="below the admissible threshold"):
        flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8), n=0))


def test_flow_grid_rejects_without_steepness_evidence():
    # d fails the depth-0 bound at c = 3 (3/4 > 1/2 at y = 1/2)
    with pytest.raises(FlowConditionError, match="no steepness evidence"):
        flow_grid(FlowQuery(f=Distance(), c=F(3), r=2, t=F(1)))


def test_flow_grid_envelope_equals_direct_minimum():
    for t in (F(1, 8), F(1, 3), F(2)):
        q = FlowQuery(f=TAU2, c=F(2), r=2, t=t)
        pq = flow_grid(q)
        n = q.depth()
        den = 2**n
        vertices = [(F(k, den), eval_exact(TAU2, F(k, den))) for k in range(den + 1)]
        for j in range(0, 97):
            x = F(j, 96)
            direct = min(fz + (x - z) ** 2 / (2 * t) for z, fz in vertices)
            assert pq.eval(x) == direct


def test_flow_grid_grazing_parabola_exact_vs_float():
    # at t = 1/4, n = 1 the middle parabola of tau2 touches the envelope in a
    # single point: exact mode drops the zero-width piece, float mode must
    # refuse (the breakpoint comparison is an exact tie)
    q = FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4), n=1)
    pq = flow_grid(q)
    assert [p.z for p in pq.pieces] == [F(0), F(1)]
    with pytest.raises(AmbiguousEnvelopeError):
        flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4), n=1, mode="float"))


def test_flow_grid_float_mode_clean_case():
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8), mode="float"))
    assert [p.x_lo for p in pq.pieces] == [F(0), F(3, 8), F(5, 8)]


def test_flow_grid_float_needs_certain_steepness_evidence():
    # tau2(1/2) = 1/2 sits just below c/4 at c = 2 + 2^-60: exact mode refuses,
    # and so must float mode, whose interval for tau2(1/2) straddles the bound
    for mode in ("exact", "float"):
        with pytest.raises(FlowConditionError, match="steepness"):
            flow_grid(FlowQuery(f=TAU2, c=2 + F(1, 2**60), r=2, t=F(1, 4), mode=mode))
    # without an exact branch, a straddling y is no evidence either
    with pytest.raises(FlowConditionError, match="not certainly"):
        flow_grid(FlowQuery(f=USeries(2, AbsSin()), c=F(4), r=2, t=F(1, 4), mode="float"))


def test_piecewise_quadratic_json_roundtrip():
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8)))
    doc = pq.as_json()
    assert doc["schema"] == "pathfn/1"
    again = piecewise_from_json(json.dumps(doc))
    assert again == pq
    rows = pq.sample_rows(17)
    assert len(rows) == 17 and rows[0][0] == 0 and rows[-1][0] == 1


# --------------------------------------------------------------- brute force


def test_bruteforce_radix_matches_grid():
    q = FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4))
    pq = flow_grid(q)
    for x in (F(1, 2), F(0), F(5, 64), F(27, 64), F(1)):
        assert flow_bruteforce(TAU2, F(1, 4), x, radix_depth=6, r=2) == pq.eval(x)


def test_bruteforce_radix_matches_grid_tau3_all_depths():
    # radix-3 variant, every brute depth from the collapse depth up
    tau3 = USeries(3, Distance())
    rng = random.Random(31)
    for t in (F(1, 3), F(1, 9), F(2)):
        q = FlowQuery(f=tau3, c=F(3, 2), r=3, t=t)
        pq = flow_grid(q)
        for depth in range(q.depth(), q.depth() + 5):
            for _ in range(20):
                m = rng.randint(0, 4)
                x = F(rng.randint(0, 3**m), 3**m)
                assert flow_bruteforce(tau3, t, x, radix_depth=depth, r=3) == pq.eval(x)


def test_bruteforce_radix_window_for_signed_function():
    # d(x) - d(2x) dips to -1/4, so at t = 1/3 the z-range widens to [x - 3, x + 3];
    # at x = 3/2 the minimizer lies outside [0, 1]
    f = Sum((Distance(), Scale(F(-1), Dilate(2, Distance()))))
    t, den = F(1, 3), 2**5
    for x in (F(0), F(1, 8), F(3, 10), F(1), F(3, 2)):
        zs = [F(j, den) for j in range(math.ceil((x - 3) * den), math.floor((x + 3) * den) + 1)]
        direct = min(eval_exact(f, z) + (x - z) ** 2 / (2 * t) for z in zs)
        assert flow_bruteforce(f, t, x, radix_depth=5, r=2) == direct


def test_bruteforce_nonneg_window_follows_x():
    # f >= 0 vanishes at the integers, so the minimizer lies in [floor(x), floor(x) + 1]
    # and the flow is 1-periodic; x = 17/8 used to search [0, 1] and return 81/32
    t = F(1, 4)
    assert flow_bruteforce(TAU2, t, F(17, 8), radix_depth=6, r=2) == F(1, 32)
    for x in (F(1, 8), F(5, 16), F(7, 8), F(1)):
        for mode in ("exact", "float"):
            at_x = flow_bruteforce(TAU2, t, x, radix_depth=6, r=2, mode=mode)
            for shift in (2, -1):
                assert flow_bruteforce(TAU2, t, x + shift, radix_depth=6, r=2, mode=mode) == at_x


def test_bruteforce_float_contains_the_exact_sampled_value():
    # both modes sample z = j/64, so the float result must contain the exact
    # minimum over the same samples
    for t in (F(1, 4), F(1, 3), F(1, 1000)):
        for x in (F(1, 8), F(5, 64), F(3, 10), F(17, 8), 0.7):
            got = flow_bruteforce(TAU2, t, x, radix_depth=6, r=2, mode="float")
            exact = flow_bruteforce(TAU2, t, x, radix_depth=6, r=2)
            assert F(got.lo()) <= exact <= F(got.hi()), (t, x, got)
            assert got.err < 1e-12


def test_bruteforce_trivial_minimizer():
    # f >= 0 and the vertex parabola at z = 0 is flat zero
    assert flow_bruteforce(TAU2, F(1, 4), F(0), radix_depth=5, r=2) == 0


def test_bruteforce_argument_validation():
    for kwargs in (dict(radix_depth=4, r=2, mode="step"), dict(radix_depth=-1, r=2), dict(radix_depth=4, r=1)):
        with pytest.raises(ValueError):
            flow_bruteforce(TAU2, F(1, 4), F(0), **kwargs)
    with pytest.raises(ValueError):
        flow_bruteforce(TAU2, F(0), F(0), radix_depth=4, r=2)


def test_bruteforce_float_window_for_signed_function():
    # U of sin(2 pi x) dips negative, so the search window must widen; the
    # depth-11 grid contains the depth-9 grid, so its sampled minimum can only be lower
    ueta = USeries(2, Sin2Pi())
    v9 = flow_bruteforce(ueta, F(1), 0.3, radix_depth=9, r=2, mode="float")
    v11 = flow_bruteforce(ueta, F(1), 0.3, radix_depth=11, r=2, mode="float")
    assert isinstance(v9, Approx) and isinstance(v11, Approx)
    assert v11.lo() <= v9.hi()
    assert abs(v9.value - v11.value) <= 1e-2
    assert v9.hi() < 0  # the minimizer actually uses the negative dip


def test_bruteforce_float_agrees_with_grid():
    # at an admissible time the infimum over all z sits on the depth-n grid,
    # so a finer float brute force contains the envelope's value at any x
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4)))
    for xf in (0.125, 0.3, 0.77):
        b = flow_bruteforce(TAU2, F(1, 4), xf, radix_depth=6, r=2, mode="float")
        assert F(b.lo()) <= pq.eval(F(xf)) <= F(b.hi())


# ------------------------------------------------------- flow shape checks


def test_flow_monotone_in_t_and_below_f():
    xs = [F(j, 16) for j in range(17)]
    ts = [F(1, 4), F(1, 2), F(1), F(2)]
    prev = None
    for t in ts:
        pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=t))
        vals = [pq.eval(x) for x in xs]
        for x, v in zip(xs, vals):
            assert v <= eval_exact(TAU2, x)  # contraction below f (z = x)
        if prev is not None:
            assert all(b <= a for a, b in zip(prev, vals))  # non-increasing in t
        prev = vals


def test_flow_shifted_profile_is_piecewise_linear_concave():
    # H_t f(x) - x^2/(2t) = fz + (z^2 - 2 x z)/(2t): linear in x per piece
    # with slope -z/t, strictly decreasing across pieces
    for t in (F(1, 8), F(1, 2)):
        pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=t))
        slopes = []
        for p in pq.pieces:
            samples = [p.x_lo, (p.x_lo + p.x_hi) / 2, p.x_hi]
            g = [pq.eval(x) - x**2 / (2 * t) for x in samples]
            slope01 = (g[1] - g[0]) / (samples[1] - samples[0])
            slope12 = (g[2] - g[1]) / (samples[2] - samples[1])
            assert slope01 == slope12 == -p.z / t
            slopes.append(slope01)
        assert all(a > b for a, b in zip(slopes, slopes[1:]))


# ------------------------------------------------------------- PDE residual


def test_pde_residual_zero_inside_pieces():
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4)))
    for x in (F(1, 4), F(3, 4), F(1, 7), F(9, 10)):
        assert pde_residual(pq, x) == 0


def test_pde_residual_rejects_breakpoints():
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4)))
    with pytest.raises(ValueError, match="breakpoint"):
        pde_residual(pq, F(1, 2))


# ---------------------------------------------------- subdifferential width


def test_witnesses_at_quarter_time():
    ws = subdiff_witnesses(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4)))
    assert [(w.z, w.slope_lo, w.slope_hi) for w in ws] == [
        (F(0), F(0), F(2)),
        (F(1), F(-2), F(0)),
    ]
    assert all(w.width > 0 for w in ws)


def test_witnesses_at_eighth_time():
    ws = subdiff_witnesses(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8)))
    assert [w.z for w in ws] == [F(0), F(1, 2), F(1)]
    assert [(w.slope_lo, w.slope_hi) for w in ws] == [
        (F(0), F(3)),
        (F(-1), F(1)),
        (F(-3), F(0)),
    ]


def test_witness_support_direct_inequality():
    offsets = [F(s * j, 64) for j in range(1, 9) for s in (1, -1)]
    for t in (F(1, 4), F(1, 8)):
        for w in subdiff_witnesses(FlowQuery(f=TAU2, c=F(2), r=2, t=t)):
            assert witness_support_violations(TAU2, w, offsets) == []
