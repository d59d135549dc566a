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
    eval_exact_points,
    psi_zero,
    sin_cancellation,
)
from pathfn.core.points import Triplet
from pathfn.core.scalars import Approx
from pathfn.differences import approx_table
from pathfn.errors import AmbiguousEnvelopeError, FlowConditionError
from pathfn.flow import (
    FlowQuery,
    crossing_points,
    dominance_check,
    flow_bruteforce,
    flow_bruteforce_count,
    flow_bruteforce_points,
    flow_grid,
    parabola_eval,
    pde_residual,
    piecewise_from_json,
    subdiff_witnesses,
    witness_support_violations,
)
from pathfn.grid import grid_values

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


def test_dominance_witness_is_the_first_fraction_sample_below_both_edges():
    # the integer comparison against the plain Fraction one, on samples with mixed denominators
    rng = random.Random(11)
    pool = [TAU2, Distance(), psi_zero(1, 1), ThetaSplice(2), USeries(2, psi_zero(1, 1))]
    for _ in range(60):
        f = pool[rng.randrange(len(pool))]
        n = rng.randint(0, 4)
        tr = Triplet(n, rng.randrange(2**n), F(rng.randint(1, 31), 32))
        t = F(rng.randint(1, 64), rng.randint(1, 640))
        xs = [F(rng.randint(-20, 120), rng.randint(1, 97)) for _ in range(rng.randint(0, 30))]
        x1, x2 = crossing_points(f, tr, 2, t)
        samples = xs + [(x1 + x2) / 2] * (x1 < x2)
        left, mid, right = tr.points(2)
        q = {z: (lambda x, z=z: eval_exact(f, z) + (x - z) ** 2 / (2 * t)) for z in (left, mid, right)}
        want = next((x for x in samples if q[mid](x) < min(q[left](x), q[right](x))), None)
        assert dominance_check(f, tr, 2, t, xs).witness_x == want


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


def test_flow_grid_rejects_data_not_steep_at_its_depth():
    # both pass the depth-0 bound but fail the steep bound at the flow's depth
    # (d at (5, 0, 1/2), usin at (6, 0, 1/2)), where the envelope of the grid
    # parabolas is no longer the flow: brute force disagrees with it
    d_query = FlowQuery(f=Distance(), c=F(1), r=2, t=F(1, 64))
    assert d_query.depth() == 5
    with pytest.raises(FlowConditionError, match=r"violated at depth <= 5, worst at \(n, k, y\) = \(5, 0, 1/2\)"):
        flow_grid(d_query)
    usin = USeries(2, sin_cancellation(2))
    with pytest.raises(FlowConditionError, match=r"violated at depth <= 6"):
        flow_grid(FlowQuery(f=usin, c=F(1, 2), r=2, t=F(1, 64), mode="float"))


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


@pytest.mark.parametrize(
    "f, c, r, t, n",
    [(TAU2, F(2), 2, F(1, 4), None), (TAU2, F(2), 2, F(1, 8), None), (TAU2, F(2), 2, F(1, 4), 1),
     (TAU2, F(2), 2, F(1, 1024), None), (USeries(3, Distance()), F(3, 2), 3, F(1, 9), None),
     (U_PSI0, F(1), 2, F(1, 64), None)],
)
def test_sample_rows_walk_equals_eval(f, c, r, t, n):
    # count = r^n + 1 puts samples on the vertices; with the breakpoints'
    # common denominator B, count = B + 1 puts one on every breakpoint
    q = FlowQuery(f=f, c=c, r=r, t=t, n=n)
    pq = flow_grid(q)
    B = math.lcm(*(x.denominator for x in pq.breakpoints()))
    for count in (2, 3, r ** q.depth() + 1, B + 1, 97):
        rows = pq.sample_rows(count)
        assert rows == [(F(i, count - 1), pq.eval(F(i, count - 1))) for i in range(count)]
    assert set(pq.breakpoints()) <= {x for x, _ in pq.sample_rows(B + 1)}


# -------------------------------------------------------- integer envelope


def envelope_reference(zs, fz, t):
    """The stack algorithm in plain Fractions: (x_lo, x_hi, z, fz) of each
    envelope piece of positive width within [0, 1]."""
    stack, lefts = [0], [None]
    for j in range(1, len(zs)):
        while True:
            i = stack[-1]
            s = t * (fz[j] - fz[i]) / (zs[j] - zs[i]) + (zs[i] + zs[j]) / 2
            if lefts[-1] is not None and s <= lefts[-1]:
                stack.pop()
                lefts.pop()
                continue
            break
        stack.append(j)
        lefts.append(s)
    out = []
    for m, i in enumerate(stack):
        lo = F(0) if m == 0 else max(lefts[m], F(0))
        hi = F(1) if m + 1 == len(stack) else min(lefts[m + 1], F(1))
        if lo < hi:
            out.append((lo, hi, zs[i], fz[i]))
    return out


def pieces_of(pq):
    return [(p.x_lo, p.x_hi, p.z, p.fz) for p in pq.pieces]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("t", [F(1, 3), F(5, 7), F(1000)])
def test_integer_envelope_equals_fraction_stack_algorithm(r, t):
    # f = K (tau_r + a small random tree) with K near 1/(2 t r^n), the
    # critical scale at depth n, so that many vertices survive; the envelope
    # algorithm runs on f's table directly, so flow_grid's steepness
    # precondition does not thin out the draws
    from test_grid import random_tree

    from pathfn.flow import _envelope_exact

    rng = random.Random(1000 * r + t.numerator)
    compared = 0
    for n in [0, 1, 2, 3, 5, 8] if r == 2 else [0, 1, 2, 4, 8]:
        for _ in range(3 if n < 8 else 1):
            K = F(1, 2 * r**n) / t * rng.choice([1, F(3, 2)])
            f = Scale(K, Sum((USeries(r, Distance()), Scale(F(1, 40), random_tree(rng, 3)))))
            R = r**n
            vals, den = grid_values(f, R)
            pq = _envelope_exact(vals, den, t)
            zs = [F(k, R) for k in range(R + 1)]
            assert pieces_of(pq) == envelope_reference(zs, [F(v, den) for v in vals], t), (f, n)
            assert pq.err == 0
            compared += 1
    assert compared >= 12


def test_integer_envelope_on_arbitrary_tables():
    # signed tables with many ties: cells left of 0 or right of 1 are clamped
    # away, which steep initial data (f >= 0, f(0) = f(1) = 0) never needs
    from pathfn.flow import _envelope_exact

    rng = random.Random(7)
    for _ in range(300):
        R, den = rng.randint(1, 12), rng.randint(1, 5)
        vals = [rng.randint(-6, 6) for _ in range(R + 1)]
        t = F(rng.randint(1, 9), rng.randint(1, 9 * R))
        zs = [F(k, R) for k in range(R + 1)]
        expected = envelope_reference(zs, [F(v, den) for v in vals], t)
        assert pieces_of(_envelope_exact(vals, den, t)) == expected, (vals, den, t)


def test_float_envelope_is_the_exact_envelope_of_its_centres():
    for f, c, t in ((TAU2, F(2), F(1, 8)), (TAU2, F(2), F(1, 1000)), (U_PSI0, F(1), F(1, 100))):
        q = FlowQuery(f=f, c=c, r=2, t=t, mode="float")
        pq = flow_grid(q)
        R = 2 ** q.depth()
        table = approx_table(f, R)
        zs = [F(k, R) for k in range(R + 1)]
        assert pieces_of(pq) == envelope_reference(zs, [F(v.value) for v in table], t)
        assert pq.err == max(v.err for v in table) > 0
        # within err of the exact envelope at every breakpoint and vertex
        exact = flow_grid(FlowQuery(f=f, c=c, r=2, t=t))
        for x in set(pq.breakpoints()) | set(zs):
            assert abs(pq.eval(x) - exact.eval(x)) <= F(pq.err)


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


def direct_minimum(f, t, x, den, lo, hi):
    """min over z = j/den in [lo, hi] of f(z) + (x - z)^2/(2t), in Fractions."""
    zs = [F(j, den) for j in range(math.ceil(lo * den), math.floor(hi * den) + 1)]
    return min(v + (x - z) ** 2 / (2 * t) for z, v in zip(zs, eval_exact_points(f, zs)))


SIGNED = Sum((Distance(), Scale(F(-1), Dilate(2, Distance()))))


@pytest.mark.parametrize(
    "f, r, t, depth, window",
    [(TAU2, 2, F(1, 4), 6, None), (TAU2, 2, F(1, 3), 5, None), (USeries(3, Distance()), 3, F(5, 7), 3, None),
     (SIGNED, 2, F(1, 3), 5, 3)],  # the signed function searches [x - 3, x + 3]
)
def test_bruteforce_points_equals_per_point_and_direct_minimum(f, r, t, depth, window):
    xs = [F(0), F(1, 8), F(3, 10), F(1), F(3, 2), F(-3, 2), F(17, 8), F(-1, 7), F(5, 2)]
    got = flow_bruteforce_points(f, t, xs, radix_depth=depth, r=r)
    assert got == [flow_bruteforce(f, t, x, radix_depth=depth, r=r) for x in xs]
    den = r**depth
    windows = [(x - window, x + window) if window else (math.floor(x), math.floor(x) + 1) for x in xs]
    assert got == [direct_minimum(f, t, x, den, lo, hi) for x, (lo, hi) in zip(xs, windows)]
    assert flow_bruteforce_count(f, t, xs, depth, r) == sum(
        math.floor(hi * den) - math.ceil(lo * den) + 1 for lo, hi in windows
    )
    floats = flow_bruteforce_points(f, t, xs, radix_depth=depth, r=r, mode="float")
    assert floats == [flow_bruteforce(f, t, x, radix_depth=depth, r=r, mode="float") for x in xs]
    for v, b in zip(got, floats):
        assert F(b.lo()) <= v <= F(b.hi()), (v, b)


def test_bruteforce_trivial_minimizer():
    # f >= 0 and the vertex parabola at z = 0 is flat zero
    assert flow_bruteforce(TAU2, F(1, 4), F(0), radix_depth=5, r=2) == 0


def test_bruteforce_argument_validation():
    for kwargs in (dict(radix_depth=4, r=2, mode="step"), dict(radix_depth=-1, r=2), dict(radix_depth=4, r=1)):
        with pytest.raises(ValueError):
            flow_bruteforce(TAU2, F(1, 4), F(0), **kwargs)
        with pytest.raises(ValueError):
            flow_bruteforce_points(TAU2, F(1, 4), [F(0)], **kwargs)
    with pytest.raises(ValueError):
        flow_bruteforce(TAU2, F(0), F(0), radix_depth=4, r=2)
    for kwargs in (dict(radix_depth=-1, r=2), dict(radix_depth=4, r=1)):
        with pytest.raises(ValueError):
            flow_bruteforce_count(TAU2, F(1, 4), [F(0)], **kwargs)


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
