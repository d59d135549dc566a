import json
import math
import random
import time
from fractions import Fraction

import pytest

from pathfn.audit import (
    crossing_points,
    dominance_check,
    parabola_eval,
    pde_residual,
    piecewise_from_json,
    psi_zero,
    sin_cancellation,
    subdiff_witnesses,
    witness_support_violations,
)
from pathfn.core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    Scale,
    Sin2Pi,
    Sum,
    ThetaSplice,
    USeries,
    eval_exact,
    eval_exact_points,
    rounded_rows,
)
from pathfn.core.points import Triplet
from pathfn.core.scalars import Approx
from pathfn.differences import approx_table, dyadic
from pathfn.errors import AmbiguousEnvelopeError, FlowConditionError, ResourceLimitError
from pathfn.flow import (
    FlowQuery,
    Piece,
    PiecewiseQuadratic,
    _envelope_exact,
    _z_windows,
    flow_bruteforce_count,
    flow_bruteforce_points,
    flow_grid,
)
from pathfn.grid import grid_values
from test_grid import random_spline

F = Fraction
TAU2 = USeries(2, Distance())
U_PSI0 = USeries(2, psi_zero(1, 1))


def float_envelope(fz, t):
    """The float envelope of the certified vertex values fz, as ``flow_grid``
    builds it: the integer pass on their dyadic centres and errors."""
    vals, den, errs = dyadic(fz)
    return _envelope_exact(vals, den, t, errs)


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
    # without an exact branch, a straddling depth-0 margin is no evidence either
    with pytest.raises(FlowConditionError, match=r"inconclusive at depth <= 0, worst at \(n, k, y\) = \(0, 0, 1/2\)"):
        flow_grid(FlowQuery(f=USeries(2, AbsSin()), c=F(4), r=2, t=F(1, 4), mode="float"))


@pytest.mark.parametrize(
    "q, message",
    [
        (FlowQuery(TAU2, F(2), 2, F(1, 4), n=12), "grid table of 4097 points exceeds cap 100"),
        (FlowQuery(USeries(30, Distance()), F(1), 30, F(1)), "scan of 26999 triplets exceeds cap 100"),
        (FlowQuery(TAU2, F(2), 2, F(1, 4), n=6), "scan of 127 triplets exceeds cap 100"),
    ],
    ids=["vertices", "depth-0-family", "depth-n-family"],
)
def test_flow_grid_refuses_all_its_work_before_any_scan(monkeypatch, q, message):
    # the r^n + 1 vertices, the depth-0 steepness family and the family at
    # depths <= n; the depth-0 scan used to run before the other two were
    # refused, and flow at r = 100 built 10^6 values of y before its refusal
    import pathfn.flow

    monkeypatch.setattr(pathfn.flow, "radix_y_set", lambda *a: pytest.fail("built a y set"))
    monkeypatch.setattr(pathfn.flow, "membership_scan", lambda *a, **k: pytest.fail("steepness scan ran"))
    with pytest.raises(ResourceLimitError, match=message):
        flow_grid(q, cap=100)


def test_flow_grid_refuses_a_huge_depth_before_building_its_power():
    # this took 3.5 s: the admissibility threshold built 3^(10^7) before a scan refused the depth
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"grid table of at least 2\^22191 points exceeds cap 100"):
        flow_grid(FlowQuery(USeries(3, Distance()), F(1), 3, F(1, 4), n=10**7), cap=100)
    assert time.perf_counter() - t0 < 0.5


def test_flow_grid_refuses_a_tiny_time_before_its_depth_costs_more_than_the_cap():
    # depth() rebuilt a Fraction r^n per step: 7.1 s to find n = 19998 at t = 2^-20000
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="grid table of at least 2"):
        flow_grid(FlowQuery(TAU2, 2, 2, F(1, 2**20000)), cap=100)
    assert time.perf_counter() - t0 < 0.5


def _depth_reference(q: FlowQuery) -> int:
    n = 0
    while 2 * q.c * q.t * q.r**n < 1:
        n += 1
    return n


def test_flow_query_depth_is_the_least_admissible_depth():
    rng = random.Random(18)
    for _ in range(300):
        c = F(rng.randint(1, 40), rng.randint(1, 40))
        t = F(rng.randint(1, 60), rng.randint(1, 5000))
        q = FlowQuery(TAU2, c, rng.randint(2, 7), t)
        assert q.depth() == _depth_reference(q), q
    assert FlowQuery(TAU2, 1, 2, F(1, 4), n=5).depth() == 5


def test_flow_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'exact' or 'float', got 'Exact'"):
        flow_grid(FlowQuery(TAU2, 2, 2, F(1, 4), mode="Exact"))


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


def stack_reference(zs, fz, t):
    """The stack algorithm in plain Fractions: the surviving vertices and the
    left breakpoint of each (None for the first)."""
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
    return stack, lefts


def envelope_reference(zs, fz, t):
    """(x_lo, x_hi, z, fz) of each piece of positive width within [0, 1] of
    the Fraction stack algorithm's envelope."""
    stack, lefts = stack_reference(zs, fz, t)
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


def test_exact_flow_builds_its_table_after_the_depth_0_scan(monkeypatch):
    # the envelope's vertices are every r-th entry of the table of the scan at
    # depths <= n; that table is built once the depth-0 scan has returned, so
    # initial data that this scan refuses costs no table of f on r^(n+1)
    import pathfn.flow

    events = []
    real_scan, real_table = pathfn.flow.membership_scan, pathfn.flow.grid_values

    def scan(q, *, cap):
        events.append("scan")
        report = real_scan(q, cap=cap)
        events.append("scan returned")
        return report

    monkeypatch.setattr(pathfn.flow, "membership_scan", scan)
    monkeypatch.setattr(pathfn.flow, "grid_values", lambda f, Q: events.append(Q) or real_table(f, Q))
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 64)))  # depth 4
    assert events == ["scan", "scan returned", 32]
    assert pq == _envelope_exact(*real_table(TAU2, 16), F(1, 64))
    events.clear()
    with pytest.raises(FlowConditionError, match="violated at depth <= 0"):
        flow_grid(FlowQuery(f=TAU2, c=F(100), r=2, t=F(1, 8)))
    assert events == ["scan", "scan returned"]


@pytest.mark.parametrize("f, r, n, t", [
    (TAU2, 2, 9, F(1, 2**11)),  # t = 1/(2 c r^n) at c = 2
    (USeries(2, Sum((Distance(), Scale(F(1), DistancePower(2))))), 2, 8, F(1, 2**9)),  # at c = 1
    (USeries(3, Distance()), 3, 5, F(7, 10 * 3**5)),  # at c = 5/7, clear of ties
    (USeries(2, ThetaSplice(2)), 2, 8, None),  # not steep: only the tables
])
def test_float_flow_rounds_the_vertices_of_the_scans_table(f, r, n, t):
    # a float flow of an exact-capable f built a second exact table on r^n
    # for approx_table; every r-th entry of the scan's table on r^(n+1),
    # rounded once, is that certified table entry for entry
    vals, den = grid_values(f, r ** (n + 1))
    assert rounded_rows(vals[::r], den) == f.rows(r**n)
    if t is not None:
        centres, den, errs = dyadic(approx_table(f, r**n))
        c = 1 / (2 * t * r**n)
        assert flow_grid(FlowQuery(f=f, c=c, r=r, t=t, n=n, mode="float")) == _envelope_exact(centres, den, t, errs)


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


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_flow_grid_integer_form_at_random_t_and_n(mode):
    # the envelope is held in integers; its Fraction pieces, its samples and
    # its JSON round trip must agree with the Fraction stack algorithm on the
    # vertex values (the table's, or the centres of the certified table)
    rng = random.Random(15 if mode == "exact" else 16)
    cases = [(TAU2, F(2), 2), (USeries(3, Distance()), F(3, 2), 3), (U_PSI0, F(1), 2)]
    checked = 0
    for _ in range(16):
        f, c, r = rng.choice(cases)
        n = rng.randint(0, 7 if r == 2 else 4)
        t = F(1, 2 * r**n) / c * F(rng.randint(4, 40), 4)  # admissible at depth n
        try:
            pq = flow_grid(FlowQuery(f=f, c=c, r=r, t=t, n=n, mode=mode))
        except AmbiguousEnvelopeError:
            continue
        R = r**n
        if mode == "exact":
            vals, den = grid_values(f, R)
            fz = [F(v, den) for v in vals]
        else:
            fz = [F(v.value) for v in approx_table(f, R)]
        zs = [F(k, R) for k in range(R + 1)]
        assert pieces_of(pq) == envelope_reference(zs, fz, t), (f, n, t)
        assert list(pq.breakpoints()) == [p.x_lo for p in pq.pieces] + [F(1)]
        count = rng.randint(2, 3 * R + 3)
        xs = [F(i, count - 1) for i in range(count)]
        rows = pq.sample_rows(count)
        assert rows == [(x, pq.eval(x)) for x in xs]
        assert [v for _, v in rows] == [
            min(p.fz + (x - p.z) ** 2 / (2 * t) for p in pq.pieces if p.x_lo <= x <= p.x_hi) for x in xs
        ]
        assert list(pq.sample_lines(count)) == [f"{x},{v}" for x, v in rows]
        again = piecewise_from_json(json.dumps(pq.as_json()))
        exact = PiecewiseQuadratic(pq.t, pq.R, pq.ks, pq.D, pq.vals, err=0.0)
        assert again == exact and again.pieces == pq.pieces
        checked += 1
    assert checked >= 12


def test_envelope_from_pieces_needs_a_run_of_shared_endpoints():
    pieces = [Piece(F(0), F(1, 2), F(0), F(0)), Piece(F(1, 3), F(1), F(1), F(0))]
    with pytest.raises(ValueError, match="do not share the endpoint 1/2"):
        PiecewiseQuadratic.from_pieces(F(1, 4), pieces)
    with pytest.raises(ValueError, match="at least one piece"):
        piecewise_from_json({"schema": "pathfn/1", "t": "1/4", "pieces": []})


def test_envelope_from_pieces_refuses_a_moved_breakpoint():
    # every shared endpoint must be the crossing of its two vertices' parabolas,
    # so an edited envelope is refused, naming the endpoint
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 64)))
    doc = pq.as_json()
    rows = doc["pieces"]
    assert len(rows) > 4
    moved = str(F(rows[2]["x_hi"]) + F(1, 1000))
    rows[2]["x_hi"] = rows[3]["x_lo"] = moved
    with pytest.raises(ValueError, match=f"the endpoint {moved} is not where the parabolas of z=.* cross"):
        piecewise_from_json(doc)
    first, second, *rest = pq.pieces
    with pytest.raises(ValueError, match=r"pieces span \[1/1024, 1\], not \[0, 1\]"):
        PiecewiseQuadratic.from_pieces(pq.t, [Piece(F(1, 1024), first.x_hi, first.z, first.fz), second, *rest])
    with pytest.raises(ValueError, match="out of order"):
        PiecewiseQuadratic.from_pieces(pq.t, [first, Piece(second.x_lo, second.x_hi, first.z, second.fz), *rest])
    with pytest.raises(ValueError, match="no positive width"):
        PiecewiseQuadratic.from_pieces(pq.t, [Piece(F(0), F(0), F(0), F(0)), Piece(F(0), F(1), F(1, 2), F(0))])


def test_envelope_holds_no_breakpoint_list():
    # the envelope keeps its vertices and values only (about 77 bytes per
    # vertex), and building it takes about 100 bytes per vertex at the most;
    # a list of every breakpoint pair costs over 100 bytes per vertex more
    import tracemalloc

    from pathfn.flow import _envelope_exact

    assert "cuts" not in PiecewiseQuadratic._fields
    vals, den = grid_values(TAU2, 2**12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pq = _envelope_exact(vals, den, F(1, 2**14))
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(pq.ks) == 2**12 + 1
    assert retained <= 100 * len(pq.ks)
    assert peak <= 150 * len(pq.ks)


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


def test_float_envelope_stack_holds_for_every_vertex_value_within_its_error():
    # random dyadic vertex data, two thirds of it grazing: on f = -z^2/(2t) + bz
    # every pair of parabolas crosses at x = bt, so each comparison is a near
    # tie, decided by noise of the size of the errors (or by no error at all)
    rng = random.Random(14)
    accepted = refused = 0
    for _ in range(600):
        R, t = rng.randint(1, 8), F(rng.randint(1, 8), 2 ** rng.randint(0, 6))
        kind, unit, b = rng.randrange(3), 2.0 ** -rng.randint(20, 55), F(rng.randint(-8, 8), 8)
        zs = [F(k, R) for k in range(R + 1)]
        fz = [
            Approx(
                rng.random() if kind == 0 else float(-z * z / (2 * t) + b * z) + unit * rng.randint(-3, 3),
                0.0 if kind == 2 else unit * rng.randint(0, 3),
            )
            for z in zs
        ]
        try:
            pq = float_envelope(fz, t)
        except AmbiguousEnvelopeError:
            refused += 1
            continue
        accepted += 1
        centres = [F(v.value) for v in fz]
        assert pieces_of(pq) == envelope_reference(zs, centres, t)
        assert pq.err == max(v.err for v in fz)
        stack, _ = stack_reference(zs, centres, t)
        for _ in range(20):  # corners of the error box, and points inside it
            moved = [c + F(v.err) * rng.choice((-1, 1, F(rng.randint(-7, 7), 8))) for c, v in zip(centres, fz)]
            assert stack_reference(zs, moved, t)[0] == stack, (fz, t, moved)
    assert accepted > 200 and refused > 100


def test_float_envelope_certifies_crossings_closer_than_interval_rounding():
    # -4z^2 + z/2 at z = 0, 1/2, 1 puts both crossings at t = 1/8 on x = 1/16;
    # lifting f(0) by 2^-50 leaves z = 1/2 a cell of width 2^-52.  The values
    # carry no error, so that is certain, yet interval crossings overlap: an
    # envelope computed by interval comparisons refused it as ambiguous
    t = F(1, 8)
    fz = [Approx(2.0**-50), Approx(-0.75), Approx(-3.5)]
    ta = Approx.from_fraction(t)

    def crossing(i, j):
        return ta * (fz[j] - fz[i]) / Approx.from_fraction(F(j - i, 2)) + Approx.from_fraction(F(i + j, 4))

    assert crossing(0, 1).overlaps(crossing(1, 2))
    pq = float_envelope(fz, t)
    assert [(p.z, p.x_hi - p.x_lo) for p in pq.pieces] == [(0, F(1, 16) - F(1, 2**52)), (F(1, 2), F(1, 2**52)), (1, F(15, 16))]
    assert pq.err == 0


# --------------------------------------------------------------- brute force


def test_bruteforce_radix_matches_grid():
    q = FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4))
    pq = flow_grid(q)
    for x in (F(1, 2), F(0), F(5, 64), F(27, 64), F(1)):
        assert flow_bruteforce_points(TAU2, F(1, 4), [x], radix_depth=6, r=2)[0] == pq.eval(x)


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
                assert flow_bruteforce_points(tau3, t, [x], radix_depth=depth, r=3)[0] == pq.eval(x)


def test_bruteforce_radix_window_for_signed_function():
    # d(x) - d(2x) dips to -1/4, so at t = 1/3 the z-range widens to [x - 3, x + 3];
    # at x = 3/2 the minimizer lies outside [0, 1]
    f = Sum((Distance(), Scale(F(-1), Dilate(2, Distance()))))
    t, den = F(1, 3), 2**5
    for x in (F(0), F(1, 8), F(3, 10), F(1), F(3, 2)):
        zs = [F(j, den) for j in range(math.ceil((x - 3) * den), math.floor((x + 3) * den) + 1)]
        direct = min(eval_exact(f, z) + (x - z) ** 2 / (2 * t) for z in zs)
        assert flow_bruteforce_points(f, t, [x], radix_depth=5, r=2)[0] == direct


def test_bruteforce_nonneg_window_follows_x():
    # f >= 0 vanishes at the integers, so the minimizer lies in [floor(x), floor(x) + 1]
    # and the flow is 1-periodic; x = 17/8 used to search [0, 1] and return 81/32
    t = F(1, 4)
    assert flow_bruteforce_points(TAU2, t, [F(17, 8)], radix_depth=6, r=2)[0] == F(1, 32)
    for x in (F(1, 8), F(5, 16), F(7, 8), F(1)):
        for mode in ("exact", "float"):
            at_x = flow_bruteforce_points(TAU2, t, [x], radix_depth=6, r=2, mode=mode)[0]
            for shift in (2, -1):
                assert flow_bruteforce_points(TAU2, t, [x + shift], radix_depth=6, r=2, mode=mode)[0] == at_x


def test_bruteforce_float_contains_the_exact_sampled_value():
    # both modes sample z = j/64, so the float result must contain the exact
    # minimum over the same samples
    for t in (F(1, 4), F(1, 3), F(1, 1000)):
        for x in (F(1, 8), F(5, 64), F(3, 10), F(17, 8), 0.7):
            got = flow_bruteforce_points(TAU2, t, [x], radix_depth=6, r=2, mode="float")[0]
            exact = flow_bruteforce_points(TAU2, t, [x], radix_depth=6, r=2)[0]
            assert F(got.lo()) <= exact <= F(got.hi()), (t, x, got)
            assert got.err < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_bruteforce_float_interval_contains_the_exact_minimum_at_random_arguments(seed):
    rng = random.Random(seed)
    for f in (TAU2, U_PSI0, random_spline(rng), random_spline(rng)):
        for _ in range(3):
            t, depth = F(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(0, 5)
            xs = [F(rng.randint(-20, 40), rng.randint(1, 20)) for _ in range(3)] + [rng.uniform(-1, 2)]
            exact = flow_bruteforce_points(f, t, xs, radix_depth=depth, r=2)
            floats = flow_bruteforce_points(f, t, xs, radix_depth=depth, r=2, mode="float")
            for v, b in zip(exact, floats):
                assert abs(v - F(b.value)) <= F(b.err), (f, t, depth, v, b)


def _per_z_oracle(fz, t, x, js, R):
    """The interval of the minimum over z = j/R of the certified sums
    f(z) + (x - z)^2/(2t), one Approx per z."""
    lo = hi = math.inf
    for j in js:
        v = fz[j % R] + Approx.from_fraction((x - F(j, R)) ** 2 / (2 * t))
        lo, hi = min(lo, v.lo()), min(hi, v.hi())
    return Approx.from_bounds(lo, hi)


@pytest.mark.parametrize("t, depth", [(F(1, 4), 4), (F(3, 2), 6), (F(1), 3)])
def test_bruteforce_float_on_a_sine_tree_spans_the_rational_interval(t, depth):
    usin = USeries(2, Sum((AbsSin(), Scale(F(-1, 2), Dilate(2, AbsSin())))))
    R = 2**depth
    fz = approx_table(usin, R)
    xs = [F(0), F(1, 3), F(5, 8), F(7, 5), F(-1, 9)]
    for x, js, got in zip(xs, _z_windows(usin, t, xs, R), flow_bruteforce_points(usin, t, xs, depth, 2, "float")):
        pens = [(fz[j % R], (x - F(j, R)) ** 2 / (2 * t)) for j in js]
        lo = min(F(a.value) - F(a.err) + pen for a, pen in pens)
        hi = min(F(a.value) + F(a.err) + pen for a, pen in pens)
        assert F(got.value) - F(got.err) <= lo <= hi <= F(got.value) + F(got.err), (x, got)
        assert got.overlaps(_per_z_oracle(fz, t, x, js, R)), x


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
    assert got == [flow_bruteforce_points(f, t, [x], radix_depth=depth, r=r)[0] for x in xs]
    den = r**depth
    windows = [(x - window, x + window) if window else (math.floor(x), math.floor(x) + 1) for x in xs]
    assert got == [direct_minimum(f, t, x, den, lo, hi) for x, (lo, hi) in zip(xs, windows)]
    assert flow_bruteforce_count(f, t, xs, depth, r) == sum(
        math.floor(hi * den) - math.ceil(lo * den) + 1 for lo, hi in windows
    )
    floats = flow_bruteforce_points(f, t, xs, radix_depth=depth, r=r, mode="float")
    assert floats == [flow_bruteforce_points(f, t, [x], radix_depth=depth, r=r, mode="float")[0] for x in xs]
    for v, b in zip(got, floats):
        assert F(b.lo()) <= v <= F(b.hi()), (v, b)


def test_bruteforce_trivial_minimizer():
    # f >= 0 and the vertex parabola at z = 0 is flat zero
    assert flow_bruteforce_points(TAU2, F(1, 4), [F(0)], radix_depth=5, r=2)[0] == 0


def test_bruteforce_argument_validation():
    for kwargs in (dict(radix_depth=4, r=2, mode="step"), dict(radix_depth=-1, r=2), dict(radix_depth=4, r=1)):
        with pytest.raises(ValueError):
            flow_bruteforce_points(TAU2, F(1, 4), [F(0)], **kwargs)[0]
        with pytest.raises(ValueError):
            flow_bruteforce_points(TAU2, F(1, 4), [F(0)], **kwargs)
    with pytest.raises(ValueError):
        flow_bruteforce_points(TAU2, F(0), [F(0)], radix_depth=4, r=2)[0]
    for kwargs in (dict(radix_depth=-1, r=2), dict(radix_depth=4, r=1)):
        with pytest.raises(ValueError):
            flow_bruteforce_count(TAU2, F(1, 4), [F(0)], **kwargs)


def test_bruteforce_float_window_for_signed_function():
    # U of sin(2 pi x) dips negative, so the search window must widen; the
    # depth-11 grid contains the depth-9 grid, so its sampled minimum can only be lower
    ueta = USeries(2, Sin2Pi())
    v9 = flow_bruteforce_points(ueta, F(1), [0.3], radix_depth=9, r=2, mode="float")[0]
    v11 = flow_bruteforce_points(ueta, F(1), [0.3], radix_depth=11, r=2, mode="float")[0]
    assert isinstance(v9, Approx) and isinstance(v11, Approx)
    assert v11.lo() <= v9.hi()
    assert abs(v9.value - v11.value) <= 1e-2
    assert v9.hi() < 0  # the minimizer actually uses the negative dip


def test_bruteforce_float_agrees_with_grid():
    # at an admissible time the infimum over all z sits on the depth-n grid,
    # so a finer float brute force contains the envelope's value at any x
    pq = flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4)))
    for xf in (0.125, 0.3, 0.77):
        b = flow_bruteforce_points(TAU2, F(1, 4), [xf], radix_depth=6, r=2, mode="float")[0]
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
    ws = subdiff_witnesses(flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 4))))
    assert [(w.z, w.slope_lo, w.slope_hi) for w in ws] == [
        (F(0), F(0), F(2)),
        (F(1), F(-2), F(0)),
    ]
    assert all(w.width > 0 for w in ws)


def test_witnesses_at_eighth_time():
    ws = subdiff_witnesses(flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=F(1, 8))))
    assert [w.z for w in ws] == [F(0), F(1, 2), F(1)]
    assert [(w.slope_lo, w.slope_hi) for w in ws] == [
        (F(0), F(3)),
        (F(-1), F(1)),
        (F(-3), F(0)),
    ]


def test_witness_support_direct_inequality():
    offsets = [F(s * j, 64) for j in range(1, 9) for s in (1, -1)]
    for t in (F(1, 4), F(1, 8)):
        for w in subdiff_witnesses(flow_grid(FlowQuery(f=TAU2, c=F(2), r=2, t=t))):
            assert witness_support_violations(TAU2, w, offsets) == []
