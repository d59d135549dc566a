import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathfn.differences
from pathfn.audit import enumerate_triplets, psi_zero
from pathfn.core.funcs import (
    AbsSin,
    Distance,
    PolySplinePeriodic,
    Scale,
    Sin2Pi,
    ThetaSplice,
    USeries,
    eval_exact,
    eval_exact_points,
)
from pathfn.core.points import Triplet, radix_y_set
from pathfn.core.scalars import Approx
from pathfn.differences import (
    MembershipQuery,
    central_second_diff,
    divergence_probe,
    membership_scan,
    semiconcavity_scan,
    stencil_slopes,
)
from pathfn.errors import ResourceLimitError

F = Fraction
TAU2 = USeries(2, Distance())
U_THETA2 = USeries(2, ThetaSplice(2))


def literal_delta(f, t: Triplet, r: int) -> Fraction:
    """The defining three-point formula, spelled out independently."""
    rn = r**t.n
    left, mid, right = F(t.k, rn), F(t.k + t.y, rn), F(t.k + 1, rn)
    dplus = (eval_exact(f, right) - eval_exact(f, mid)) / ((1 - t.y) / rn)
    dminus = (eval_exact(f, mid) - eval_exact(f, left)) / (t.y / rn)
    return 2 * rn * (dplus - dminus)


# --------------------------------------------------- first/second differences


def test_slopes_takagi_unit_cell():
    t = Triplet(0, 0, F(1, 2))
    assert stencil_slopes(TAU2, [t], 2) == [(1, -1)]  # (dminus, dplus)
    assert central_second_diff(TAU2, t, 2) == -4


def test_slopes_takagi_depth_one():
    t = Triplet(1, 0, F(1, 2))
    assert stencil_slopes(TAU2, [t], 2) == [(2, 0)]
    assert central_second_diff(TAU2, t, 2) == -8


def test_slopes_distance_tent():
    t = Triplet(0, 0, F(1, 2))
    assert stencil_slopes(Distance(), [t], 2) == [(1, -1)]


def test_slopes_linear_cell():
    # d is linear with slope 1 on [0, 1/2]
    t = Triplet(1, 0, F(3, 8))
    assert stencil_slopes(Distance(), [t], 2) == [(1, 1)]
    assert central_second_diff(Distance(), t, 2) == 0


def test_stencil_slopes_batch_matches_single_stencils():
    stencils = list(enumerate_triplets(3, 2, radix_y_set(3, 1)))
    batch = stencil_slopes(TAU2, stencils, 3)
    assert batch == [stencil_slopes(TAU2, [t], 3)[0] for t in stencils]
    for t, (lo, hi) in zip(stencils, stencil_slopes(TAU2, stencils, 3, "float")):
        exact_minus, exact_plus = stencil_slopes(TAU2, [t], 3)[0]
        assert lo.lo() <= exact_minus <= lo.hi() and hi.lo() <= exact_plus <= hi.hi()
    with pytest.raises(ValueError, match="mode must be 'exact' or 'float'"):
        stencil_slopes(TAU2, stencils, 3, "Exact")


def test_central_second_diff_evaluates_each_point_once(monkeypatch):
    calls = []

    def counting(f, xs, max_orbit=None):
        calls.append(list(xs))
        return eval_exact_points(f, xs, max_orbit)

    monkeypatch.setattr(pathfn.differences, "eval_exact_points", counting)
    t = Triplet(2, 1, F(1, 3))
    assert central_second_diff(TAU2, t, 2) == literal_delta(TAU2, t, 2)
    assert calls == [list(t.points(2))]


@pytest.mark.parametrize("r", [2, 3])
def test_u_theta_constant_second_difference(r):
    # the pinned counterexample value -2/(r-1), independent of depth
    u_theta = USeries(r, ThetaSplice(r))
    for n in range(0, 11):
        delta = central_second_diff(u_theta, Triplet(n, 0, F(1, r)), r)
        assert delta == F(-2, r - 1)


def test_central_matches_literal_formula():
    rng = random.Random(4)
    pool = [TAU2, Distance(), psi_zero(1, 1), ThetaSplice(2), U_THETA2]
    for _ in range(60):
        f = pool[rng.randrange(len(pool))]
        n = rng.randint(0, 5)
        t = Triplet(n, rng.randrange(2**n), F(rng.randint(1, 15), 16))
        assert central_second_diff(f, t, 2) == literal_delta(f, t, 2)


def test_depth_zero_closed_form():
    # Delta_{0,0}(y) * y(1-y) + 2 f(y) == 0
    for f in (TAU2, psi_zero(1, 1), ThetaSplice(2)):
        for j in range(1, 16):
            y = F(j, 16)
            d00 = central_second_diff(f, Triplet(0, 0, y), 2)
            assert d00 * y * (1 - y) + 2 * eval_exact(f, y) == 0


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    st.integers(0, 4),
    st.integers(0, 15),
    st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16),
)
def test_scale_equivariance(a, n, k_seed, y):
    t = Triplet(n, k_seed % 2**n if n else 0, y)
    base = central_second_diff(TAU2, t, 2)
    scaled = central_second_diff(Scale(a, TAU2), t, 2)
    assert scaled == a * base


def test_periodic_k_wraparound():
    # k is interpreted mod r^n by periodicity
    y = F(1, 4)
    assert central_second_diff(TAU2, Triplet(2, 1, y), 2) == central_second_diff(
        TAU2, Triplet(2, 5, y), 2
    )


# ------------------------------------------------------------ membership scan


def brute_worst(f, c, r, n_max, ys):
    worst, worst_t = None, None
    for t in enumerate_triplets(r, n_max, ys):
        margin = literal_delta(f, t, r) + 2 * c * r**t.n
        if worst is None or margin > worst:
            worst, worst_t = margin, t
    return worst, worst_t


def test_membership_takagi_shallow():
    q = MembershipQuery(f=TAU2, c=F(2), r=2, n_max=5, y_set=radix_y_set(2, 4))
    rep = membership_scan(q)
    assert rep.verdict == "no-violation"
    assert rep.worst_margin == 0
    assert rep.worst_triplet == Triplet(0, 0, F(1, 2))
    assert rep.scanned == 63 * 15


def test_membership_u_theta_violation_matches_brute_force():
    ys = (F(1, 2),)
    q = MembershipQuery(f=U_THETA2, c=F(1, 10), r=2, n_max=5, y_set=ys)
    rep = membership_scan(q)
    assert rep.verdict == "violated"
    expected_worst, expected_t = brute_worst(U_THETA2, F(1, 10), 2, 5, ys)
    assert rep.worst_margin == expected_worst == F(22, 5)
    assert rep.worst_triplet == expected_t == Triplet(5, 0, F(1, 2))
    # the first violating depth is n = 4: margin -2 + 2*(1/10)*2^n > 0
    assert literal_delta(U_THETA2, Triplet(4, 0, F(1, 2)), 2) + 2 * F(1, 10) * 2**4 > 0
    assert literal_delta(U_THETA2, Triplet(3, 0, F(1, 2)), 2) + 2 * F(1, 10) * 2**3 < 0


def test_membership_distance_linear_piece_fails():
    q = MembershipQuery(f=Distance(), c=F(1), r=2, n_max=2, y_set=radix_y_set(2, 2))
    rep = membership_scan(q)
    assert rep.verdict == "violated"
    expected_worst, expected_t = brute_worst(Distance(), F(1), 2, 2, radix_y_set(2, 2))
    assert (rep.worst_margin, rep.worst_triplet) == (expected_worst, expected_t)


def test_membership_scan_matches_brute_on_random_inputs():
    rng = random.Random(11)
    for _ in range(5):
        f = [TAU2, psi_zero(1, 2), ThetaSplice(2)][rng.randrange(3)]
        c = F(rng.randint(1, 8), rng.randint(1, 4))
        ys = radix_y_set(2, 2)
        q = MembershipQuery(f=f, c=c, r=2, n_max=3, y_set=ys)
        rep = membership_scan(q)
        worst, worst_t = brute_worst(f, c, 2, 3, ys)
        assert (rep.worst_margin, rep.worst_triplet) == (worst, worst_t)


def test_membership_exact_margin_below_float_range():
    # linear spline whose only positive margin, 2^-1100 at (0, 0, 3/4), rounds
    # to 0.0 in float: an exact scan must still find it and report it exactly
    tiny = F(1, 2**1100)
    knots = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    values = (F(0), F(3, 32), F(1, 8), F(3, 32) * (1 - tiny), F(0))
    pieces = []
    for x0, x1, v0, v1 in zip(knots, knots[1:], values, values[1:]):
        slope = (v1 - v0) / (x1 - x0)
        pieces.append((v0 - slope * x0, slope))
    f = PolySplinePeriodic(knots=knots, pieces=tuple(pieces))
    ys = (F(1, 4), F(1, 2), F(3, 4))
    rep = membership_scan(MembershipQuery(f=f, c=F(1, 2), r=2, n_max=0, y_set=ys))
    assert rep.verdict == "violated"
    assert rep.worst_margin == tiny and float(tiny) == 0.0
    assert rep.worst_triplet == Triplet(0, 0, F(3, 4))
    assert brute_worst(f, F(1, 2), 2, 0, ys) == (tiny, Triplet(0, 0, F(3, 4)))


def test_membership_cap():
    q = MembershipQuery(f=TAU2, c=F(2), r=2, n_max=20, y_set=radix_y_set(2, 2))
    with pytest.raises(ResourceLimitError):
        membership_scan(q, cap=10**4)


def test_membership_float_modes():
    # exact worst margin is 0: float mode must refuse to call it
    q = MembershipQuery(f=TAU2, c=F(2), r=2, n_max=3, y_set=radix_y_set(2, 2), mode="float")
    rep = membership_scan(q)
    assert rep.verdict == "inconclusive"
    # a smooth function fails decisively at deep stencils
    q2 = MembershipQuery(f=AbsSin(), c=F(2), r=2, n_max=3, y_set=radix_y_set(2, 2), mode="float")
    rep2 = membership_scan(q2)
    assert rep2.verdict == "violated"
    assert isinstance(rep2.worst_margin, Approx)


# -------------------------------------------------------- fundamental bound
# For f vanishing at the integers, Delta_{0,0}(y) = -2 f(y) / (y (1 - y)), so
# the depth-0 membership scan checks the pointwise bound c y (1 - y) <= f(y).


def depth0_scan(f, c, ys, mode="exact"):
    return membership_scan(MembershipQuery(f=f, c=c, r=2, n_max=0, y_set=ys, mode=mode))


def test_fundamental_bound_takagi():
    rep = depth0_scan(TAU2, F(2), radix_y_set(2, 4))
    assert rep.verdict == "no-violation"
    # equality at y = 1/2: 2 * (1/4) = 1/2 = value
    assert rep.worst_margin == 0 and rep.worst_triplet == Triplet(0, 0, F(1, 2))
    # strict at y = 1/4: 2 * 3/16 = 3/8 < 1/2
    assert eval_exact(TAU2, F(1, 4)) - F(2) * F(1, 4) * F(3, 4) == F(1, 8)


def test_fundamental_bound_weierstrass_style_fails_float():
    ueta = USeries(2, Sin2Pi())
    rep = depth0_scan(ueta, F(1, 10), [F(1, 2)], mode="float")
    assert rep.verdict == "violated"
    assert rep.worst_triplet == Triplet(0, 0, F(1, 2))


def test_fundamental_bound_float_straddle_is_not_evidence():
    # c = 2 + 2^-60 puts the bound c/4 within d(1/2)'s rounding: exact mode
    # finds the failure, float mode cannot certify either side
    c = 2 + F(1, 2**60)
    assert depth0_scan(Distance(), c, [F(1, 2)]).verdict == "violated"
    rep = depth0_scan(Distance(), c, [F(1, 2)], mode="float")
    assert rep.verdict == "inconclusive" and rep.inconclusive_count == 1
    assert rep.worst_triplet == Triplet(0, 0, F(1, 2))


def test_membership_implies_positivity_slice():
    ys = radix_y_set(2, 3)
    q = MembershipQuery(f=TAU2, c=F(2), r=2, n_max=2, y_set=ys)
    assert membership_scan(q).verdict == "no-violation"
    assert depth0_scan(TAU2, F(2), ys).verdict == "no-violation"


# ----------------------------------------------------------- semiconcavity


def test_semiconcavity_distance_concave():
    rep = semiconcavity_scan(Distance(), F(0), 2, 4, radix_y_set(2, 3))
    assert rep.verdict == "no-violation"


def test_scans_refuse_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'exact' or 'float', got 'exakt'"):
        semiconcavity_scan(Distance(), F(0), 2, 2, radix_y_set(2, 2), mode="exakt")
    with pytest.raises(ValueError, match="mode must be 'exact' or 'float', got 'Exact'"):
        MembershipQuery(TAU2, F(2), 2, 2, radix_y_set(2, 2), mode="Exact")


def test_semiconcavity_psi_zero():
    # a*d + b*d^2 is 2b-semiconcave; alpha = 2 passes, alpha = 0 fails on the
    # strictly convex branch x + x^2
    assert semiconcavity_scan(psi_zero(1, 1), F(2), 2, 4, radix_y_set(2, 3)).verdict == "no-violation"
    rep = semiconcavity_scan(psi_zero(1, 1), F(0), 2, 4, radix_y_set(2, 3))
    assert rep.verdict == "violated"


def test_concave_piecewise_funcs_have_nonpositive_delta():
    tent_narrow = PolySplinePeriodic(
        knots=(F(0), F(1, 4), F(1)),
        pieces=((F(0), F(3)), (F(1), F(-1))),
    )
    for f in (Distance(), tent_narrow):
        for t in enumerate_triplets(2, 3, radix_y_set(2, 2)):
            assert central_second_diff(f, t, 2) <= 0


# -------------------------------------------------------- divergence probe


def test_probe_takagi_at_grid_origin():
    rows = divergence_probe(TAU2, F(0), 10, y=F(1, 2), r=2)
    assert len(rows) == 11
    for row in rows:
        assert row.gap == -2  # exact equality at every depth
        assert row.y == F(1, 2)


def test_probe_takagi_off_grid_third():
    rows = divergence_probe(TAU2, F(1, 3), 12, r=2)
    assert [row.y for row in rows[:4]] == [F(1, 3), F(2, 3), F(1, 3), F(2, 3)]
    for row in rows:
        assert row.gap <= -2


def test_probe_distance_locally_linear():
    rows = divergence_probe(Distance(), F(1, 4), 5, y=F(1, 2), r=2)
    assert rows[0].gap == -2
    for row in rows[1:]:
        assert row.gap == 0


def test_probe_float_fallback_certified():
    # denominator 2^2 * 5^12: the exact orbit cycle has length ~2e8, so the
    # auto mode must fall back to certified floats
    x = F(414213562373, 10**12)
    rows = divergence_probe(TAU2, x, 8, r=2, mode="auto")
    for row in rows:
        assert isinstance(row.gap, Approx)
        assert row.gap.value + row.gap.err <= -2


def test_probe_does_not_depend_on_earlier_evaluations():
    # 2 has order 5002 mod 5003, so the walk of 1/5003 exceeds the auto-mode
    # orbit cap whether or not the same point was evaluated before
    x = F(1, 5003)
    before = divergence_probe(TAU2, x, 3)
    eval_exact(TAU2, x)
    assert divergence_probe(TAU2, x, 3) == before
    assert all(isinstance(row.gap, Approx) for row in before)


@pytest.mark.parametrize("f,x", [(USeries(3, Distance()), F(1, 4)), (Distance(), F(1, 5)), (USeries(3, ThetaSplice(3)), F(1, 2))])
def test_float_probe_rows_contain_the_exact_gap_at_radix_3(f, x):
    # 3^n > 2^53 from n = 34 on: the float steps y / 3^n are then not exact floats
    exact = divergence_probe(f, x, 40, r=3, mode="exact")
    floats = divergence_probe(f, x, 40, r=3, mode="float")
    assert [(e.n, e.k, e.y) for e in exact] == [(a.n, a.k, a.y) for a in floats]
    for e, a in zip(exact, floats):
        assert a.gap.lo() <= e.gap <= a.gap.hi(), e.n
        assert e.n > 10 or a.gap.err < 1e-6  # not vacuous where the steps are wide
        assert a.dplus.lo() <= e.dplus <= a.dplus.hi() and a.dminus.lo() <= e.dminus <= a.dminus.hi(), e.n


def test_probe_validates_inputs():
    with pytest.raises(ValueError):
        divergence_probe(TAU2, F(1, 3), 0)
    with pytest.raises(ValueError):
        divergence_probe(TAU2, F(1, 3), 3, y=F(1))
