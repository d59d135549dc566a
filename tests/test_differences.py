import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfn.core.funcs import (
    AbsSin,
    Distance,
    PolySplinePeriodic,
    Scale,
    Sin2Pi,
    ThetaSplice,
    USeries,
    eval_exact,
    psi_zero,
)
from pathfn.core.points import Triplet, enumerate_triplets, radix_y_set
from pathfn.core.scalars import Approx
from pathfn.differences import (
    MembershipQuery,
    backward_diff,
    central_second_diff,
    divergence_probe,
    forward_diff,
    fundamental_bound_check,
    membership_scan,
    semiconcavity_scan,
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
    assert backward_diff(TAU2, t, 2) == 1
    assert forward_diff(TAU2, t, 2) == -1
    assert central_second_diff(TAU2, t, 2) == -4


def test_slopes_takagi_depth_one():
    t = Triplet(1, 0, F(1, 2))
    assert backward_diff(TAU2, t, 2) == 2
    assert forward_diff(TAU2, t, 2) == 0
    assert central_second_diff(TAU2, t, 2) == -8


def test_slopes_distance_tent():
    t = Triplet(0, 0, F(1, 2))
    assert backward_diff(Distance(), t, 2) == 1
    assert forward_diff(Distance(), t, 2) == -1


def test_slopes_linear_cell():
    # d is linear with slope 1 on [0, 1/2]
    t = Triplet(1, 0, F(3, 8))
    assert forward_diff(Distance(), t, 2) == backward_diff(Distance(), t, 2) == 1
    assert central_second_diff(Distance(), t, 2) == 0


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


def test_fundamental_bound_takagi():
    rep = fundamental_bound_check(TAU2, F(2), radix_y_set(2, 4))
    assert rep.holds
    assert F(1, 2) in rep.equality_points  # 2 * (1/4) = 1/2 = value
    # strict at y = 1/4: 2 * 3/16 = 3/8 < 1/2
    assert eval_exact(TAU2, F(1, 4)) - F(2) * F(1, 4) * F(3, 4) == F(1, 8)


def test_fundamental_bound_weierstrass_style_fails_float():
    ueta = USeries(2, Sin2Pi())
    rep = fundamental_bound_check(ueta, F(1, 10), [F(1, 2)], mode="float")
    assert not rep.holds
    assert rep.failures[0].y == F(1, 2)


def test_membership_implies_positivity_slice():
    ys = radix_y_set(2, 3)
    q = MembershipQuery(f=TAU2, c=F(2), r=2, n_max=2, y_set=ys)
    assert membership_scan(q).verdict == "no-violation"
    assert fundamental_bound_check(TAU2, F(2), ys).holds


# ----------------------------------------------------------- semiconcavity


def test_semiconcavity_distance_concave():
    rep = semiconcavity_scan(Distance(), F(0), 2, 4, radix_y_set(2, 3))
    assert rep.verdict == "no-violation"


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


def test_probe_validates_inputs():
    with pytest.raises(ValueError):
        divergence_probe(TAU2, F(1, 3), 0)
    with pytest.raises(ValueError):
        divergence_probe(TAU2, F(1, 3), 3, y=F(1))
