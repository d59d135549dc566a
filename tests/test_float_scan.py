"""Certified float mode on the grid: finite series at grid points, float
tables by node rules, float scans read one table of f, and float verdicts come
from certified bounds."""

import random
from fractions import Fraction

import pytest

import pathfn.core.funcs as funcs
import pathfn.differences as differences
from pathfn.audit import enumerate_triplets, psi_zero, sin_cancellation
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
    default_series_terms,
    eval_approx,
    eval_exact,
    series_tail_bound,
    sup_abs_bound,
    supports_exact,
    theta_upper_poly,
)
from pathfn.core.points import Triplet, radix_y_set, triplet_count
from pathfn.core.scalars import Approx, to_json
from pathfn.differences import (
    MembershipQuery,
    approx_table,
    central_second_diff,
    membership_scan,
    semiconcavity_scan,
)
from pathfn.grid import grid_values, scan_grid
from test_grid import random_tree

F = Fraction
TAU2 = USeries(2, Distance())
TAU3 = USeries(3, Distance())


def random_float_tree(rng, depth):
    leaves = [Distance, AbsSin, Sin2Pi, lambda: DistancePower(rng.randint(1, 3)),
              lambda: ThetaSplice(rng.choice([2, 3])), lambda: sin_cancellation(rng.choice([2, 3]))]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.randrange(4)
    if kind == 0:
        return Scale(F(rng.randint(-5, 5), rng.randint(1, 6)), random_float_tree(rng, depth - 1))
    if kind == 1:
        return Sum(tuple(random_float_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == 2:
        return Dilate(rng.randint(1, 4), random_float_tree(rng, depth - 1))
    return USeries(rng.choice([2, 3]), random_float_tree(rng, depth - 1))


def counting_sine_bounds(monkeypatch):
    calls = []
    for leaf in (AbsSin, Sin2Pi):
        real = leaf.bounds
        counting = staticmethod(lambda xv, xe, _real=real: calls.append(xv) or _real(xv, xe))
        monkeypatch.setattr(leaf, "bounds", counting)
    return calls


def table_margins(f, r, n_max, ys, offset):
    """{triplet: margin} built from the entries of one approx_table by index,
    with the Approx operations of ``central_second_diff`` plus the offset."""
    Q = scan_grid(r, n_max, ys)
    B = Q // r**n_max
    table = approx_table(f, Q)
    out = {}
    for t in enumerate_triplets(r, n_max, ys):
        cell = B * r ** (n_max - t.n)
        lv, mv, rv = table[t.k * cell], table[t.k * cell + int(t.y * cell)], table[(t.k + 1) * cell]
        diff = (rv - mv) / Approx.from_fraction((1 - t.y) / r**t.n) - (mv - lv) / Approx.from_fraction(t.y / r**t.n)
        out[t] = diff * Approx(float(2 * r**t.n), 0.0) + Approx.from_fraction(offset(t.n))
    return out


def contains(a, x):
    """The Approx invariant |x - value| <= err, without the slack of lo() and hi()."""
    return abs(x - F(a.value)) <= F(a.err)


# ------------------------------------------------------------- float scans


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("r, n_max, ys", [
    (2, 3, radix_y_set(2, 2)),
    (3, 2, radix_y_set(3, 1)),
    (2, 2, (F(1, 3), F(2, 5))),  # non-radix: series orbits on Q = 15 * 4 have cycles
])
def test_float_scan_margins_equal_per_stencil_margins(monkeypatch, seed, r, n_max, ys):
    # the scan reads its margins off one table, each containing the true margin:
    # it overlaps the per-stencil float margin, and holds the exact one when f has it
    rng = random.Random(seed)
    f = USeries(r, random_float_tree(rng, 2)) if seed % 2 else random_float_tree(rng, 3)
    offset = lambda n: 2 * F(3, 2) * r**n  # noqa: E731
    got = list(differences._scan_margins(f, r, n_max, ys, scan_grid(r, n_max, ys), offset))
    want = table_margins(f, r, n_max, ys, offset)
    assert sorted(t for _, t in got) == list(want)
    for m, t in got:
        assert (m.value, m.err) == (want[t].value, want[t].err), (f, t)
        assert m.overlaps(central_second_diff(f, t, r, "float") + Approx.from_fraction(offset(t.n))), (f, t)
        if supports_exact(f):
            assert contains(m, central_second_diff(f, t, r, "exact") + offset(t.n)), (f, t)


def test_float_scan_reads_each_grid_point_once(monkeypatch):
    # each sine leaf is evaluated once per grid point, and no point is evaluated on its own
    monkeypatch.setattr(differences, "eval_approx", lambda *a: pytest.fail("per-point evaluation in a scan"))
    calls = counting_sine_bounds(monkeypatch)
    ys = radix_y_set(2, 3)
    # two sine leaves in each f; tau2 is read off its exact table
    for f in (USeries(2, sin_cancellation(2)), Sum((USeries(3, Sin2Pi()), Dilate(3, AbsSin()), TAU2))):
        calls.clear()
        rep = membership_scan(MembershipQuery(f=f, c=F(2), r=2, n_max=4, y_set=ys, mode="float"))
        assert rep.scanned == triplet_count(2, 4, len(ys))
        assert len(calls) <= 2 * (scan_grid(2, 4, ys) + 1)


@pytest.mark.parametrize("f, r, ys, alpha", [
    (USeries(2, psi_zero(1, 1)), 2, radix_y_set(2, 2), F(1)),  # semiconcavity at alpha
    # the tie-heavy membership scans at c = 2 of test_grid.py, every y = j/r^2
    *[(f, r, tuple(F(j, r**2) for j in range(1, r**2)), None) for f in (Distance(), TAU2) for r in (2, 3)],
    # tau3 at r = 2 ties (3, 2, 3/4) with (3, 5, 1/4): the first in (n, y, k) order is not the smallest
    (TAU3, 2, tuple(F(j, 4) for j in range(1, 4)), None),
], ids=["upsi0-semiconcavity", "distance-r2", "distance-r3", "tau2-r2", "tau2-r3", "tau3-r2"])
def test_float_scan_worst_is_the_first_largest_centre(f, r, ys, alpha):
    # stencils are visited in (n, y, k) order, so the tie-break rests on the sort key alone
    if alpha is None:
        rep = membership_scan(MembershipQuery(f=f, c=F(2), r=r, n_max=3, y_set=ys, mode="float"))
        offset = lambda n: F(4 * r**n)  # noqa: E731
    else:
        rep = semiconcavity_scan(f, alpha, r, 3, ys, mode="float")
        offset = lambda n: -alpha  # noqa: E731
    margins = table_margins(f, r, 3, ys, offset)
    best = max(m.value for m in margins.values())
    ties = [(m, t) for t, m in margins.items() if m.value == best]
    assert (rep.worst_margin, rep.worst_triplet) == ties[0]
    assert alpha is not None or len(ties) > 1


# ------------------------------------------------ float tables by node rules

NON_RADIX_YS = (F(1, 3), F(2, 5))
TABLE_GRIDS = [(2, 2**6, True), (3, 3**4, True),
               (2, scan_grid(2, 2, NON_RADIX_YS), False), (3, scan_grid(3, 2, NON_RADIX_YS), False)]
GRID_IDS = ["r2-radix", "r3-radix", "r2-non-radix", "r3-non-radix"]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("r, Q, radix", TABLE_GRIDS, ids=GRID_IDS)
def test_approx_table_overlaps_pointwise_evaluation(seed, r, Q, radix):
    rng = random.Random(seed)
    f = USeries(r, random_float_tree(rng, 2)) if seed % 2 else random_float_tree(rng, 3)
    table = approx_table(f, Q)
    assert len(table) == Q + 1 and table[Q] == table[0]
    exact = grid_values(f, Q) if supports_exact(f) else None
    for j, a in enumerate(table):
        p = eval_approx(f, F(j, Q))
        assert a.overlaps(p), (f, j)
        assert not radix or a.err <= p.err, (f, j)  # off the radix grid, p carries a series tail
        assert exact is None or contains(a, F(exact[0][j], exact[1])), (f, j)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("r, Q, radix", TABLE_GRIDS, ids=GRID_IDS)
def test_approx_table_node_rules_contain_the_exact_table(monkeypatch, seed, r, Q, radix):
    # read only the leaves off exact tables, so that every Scale, Sum, Dilate
    # and series node of an exact tree runs its float rule
    f = random_tree(random.Random(seed), 3)
    vals, den = grid_values(f, Q)
    monkeypatch.setattr(funcs, "supports_exact", lambda g: not isinstance(g, (Scale, Sum, Dilate, USeries)))
    table = approx_table(f, Q)
    assert table[Q] == table[0]
    for j, (a, v) in enumerate(zip(table, vals)):
        assert contains(a, F(v, den)), (f, j)


@pytest.mark.parametrize("s, Q", [(2, 60), (2, 81), (3, 64)])
def test_cycle_closing_series_contains_the_mpmath_cycle_sum(s, Q):
    # V(j) = sum over the orbit's pre-period, then the cycle sum C / (1 - s^-L), at 50 digits
    mpmath = pytest.importorskip("mpmath")
    table = approx_table(USeries(s, AbsSin()), Q)
    with mpmath.workdps(50):
        for j, a in enumerate(table):
            orbit = [j % Q]
            while (nxt := s * orbit[-1] % Q) not in orbit:
                orbit.append(nxt)
            mu, L = orbit.index(nxt), len(orbit) - orbit.index(nxt)
            p = [abs(mpmath.sinpi(mpmath.mpf(i) / Q)) for i in orbit]
            cycle = sum(p[mu + m] / mpmath.mpf(s) ** m for m in range(L)) / (1 - mpmath.mpf(s) ** -L)
            true = sum(p[m] / mpmath.mpf(s) ** m for m in range(mu)) + cycle / mpmath.mpf(s) ** mu
            assert mpmath.mpf(a.lo()) <= true <= mpmath.mpf(a.hi()), (j, a)


# --------------------------------------------------- verdicts from bounds


def test_float_verdict_finds_certified_margin_below_old_tolerance():
    # margin 2^-30 at (0, 0, 1/2), certified positive in float mode as well
    q = dict(f=Distance(), c=2 + F(1, 2**31), r=2, n_max=0, y_set=(F(1, 2),))
    exact = membership_scan(MembershipQuery(**q))
    assert exact.verdict == "violated" and exact.worst_margin == F(1, 2**30)
    rep = membership_scan(MembershipQuery(**q, mode="float"))
    assert rep.verdict == "violated" and rep.worst_margin.lo() > 0
    assert rep.inconclusive_count == 0
    assert to_json(rep)["inconclusive_count"] == 0 and "tol" not in to_json(rep)


def test_float_verdict_counts_a_straddling_margin_with_a_lower_centre():
    t1, t2, t3 = Triplet(0, 0, F(1, 2)), Triplet(1, 0, F(1, 2)), Triplet(1, 1, F(1, 2))
    margins = [(Approx(-1e-3, 1e-6), t1), (Approx(-0.5, 1.0), t2), (Approx(-2.0, 0.1), t3)]
    verdict, worst, worst_t, count = differences._float_verdict(margins)
    assert (verdict, worst, worst_t, count) == ("inconclusive", margins[0][0], t1, 1)
    # the centre-worst margin alone is certainly negative
    assert differences._float_verdict(margins[:1])[0] == "no-violation"
    # one certified positive margin decides, however narrow
    tiny = Approx(1e-12, 1e-13)
    assert differences._float_verdict(margins + [(tiny, t3)]) == ("violated", tiny, t3, 1)


def test_float_verdict_ties_keep_the_first_triplet():
    t1, t2 = Triplet(0, 0, F(1, 4)), Triplet(0, 0, F(1, 2))
    verdict, worst, worst_t, count = differences._float_verdict([(Approx(-1.0, 0.5), t1), (Approx(-1.0, 0.0), t2)])
    assert (verdict, worst_t, count) == ("no-violation", t1, 0)
    # the order of visits does not matter: the smallest triplet wins a tie
    assert differences._float_verdict([(Approx(-1.0, 0.0), t2), (Approx(-1.0, 0.5), t1)])[2] == t1


def test_float_inconclusive_count_is_the_zero_margins_of_takagi():
    ys = radix_y_set(2, 2)
    rep = membership_scan(MembershipQuery(f=TAU2, c=F(2), r=2, n_max=3, y_set=ys, mode="float"))
    zeros = sum(central_second_diff(TAU2, t, 2) + 4 * 2**t.n == 0 for t in enumerate_triplets(2, 3, ys))
    assert rep.verdict == "inconclusive" and rep.inconclusive_count == zeros > 0


# ----------------------------------------------- finite series at grid points


@pytest.mark.parametrize("f, r, N", [
    (TAU2, 2, 10),
    (TAU3, 3, 6),
    (USeries(2, USeries(2, Distance())), 2, 8),
    (USeries(2, Scale(F(1, 2), Dilate(2, TAU2))), 2, 7),
])
def test_eval_approx_on_the_grid_is_a_finite_sum(f, r, N):
    for j in range(r**N + 1):
        x = F(j, r**N)
        got = eval_approx(f, x)
        assert abs(F(got.value) - eval_exact(f, x)) <= F(got.err)
        assert got.err < 1e-13, (x, got)


def test_eval_approx_at_zero_is_exactly_zero():
    for f in (TAU2, USeries(2, sin_cancellation(2)), USeries(3, Sin2Pi())):
        assert eval_approx(f, 0) == Approx(0.0, 0.0)


def test_eval_approx_off_the_grid_keeps_the_tail():
    for f, x in ((TAU2, F(1, 3)), (TAU3, F(1, 2)), (USeries(2, AbsSin()), F(1, 5))):
        tail = series_tail_bound(f.psi, f.r, default_series_terms(f.psi, f.r))
        got = eval_approx(f, x)
        assert got.err >= tail
        if not isinstance(f.psi, AbsSin):
            assert abs(F(got.value) - eval_exact(f, x)) <= F(got.err)
    # an explicit term count that stops before the orbit reaches 0 keeps its tail
    assert eval_approx(TAU2, F(1, 2**10), series_terms=5).err >= series_tail_bound(Distance(), 2, 5)


def test_grid_point_errors_shrink_the_takagi_scan_bound():
    rep = membership_scan(MembershipQuery(f=TAU2, c=F(2), r=2, n_max=5, y_set=radix_y_set(2, 4), mode="float"))
    assert rep.worst_margin.err < 1e-13


# ------------------------------------------------------------- bounded caches


def test_bound_caches_stay_bounded():
    for cached in (sup_abs_bound, default_series_terms, theta_upper_poly):
        assert cached.cache_info().maxsize is not None
    limit = sup_abs_bound.cache_info().maxsize
    for a in range(1, 501):
        sup_abs_bound(Scale(F(a, 7), TAU2))
        default_series_terms(Scale(F(a, 7), Distance()), 2)
    assert sup_abs_bound.cache_info().currsize <= limit < 500
    assert default_series_terms.cache_info().currsize <= default_series_terms.cache_info().maxsize < 500
