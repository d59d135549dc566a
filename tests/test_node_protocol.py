"""The node protocol: a polynomial leaf that only this file defines works
through every route of the package, which reads it off its pieces alone."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from pathfn.audit import enumerate_triplets
from pathfn.core.funcs import (
    AbsSin,
    Dilate,
    PolyLeaf,
    Scale,
    Sum,
    USeries,
    eval_approx,
    eval_exact,
    eval_exact_points,
    sup_abs_bound,
    supports_exact,
)
from pathfn.core.points import radix_y_set
from pathfn.differences import MembershipQuery, approx_table, membership_scan
from pathfn.grid import grid_values, point_values

F = Fraction


@dataclass(frozen=True)
class Parabola(PolyLeaf):
    """x (1 - x) on [0, 1], extended periodically."""

    def piecewise(self):
        return ((F(0), F(1), (F(0), F(1), F(-1))),)


def parabola(x):
    x -= x.numerator // x.denominator
    return x * (1 - x)


P = Parabola()
MIX = Sum((P, Scale(F(-1, 2), Dilate(3, P))))


def mix(x):
    return parabola(x) - parabola(3 * x) / 2


def series(x, r=2, depth=8):
    """sum_{i < depth} r^-i p(r^i x): the whole series at x = j / r^depth."""
    return sum(parabola(x * r**i) / r**i for i in range(depth))


POINTS = [F(0), F(1, 2), F(1, 3), F(7, 5), F(-2, 9), F(5, 11), F(1)]


@pytest.mark.parametrize("f, oracle", [(P, parabola), (MIX, mix)], ids=["leaf", "mix"])
def test_exact_point_routes(f, oracle):
    assert [eval_exact(f, x) for x in POINTS] == [oracle(x) for x in POINTS]
    assert eval_exact_points(f, POINTS) == [oracle(x) for x in POINTS]


@pytest.mark.parametrize("Q", [1, 6, 35, 64])
def test_tables(Q):
    for f, oracle in ((P, parabola), (MIX, mix)):
        vals, den = grid_values(f, Q)
        assert [F(v, den) for v in vals] == [oracle(F(j, Q)) for j in range(Q + 1)]
        js = list(range(0, Q, 3))
        got, den = point_values(f, Q, js)
        assert {j: F(got[j], den) for j in js} == {j: oracle(F(j, Q)) for j in js}
        for j, a in enumerate(approx_table(f, Q)):
            assert abs(F(a.value) - oracle(F(j, Q))) <= F(a.err), (f, j)


def test_inside_a_series():
    u = USeries(2, P)
    xs = [F(j, 2**8) for j in range(0, 2**8 + 1, 7)]
    assert eval_exact_points(u, xs) == [series(x) for x in xs]
    vals, den = grid_values(u, 2**8)
    assert [F(v, den) for v in vals] == [series(F(j, 2**8)) for j in range(2**8 + 1)]
    for x in xs:
        a = eval_approx(u, x)
        assert abs(F(a.value) - series(x)) <= F(a.err), x


def test_float_point_route():
    for x in POINTS:
        a = eval_approx(P, x)
        assert abs(F(a.value) - parabola(x)) <= F(a.err), x


def test_bounds_and_exactness():
    assert sup_abs_bound(P) == F(1, 4)
    assert sup_abs_bound(MIX) >= max(abs(mix(F(j, 96))) for j in range(97))
    assert supports_exact(P) and supports_exact(MIX)
    assert not supports_exact(Sum((P, AbsSin())))


@pytest.mark.parametrize("c", [F(1, 4), F(1, 3)])
def test_exact_membership_scan(c):
    # Delta = -2 on every stencil, so the margin -2 + 2 c r^n peaks at n_max
    r, n_max, ys = 2, 2, radix_y_set(2, 2)
    margins = []
    for t in enumerate_triplets(r, n_max, ys):
        lv, mv, rv = (parabola(p) for p in t.points(r))
        h = F(1, r**t.n)
        delta = 2 * r**t.n * ((rv - mv) / ((1 - t.y) * h) - (mv - lv) / (t.y * h))
        margins.append((delta + 2 * c * r**t.n, t))
    worst, worst_t = min(margins, key=lambda m: (-m[0], m[1]))
    rep = membership_scan(MembershipQuery(f=P, c=c, r=r, n_max=n_max, y_set=ys))
    assert (rep.worst_margin, rep.worst_triplet) == (worst, worst_t)
    assert rep.verdict == ("violated" if worst > 0 else "no-violation")
    assert rep.scanned == len(margins)
