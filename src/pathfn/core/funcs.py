"""The catalog of periodic base functions: the node kinds of the expression
tree, each with its rules, and the evaluators built on them.

Every expression denotes a continuous function with period 1 and value 0 at
the integers.  The tree algebra is closed under scaling, finite sums, integer
dilation x -> f(m x), and the self-similar series transform

    (U_psi)(x) = sum_{j>=0} r^{-j} psi(r^j x),

which is the engine behind Takagi-style constructions.

Each node kind owns its rules, as methods of its class (the protocol is
documented on :class:`FuncExpr`); nothing else in the package tests a node's
type.  Leaves come in two families: a :class:`PolyLeaf` exposes its
polynomial pieces, and every route reads it off them; a :class:`SineLeaf`
exposes its certified bounds function.  Walks that only follow the tree's
shape (:func:`supports_exact`, the product of the series radixes, the
nonnegativity certificate of ``pathfn.flow``) recurse through ``children``.
The table rules use the node-free grid machinery of :mod:`pathfn.grid`.

Two evaluation modes:

* ``eval_exact`` -- exact rational arithmetic.  A point p/q is index p on
  the grid of step 1/q, and the multiply-by-r orbit of p/q is the residue
  orbit p -> r p mod q, so every value on it shares one denominator.  The
  points are read off a sparse integer table of the grid engine
  (``pathfn.grid.point_values``) on the indices the tree's node maps reach
  from them.  Each cycle of a series orbit is summed in closed form by one
  Horner pass, and a series node keeps a value only at the indices it is
  asked for and where its walks join: a point on a cycle of L entries holds
  L small generator values but one series value of about L log2 r bits.
* ``eval_approx`` -- float results with certified error bounds.  Arguments
  are kept as exact rationals all the way down (any float input is itself an
  exact dyadic rational), so the only error sources are final rounding,
  libm sine slack, and the explicit truncation tail of series nodes.  At a
  grid point j/r^N the orbit of a radix-r series reaches 0 within N steps;
  every later term is psi(integer) = 0, so the series stops there with no
  tail.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import FuncSpecError, OrbitLimitError, UnsupportedExactError
from ..grid import Points, Table, close_cycles, point_values, poly_points, poly_table, series_layout
from .points import radix_part
from .polys import (
    Coeffs,
    certify_nonneg,
    poly_add,
    poly_compose_affine,
    poly_eval,
    poly_normalize,
    poly_scale,
    poly_sup_abs,
    solve_linear_system,
)
from .scalars import (
    Approx,
    Record,
    _add_up,
    _mul_up,
    _ulp,
    _up,
    reduce_mod1,
    scale_bounds,
    sin_2pi_bounds,
    sin_pi_abs_bounds,
    sum_bounds,
)

# Truncation target for default series term counts in float mode.
TAIL_TARGET = Fraction(1, 10**12)

# Entries kept by each cache of bounds keyed on expression trees or radixes.
_BOUND_CACHE_SIZE = 256

# The most pieces a sum or a dilation has: past it ``piecewise`` gives None,
# and the node's own rules evaluate it, in O(Q) on a grid of Q.
_MAX_PIECES = 256
# The highest power of a distance_power leaf and of a poly_spline piece: a
# piece holds at most _MAX_POWER + 1 coefficients, and certifying its sign
# takes O(p^2) rational operations.
_MAX_POWER = 16

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
_ZERO = Fraction(0)

_EPS = 2.3e-16  # outward bound on one relative rounding
_MIN_NORMAL = sys.float_info.min

# (lo, hi, coefficients in ascending powers of the global x) per piece of [0, 1]
PiecewisePoly = Tuple[Tuple[Fraction, Fraction, Coeffs], ...]
Rows = List[Tuple[float, float]]


class FuncExpr(Record):
    """Base class of the expression tree; all variants are frozen records
    (:class:`pathfn.core.scalars.Record`), so a node class defined elsewhere
    must be frozen too.

    The node protocol.  ``children`` holds the subexpressions.  The node's
    own rules are its methods: ``piecewise`` (its pieces on [0, 1], or
    None), ``sup_abs`` (a bound on sup |f| for a node without pieces),
    ``approx`` (certified (value, err) at one reduced rational x) and the
    hooks ``_table``, ``_walk`` and ``_rows`` that :meth:`table`,
    :meth:`walk` and :meth:`rows` call once their generic rule does not
    apply.  The shape walks read three flags: ``exact`` (False for a node
    with no exact branch of its own), ``keeps_nonneg`` (the node is
    nonnegative on [0, 1] whenever its children are) and ``series_radix``.
    """

    children = ()  # a leaf's; not a field
    exact = True
    keeps_nonneg = True
    series_radix = 1

    def piecewise(self) -> Optional[PiecewisePoly]:
        return None

    def table(self, Q: int) -> Table:
        """(I, D) with f(j/Q) = I[j] / D for j = 0..Q: off the pieces when
        the tree has them, else by the node's rule.  The list I is new and
        belongs to the caller, who may overwrite it: a series node writes
        its own values over its generator's table."""
        pw = as_piecewise_poly(self)
        return poly_table(pw, Q) if pw is not None else self._table(Q)

    def walk(self, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
        """Walk the index closure of ``js`` under the node maps, charging
        ``cap``, and return the function that computes the values on it."""
        pw = as_piecewise_poly(self)
        if pw is not None:
            return lambda: poly_points(pw, Q, js)
        return self._walk(Q, js, cap)

    def rows(self, Q: int) -> Rows:
        """Certified (value, err) of f(j/Q) for j = 0..Q.  A tree with an
        exact branch is its integer table, each entry rounded once
        (int / int is correctly rounded); otherwise the node's rule acts on
        its children's rows as ``approx`` acts on their values."""
        if supports_exact(self):
            return rounded_rows(*self.table(Q))
        return self._rows(Q)


def rounded_rows(vals: Sequence[int], den: int) -> Rows:
    """Certified (value, err) of each I/den of an exact table, each entry
    rounded once: int / int is correctly rounded, so err is one ulp, and 0
    where the value is 0."""
    return [(v, _ulp(v) if i else 0.0) for i, v in zip(vals, (i / den for i in vals))]


class PolyLeaf(FuncExpr):
    """A leaf that is one polynomial on each piece of [0, 1].  It defines only
    ``piecewise``; every route reads the leaf off its pieces."""

    keeps_nonneg = False  # its pieces decide

    def piecewise(self) -> PiecewisePoly:
        raise NotImplementedError

    def approx(self, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
        vals, den = poly_points(as_piecewise_poly(self), x.denominator, [x.numerator])
        v = vals[x.numerator] / den  # int / int is correctly rounded
        return v, _ulp(v)


class SineLeaf(FuncExpr):
    """A trigonometric leaf: no exact branch, sup |f| <= 1, and the
    certified bounds function ``bounds(xv, xe)`` -> (value, err) of f at any
    x with |x - xv| <= xe."""

    exact = False

    def sup_abs(self) -> Fraction:
        return _ONE

    def approx(self, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
        xf = float(x)
        return self.bounds(xf, _ulp(xf))

    def _table(self, *args) -> Table:
        raise UnsupportedExactError(f"{type(self).__name__} has no exact branch")

    _walk = _table

    def _rows(self, Q: int) -> Rows:
        rows = [self.bounds(x, _ulp(x)) for x in (j / Q for j in range(Q))]
        return rows + rows[:1]


class Distance(PolyLeaf):
    """Distance to the nearest integer: the 1-periodic tent with peak 1/2."""

    def piecewise(self) -> PiecewisePoly:
        return ((_ZERO, _HALF, (_ZERO, _ONE)), (_HALF, _ONE, (_ONE, Fraction(-1))))


class DistancePower(PolyLeaf):
    """d(x)^p for an integer power p >= 1."""

    power: int

    def __post_init__(self) -> None:
        if not isinstance(self.power, int) or not 1 <= self.power <= _MAX_POWER:
            raise FuncSpecError(f"distance power must be an integer from 1 to {_MAX_POWER}, got {self.power!r}")

    def piecewise(self) -> PiecewisePoly:
        mono = tuple([_ZERO] * self.power + [_ONE])  # t^p
        return ((_ZERO, _HALF, mono), (_HALF, _ONE, poly_compose_affine(mono, _ONE, Fraction(-1))))


class PolySplinePeriodic(PolyLeaf):
    """Piecewise polynomial on [0, 1], extended periodically.

    ``knots`` runs 0 = t_0 < ... < t_m = 1 and ``pieces[i]`` holds the
    coefficients (ascending powers of the global x) on [t_i, t_{i+1}].
    Constructor enforces f(0) = 0 and continuity, including at the
    wrap-around knot (f(1) = f(0) = 0).
    """

    knots: Tuple[Fraction, ...]
    pieces: Tuple[Coeffs, ...]

    def __post_init__(self) -> None:
        for i, piece in enumerate(self.pieces):
            if len(piece) > _MAX_POWER + 1:
                raise FuncSpecError(f"spline piece {i} has {len(piece)} coefficients, more than {_MAX_POWER + 1}")
        knots = tuple(Fraction(t) for t in self.knots)
        pieces = tuple(poly_normalize(p) for p in self.pieces)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "pieces", pieces)
        if len(knots) < 2 or len(pieces) != len(knots) - 1:
            raise FuncSpecError("need m+1 knots and m coefficient lists")
        if knots[0] != 0 or knots[-1] != 1:
            raise FuncSpecError("knots must start at 0 and end at 1")
        if any(a >= b for a, b in zip(knots, knots[1:])):
            raise FuncSpecError("knots must be strictly increasing")
        if poly_eval(pieces[0], _ZERO) != 0:
            raise FuncSpecError("spline violates f(0) = 0")
        if poly_eval(pieces[-1], _ONE) != 0:
            raise FuncSpecError("spline violates continuity at the wrap-around knot (f(1) must be 0)")
        for i in range(1, len(knots) - 1):
            left = poly_eval(pieces[i - 1], knots[i])
            right = poly_eval(pieces[i], knots[i])
            if left != right:
                raise FuncSpecError(f"spline discontinuous at knot {knots[i]}: {left} != {right}")

    def piecewise(self) -> PiecewisePoly:
        return tuple(zip(self.knots, self.knots[1:], self.pieces))


class ThetaSplice(PolyLeaf):
    """x^2 on [0, 1/r], continued by the unique quintic that is C^2 across
    both junctions of the periodic extension and stays positive on (0, 1).

    The continuation matches value/slope/curvature (1/r^2, 2/r, 2) at 1/r and
    (0, 0, 2) at 1; the curvature 2 at 1 is forced by matching the x^2 branch
    across the wrap-around.  Nonnegativity on [1/r, 1] is certified exactly
    at construction time (Bernstein bounds, no sampling).
    """

    r: int

    def __post_init__(self) -> None:
        _check_radix(self.r)
        theta_upper_poly(self.r)  # construct and validate eagerly

    def piecewise(self) -> PiecewisePoly:
        a = Fraction(1, self.r)
        return ((_ZERO, a, (_ZERO, _ZERO, _ONE)), (a, _ONE, theta_upper_poly(self.r)))


class AbsSin(SineLeaf):
    """|sin(pi x)|; no exact branch."""

    bounds = staticmethod(sin_pi_abs_bounds)


class Sin2Pi(SineLeaf):
    """sin(2 pi x); no exact branch."""

    bounds = staticmethod(sin_2pi_bounds)
    keeps_nonneg = False


class Scale(FuncExpr):
    """a * f for a rational constant a."""

    a: Fraction
    child: FuncExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        _check_child(self.child)

    @property
    def children(self) -> Tuple[FuncExpr, ...]:
        return (self.child,)

    @property
    def keeps_nonneg(self) -> bool:
        return self.a >= 0

    def piecewise(self) -> Optional[PiecewisePoly]:
        sub = as_piecewise_poly(self.child)
        if sub is None:
            return None
        return tuple((lo, hi, poly_scale(cs, self.a)) for lo, hi, cs in sub)

    def sup_abs(self) -> Fraction:
        return abs(self.a) * sup_abs_bound(self.child)

    def approx(self, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
        return scale_bounds(*self.child.approx(x, series_terms), float(self.a))

    def _table(self, Q: int) -> Table:
        """a times the child's table, written over it."""
        vals, den = self.child.table(Q)
        a = self.a.numerator
        for j, v in enumerate(vals):
            vals[j] = a * v
        return vals, den * self.a.denominator

    def _walk(self, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
        child = self.child.walk(Q, js, cap)

        def scale() -> Points:
            vals, den = child()
            return {j: self.a.numerator * vals[j] for j in js}, den * self.a.denominator

        return scale

    def _rows(self, Q: int) -> Rows:
        af = float(self.a)
        return [scale_bounds(v, e, af) for v, e in self.child.rows(Q)]


class Sum(FuncExpr):
    """Pointwise sum of one or more children."""

    children: Tuple[FuncExpr, ...]

    def __post_init__(self) -> None:
        children = tuple(self.children)
        object.__setattr__(self, "children", children)
        if not children:
            raise FuncSpecError("sum needs at least one term")
        for c in children:
            _check_child(c)

    def piecewise(self) -> Optional[PiecewisePoly]:
        subs = [as_piecewise_poly(c) for c in self.children]
        if any(s is None for s in subs):
            return None
        cuts = sorted({b for s in subs for piece in s for b in (piece[0], piece[1])})
        if len(cuts) > _MAX_PIECES + 1:
            return None
        place = {b: i for i, b in enumerate(cuts)}
        # each child's coefficients on each interval between cuts, in order: a
        # piece spans the intervals from its lo to its hi
        cols = [[cs for lo, hi, cs in s for _ in range(place[hi] - place[lo])] for s in subs]
        return tuple((lo, hi, reduce(poly_add, col, (_ZERO,))) for lo, hi, *col in zip(cuts, cuts[1:], *cols))

    def sup_abs(self) -> Fraction:
        return sum((sup_abs_bound(c) for c in self.children), _ZERO)

    def approx(self, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
        return sum_bounds(c.approx(x, series_terms) for c in self.children)

    def _table(self, Q: int) -> Table:
        """The children's tables added into the first one's, one child at a
        time over the lcm of the denominators so far."""
        vals, den = self.children[0].table(Q)
        for c in self.children[1:]:
            cvals, cden = c.table(Q)
            m = lcm(den, cden)
            a, b = m // den, m // cden
            for j, v in enumerate(cvals):
                vals[j] = a * vals[j] + b * v
            del cvals  # before the next child's table is built
            den = m
        return vals, den

    def _walk(self, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
        children = [c.walk(Q, js, cap) for c in self.children]

        def add() -> Points:
            tables = [c() for c in children]
            den = lcm(*(d for _, d in tables))
            return {j: sum(den // d * vals[j] for vals, d in tables) for j in js}, den

        return add

    def _rows(self, Q: int) -> Rows:
        return [sum_bounds(col) for col in zip(*(c.rows(Q) for c in self.children))]


class Dilate(FuncExpr):
    """x -> f(m x) for an integer m >= 1; stays 1-periodic with value 0 at 0."""

    m: int
    child: FuncExpr

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise FuncSpecError(f"dilation factor must be an integer >= 1, got {self.m!r}")
        _check_child(self.child)

    @property
    def children(self) -> Tuple[FuncExpr, ...]:
        return (self.child,)

    def piecewise(self) -> Optional[PiecewisePoly]:
        sub = as_piecewise_poly(self.child)
        if sub is None or self.m * len(sub) > _MAX_PIECES:
            return None
        out = []
        for k in range(self.m):
            for lo, hi, cs in sub:
                out.append(
                    (
                        Fraction(k + lo, self.m),
                        Fraction(k + hi, self.m),
                        poly_compose_affine(cs, Fraction(-k), Fraction(self.m)),
                    )
                )
        return tuple(out)

    def sup_abs(self) -> Fraction:
        return sup_abs_bound(self.child)

    def approx(self, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
        return self.child.approx(reduce_mod1(self.m * x), series_terms)

    def _table(self, Q: int) -> Table:
        vals, den = self.child.table(Q)
        return [vals[self.m * j % Q] for j in range(Q + 1)], den

    def _walk(self, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
        image = {j: self.m * j % Q for j in js}
        child = self.child.walk(Q, list(dict.fromkeys(image.values())), cap)

        def dilate() -> Points:
            vals, den = child()
            return {j: vals[i] for j, i in image.items()}, den

        return dilate

    def _rows(self, Q: int) -> Rows:
        rows = self.child.rows(Q)
        return [rows[self.m * j % Q] for j in range(Q + 1)]


class USeries(FuncExpr):
    """The series transform sum_j r^{-j} psi(r^j x) of a generator psi.

    The radix-r Takagi function is ``USeries(r, Distance())``.  Every table
    rule follows V[j] = P[j] + V[s*j mod Q] / s on the grid Q, s = r.
    """

    r: int
    psi: FuncExpr

    def __post_init__(self) -> None:
        _check_radix(self.r)
        _check_child(self.psi)

    @property
    def children(self) -> Tuple[FuncExpr, ...]:
        return (self.psi,)

    @property
    def series_radix(self) -> int:
        return self.r

    def sup_abs(self) -> Fraction:
        """The geometric-series envelope sup|psi| * r/(r-1)."""
        return sup_abs_bound(self.psi) * Fraction(self.r, self.r - 1)

    def approx(self, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
        psi, r = self.psi, self.r
        terms = series_terms if series_terms is not None else default_series_terms(psi, r)
        if terms < 1:
            raise ValueError("term count must be >= 1")
        v, e = 0.0, 0.0
        w = 1.0        # float of r^-j; exact for powers of two
        w_rel = 0.0    # accumulated relative error of w
        cur = x
        for j in range(terms):
            if cur == 0:  # every later term is psi(integer) = 0: the sum is exact
                return v, e
            pv, pe = psi.approx(cur, None)
            tv = pv * w
            w_hi = _mul_up(w, 1.0 + w_rel)  # upper bound on the true r^-j
            e = _add_up(
                e,
                _mul_up(pe, w_hi),
                _mul_up(abs(pv), _mul_up(w, w_rel)),
                _ulp(tv),
            )
            v += tv
            e = _add_up(e, _ulp(v))
            cur = reduce_mod1(cur * r)
            w /= r
            w_rel = _add_up(w_rel, _EPS)
        tail = float(series_tail_bound(psi, r, terms))
        return v, _add_up(e, tail, _ulp(tail))

    def _table(self, Q: int) -> Table:
        """V written over the generator's table P, which this node owns:
        each entry's P[j] is read before V[j] replaces it."""
        vals, pden = self.psi.table(Q)
        s = self.r
        cycles, K, tail = series_layout(s, Q)
        vals[0] = vals[Q] = 0  # V at the integers; no cycle or tail holds 0 or Q
        mult = close_cycles(cycles, vals, s, K, vals)
        for j in tail:  # depth t reads depth t - 1, a multiple of s in D
            vals[j] = vals[j] * mult + vals[s * j % Q] // s
        return vals, pden * mult

    def _walk(self, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
        s = self.r
        closure: Dict[int, int] = {0: -1}  # entry -> its place in ``order``; V[0] = 0
        order: List[int] = []
        cycles: List[List[int]] = []
        tails: List[Tuple[int, List[int]]] = []  # (where each walk stopped, its entries before that)
        keep = {0, *js}  # the entries whose values are kept: 0, js and where each walk stopped
        for x in js:
            start, j = len(order), x
            while j not in closure:
                if cap is not None and len(order) - start >= cap:
                    raise OrbitLimitError(f"series orbit of {Fraction(x, Q)} exceeded {cap} steps (radix {s})")
                closure[j] = len(order)
                order.append(j)
                j = s * j % Q
            stop = len(order)
            if closure[j] >= start:  # the walk closed a new cycle at j
                stop = closure[j]
                cycles.append(order[stop:])
            keep.add(j)
            tails.append((j, order[start:stop]))
        psi = self.psi.walk(Q, order, cap)
        K = radix_part(Q, s)[1]

        def series() -> Points:
            pv, pden = psi()
            vals = {0: 0}
            mult = close_cycles(cycles, pv, s, K, vals, keep)
            for at, tail in tails:
                v = vals[at]
                for j in reversed(tail):  # depth d reads depth d - 1, a multiple of s in D
                    v = pv[j] * mult + v // s
                    if j in keep:
                        vals[j] = v
            return vals, pden * mult

        return series

    def _rows(self, Q: int) -> Rows:
        """A cycle c_0 -> ... -> c_(L-1) -> c_0 is closed at its head by the
        certified quotient S / (1 - s^-L) of its Horner sum S, then walked
        backward, V[c_m] = P[c_m] + V[c_(m+1)] / s, so that every step
        divides the error carried along by s."""
        pv, s = self.psi.rows(Q), self.r
        cycles, _, tail = series_layout(s, Q)
        vals = [(0.0, 0.0)] * (Q + 1)

        def step(j: int, w: Tuple[float, float]) -> Tuple[float, float]:
            """P[j] + w / s, certified; the quotient is exact when s is a power
            of two and it is normal."""
            pj, wv = pv[j], w[0] / s
            we = _up(w[1] / s)
            if s & (s - 1) or (w[0] and abs(wv) < _MIN_NORMAL):
                we = _add_up(we, _ulp(wv))
            v = pj[0] + wv
            return v, _add_up(pj[1], we, _ulp(v))

        for c in cycles:
            L, acc = len(c), pv[c[-1]]
            for j in reversed(c[:-1]):
                acc = step(j, acc)
            head = Approx(*acc) / Approx.from_fraction(Fraction(s**L - 1, s**L))
            vals[c[0]] = (head.value, head.err)
            for m in range(L - 1, 0, -1):
                vals[c[m]] = step(c[m], vals[c[(m + 1) % L]])
        for j in tail:
            vals[j] = step(j, vals[s * j % Q])
        return vals


def _check_radix(r) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise FuncSpecError(f"r must be an integer >= 2, got {r!r}")


def _check_child(c) -> None:
    if not isinstance(c, FuncExpr):
        raise FuncSpecError(f"expected a function expression, got {type(c).__name__}")


@lru_cache(maxsize=_BOUND_CACHE_SIZE)
def theta_upper_poly(r: int) -> Coeffs:
    """The quintic continuation of the x^2 splice on [1/r, 1]."""
    a = Fraction(1, r)
    rows = []
    rhs = []
    for t, derivs in ((a, (a * a, 2 * a, Fraction(2))), (_ONE, (_ZERO, _ZERO, Fraction(2)))):
        rows.append([t**k for k in range(6)])
        rows.append([_ZERO] + [Fraction(k) * t ** (k - 1) for k in range(1, 6)])
        rows.append([_ZERO, _ZERO] + [Fraction(k * (k - 1)) * t ** (k - 2) for k in range(2, 6)])
        rhs.extend(derivs)
    coeffs = poly_normalize(solve_linear_system(rows, rhs))
    if certify_nonneg(coeffs, a, _ONE) is not True:
        raise FuncSpecError(f"quintic continuation not certified nonnegative on [1/{r}, 1]")
    return coeffs


def supports_exact(f: FuncExpr) -> bool:
    """Whether every path of the tree has an exact rational branch."""
    return f.exact and all(supports_exact(c) for c in f.children)


def radix_product(f: FuncExpr) -> int:
    """The product of the radixes of f's series nodes (1 when there are none)."""
    return f.series_radix * prod(radix_product(c) for c in f.children)


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

def eval_exact(f: FuncExpr, x: Union[Fraction, int], max_orbit: Optional[int] = None) -> Fraction:
    """f(x) as an exact rational; x may be any rational (reduced mod 1 first).

    One point of :func:`eval_exact_points`: ``max_orbit`` caps the entries
    x adds to the table of each series node, and exceeding it raises
    :class:`OrbitLimitError` (used by callers that fall back to certified
    floats when the argument's cycle is infeasibly long).
    """
    return eval_exact_points(f, (x,), max_orbit)[0]


def eval_exact_points(f: FuncExpr, xs: Sequence[Fraction], max_orbit: Optional[int] = None) -> List[Fraction]:
    """[f(x) for x in xs] as exact rationals.

    The reduced points are grouped by the part of their denominator that is
    coprime to f's series radixes, which multiplying by a radix never
    changes, so points on one orbit share a group.  Each group is read off
    one sparse integer table on the lcm Q of its denominators (for a tree
    with polynomial pieces, its pieces at the group's points), dropped after
    its points are read.  ``max_orbit`` caps the entries that each point
    adds to its group's table of each series node, in list order; the cap is
    checked while the table's indices are walked, and exceeding it raises
    :class:`OrbitLimitError`.  A point adds at most Q - 1 entries to a walk
    on the grid Q, so only a group with Q > ``max_orbit`` can be refused.
    When there is more than one group, each such group is walked once, and
    the walk dropped, before any value is computed: a refusal comes before
    any work, and only one walk is held at a time.
    """
    xs = [reduce_mod1(Fraction(x)) for x in xs]
    radixes = radix_product(f)
    groups: Dict[int, List[int]] = {}  # coprime part -> positions in xs
    for i, q in enumerate(x.denominator for x in xs):
        groups.setdefault(q // radix_part(q, radixes)[0], []).append(i)
    grids = []  # (members, Q, js) per group
    for members in groups.values():
        Q = lcm(*(xs[i].denominator for i in members))
        grids.append((members, Q, [xs[i].numerator * (Q // xs[i].denominator) for i in members]))
    if len(grids) > 1 and max_orbit is not None:
        for _, Q, js in grids:
            if Q > max_orbit:
                f.walk(Q, js, max_orbit)
    out: List[Fraction] = [_ZERO] * len(xs)
    for members, Q, js in grids:
        vals, den = point_values(f, Q, js, max_orbit)
        for i, j in zip(members, js):
            out[i] = Fraction(vals[j], den)
    return out


# ---------------------------------------------------------------------------
# Certified bounds and float evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_BOUND_CACHE_SIZE)
def as_piecewise_poly(f: FuncExpr) -> Optional[PiecewisePoly]:
    """Piecewise-polynomial form on [0, 1] when the tree admits one, else None."""
    return f.piecewise()


@lru_cache(maxsize=_BOUND_CACHE_SIZE)
def sup_abs_bound(f: FuncExpr) -> Fraction:
    """Certified upper bound on sup over [0, 1] of |f|.

    Exact maximization for low-degree piecewise polynomials; Bernstein hull
    bounds for higher degrees; otherwise the node's rule (for a series node
    the geometric-series envelope sup|psi| * r/(r-1); 1 for the
    trigonometric leaves).
    """
    pw = as_piecewise_poly(f)
    if pw is not None:
        return max(poly_sup_abs(cs, lo, hi) for lo, hi, cs in pw)
    return f.sup_abs()


def series_tail_bound(psi: FuncExpr, r: int, terms: int) -> Fraction:
    """Bound on the dropped tail sum_{j>=terms} r^{-j} |psi(r^j x)|."""
    if terms < 1:
        raise ValueError("term count must be >= 1")
    return sup_abs_bound(psi) * Fraction(r, (r - 1) * r**terms)


@lru_cache(maxsize=_BOUND_CACHE_SIZE)
def default_series_terms(psi: FuncExpr, r: int) -> int:
    """Smallest term count whose tail bound is at most TAIL_TARGET."""
    terms = 1
    while series_tail_bound(psi, r, terms) > TAIL_TARGET and terms < 256:
        terms += 1
    return terms


def eval_approx(
    f: FuncExpr,
    x: Union[float, int, Fraction],
    series_terms: Optional[int] = None,
) -> Approx:
    """f(x) as a float with a certified error bound.

    The argument is taken literally as the exact rational it denotes (floats
    are dyadic rationals) and stays exact through the tree, so the bound
    covers only output rounding, libm sine slack, and series truncation.
    A series whose orbit reaches 0 (every x = j/r^N) is summed exactly up to
    there and carries no truncation tail.  ``series_terms`` overrides the
    term count of the outermost series node.
    """
    return Approx(*f.approx(reduce_mod1(Fraction(x)), series_terms))
