"""The catalog of periodic base functions and its evaluators.

Every expression denotes a continuous function with period 1 and value 0 at
the integers.  The tree algebra is closed under scaling, finite sums, integer
dilation x -> f(m x), and the self-similar series transform

    (U_psi)(x) = sum_{j>=0} r^{-j} psi(r^j x),

which is the engine behind Takagi-style constructions.

Two evaluation modes:

* ``eval_exact`` -- exact rational arithmetic.  Series values at rational
  points are finite because the multiply-by-r orbit of a rational argument is
  eventually periodic; the cyclic tail is summed in closed form.
* ``eval_approx`` -- float results with certified error bounds.  Arguments
  are kept as exact rationals all the way down (any float input is itself an
  exact dyadic rational), so the only error sources are final rounding,
  libm sine slack, and the explicit truncation tail of series nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

from ..errors import FuncSpecError, OrbitLimitError, UnsupportedExactError
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
    _add_up,
    _mul_up,
    _ulp,
    reduce_mod1,
    sin_2pi_bounds,
    sin_pi_abs_bounds,
)

# Truncation target for default series term counts in float mode.
TAIL_TARGET = Fraction(1, 10**12)

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
_ZERO = Fraction(0)


class FuncExpr:
    """Base class of the expression tree; all variants are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Distance(FuncExpr):
    """Distance to the nearest integer: the 1-periodic tent with peak 1/2."""


@dataclass(frozen=True)
class DistancePower(FuncExpr):
    """d(x)^p for an integer power p >= 1."""

    power: int

    def __post_init__(self) -> None:
        if not isinstance(self.power, int) or self.power < 1:
            raise FuncSpecError(f"distance power must be an integer >= 1, got {self.power!r}")


@dataclass(frozen=True)
class PolySplinePeriodic(FuncExpr):
    """Piecewise polynomial on [0, 1], extended periodically.

    ``knots`` runs 0 = t_0 < ... < t_m = 1 and ``pieces[i]`` holds the
    coefficients (ascending powers of the global x) on [t_i, t_{i+1}].
    Constructor enforces f(0) = 0 and continuity, including at the
    wrap-around knot (f(1) = f(0) = 0).
    """

    knots: Tuple[Fraction, ...]
    pieces: Tuple[Coeffs, ...]

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class AbsSin(FuncExpr):
    """|sin(pi x)|; no exact branch."""


@dataclass(frozen=True)
class Sin2Pi(FuncExpr):
    """sin(2 pi x); no exact branch."""


@dataclass(frozen=True)
class ThetaSplice(FuncExpr):
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


@dataclass(frozen=True)
class Scale(FuncExpr):
    """a * f for a rational constant a."""

    a: Fraction
    child: FuncExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        _check_child(self.child)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Dilate(FuncExpr):
    """x -> f(m x) for an integer m >= 1; stays 1-periodic with value 0 at 0."""

    m: int
    child: FuncExpr

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise FuncSpecError(f"dilation factor must be an integer >= 1, got {self.m!r}")
        _check_child(self.child)


@dataclass(frozen=True)
class USeries(FuncExpr):
    """The series transform sum_j r^{-j} psi(r^j x) of a generator psi.

    The radix-r Takagi function is ``USeries(r, Distance())``.
    """

    r: int
    psi: FuncExpr

    def __post_init__(self) -> None:
        _check_radix(self.r)
        _check_child(self.psi)


def _check_radix(r) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise FuncSpecError(f"r must be an integer >= 2, got {r!r}")


def _check_child(c) -> None:
    if not isinstance(c, FuncExpr):
        raise FuncSpecError(f"expected a function expression, got {type(c).__name__}")


# Convenience constructors used throughout tests and demos.

def psi_zero(a: Fraction, b: Fraction) -> Sum:
    """a*d + b*d^2: not concave, but 2b-semiconcave on [0, 1]."""
    return Sum((Scale(Fraction(a), Distance()), Scale(Fraction(b), DistancePower(2))))


def sin_cancellation(r: int) -> Sum:
    """|sin(pi x)| - (1/r)|sin(pi r x)|: its series transform telescopes to |sin(pi x)|."""
    return Sum((AbsSin(), Scale(Fraction(-1, r), Dilate(r, AbsSin()))))


@lru_cache(maxsize=None)
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
    if isinstance(f, (Distance, DistancePower, PolySplinePeriodic, ThetaSplice)):
        return True
    if isinstance(f, (AbsSin, Sin2Pi)):
        return False
    if isinstance(f, Scale):
        return supports_exact(f.child)
    if isinstance(f, Dilate):
        return supports_exact(f.child)
    if isinstance(f, Sum):
        return all(supports_exact(c) for c in f.children)
    if isinstance(f, USeries):
        return supports_exact(f.psi)
    raise TypeError(f"unknown expression {f!r}")


# ---------------------------------------------------------------------------
# Exact evaluation
# ---------------------------------------------------------------------------

# Value caches for series transforms, keyed by (generator, radix); inner maps
# send reduced arguments to exact values.  Entries are immutable facts, so
# concurrent updates are benign.
_U_CACHES: Dict[Tuple[FuncExpr, int], Dict[Fraction, Fraction]] = {}


def clear_caches() -> None:
    _U_CACHES.clear()
    _eval_exact_cached.cache_clear()


def eval_exact(f: FuncExpr, x: Union[Fraction, int], max_orbit: Optional[int] = None) -> Fraction:
    """f(x) as an exact rational; x may be any rational (reduced mod 1 first).

    ``max_orbit`` caps the orbit walk of series nodes; exceeding it raises
    :class:`OrbitLimitError` (used by callers that fall back to certified
    floats when the argument's cycle is infeasibly long).
    """
    xr = reduce_mod1(Fraction(x))
    if max_orbit is None:
        return _eval_exact_cached(f, xr)
    return _eval_exact_reduced(f, xr, max_orbit)


@lru_cache(maxsize=1 << 22)
def _eval_exact_cached(f: FuncExpr, x: Fraction) -> Fraction:
    return _eval_exact_reduced(f, x, None)


def _eval_exact_reduced(f: FuncExpr, x: Fraction, max_orbit: Optional[int] = None) -> Fraction:
    if isinstance(f, Distance):
        return min(x, 1 - x)
    if isinstance(f, DistancePower):
        return min(x, 1 - x) ** f.power
    if isinstance(f, USeries):
        return _u_series_exact(f.psi, f.r, x, max_orbit)
    if isinstance(f, PolySplinePeriodic):
        return poly_eval(f.pieces[_spline_piece_index(f.knots, x)], x)
    if isinstance(f, ThetaSplice):
        if x * f.r <= 1:
            return x * x
        return poly_eval(theta_upper_poly(f.r), x)
    if isinstance(f, Scale):
        return f.a * _eval_exact_reduced(f.child, x, max_orbit)
    if isinstance(f, Sum):
        return sum(
            (_eval_exact_reduced(c, x, max_orbit) for c in f.children), _ZERO
        )
    if isinstance(f, Dilate):
        return _eval_exact_reduced(f.child, reduce_mod1(f.m * x), max_orbit)
    if isinstance(f, (AbsSin, Sin2Pi)):
        raise UnsupportedExactError(f"{type(f).__name__} has no exact branch")
    raise TypeError(f"unknown expression {f!r}")


def _spline_piece_index(knots: Tuple[Fraction, ...], x: Fraction) -> int:
    lo, hi = 0, len(knots) - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if knots[mid] <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _u_series_exact(psi: FuncExpr, r: int, x: Fraction, max_orbit: Optional[int]) -> Fraction:
    """Exact series value via the eventually-periodic orbit x -> r*x mod 1.

    For x = j/r^N the orbit hits 0 after at most N steps and the series is a
    finite sum; a genuine cycle of length L contributes the closed form
    S / (1 - r^{-L}).  Every orbit point's value is cached.
    """
    cache = _U_CACHES.setdefault((psi, r), {_ZERO: _ZERO})
    if x in cache:
        return cache[x]

    orbit: list = []
    values: list = []
    seen: Dict[Fraction, int] = {}
    cur = x
    prefix_end: int
    tail: Fraction

    while True:
        if cur in cache:
            prefix_end = len(orbit)
            tail = cache[cur]
            break
        if cur in seen:
            j = seen[cur]
            length = len(orbit) - j
            s = _ZERO
            for m in range(length):
                s += Fraction(values[j + m], r**m)
            u_cycle = s / (1 - Fraction(1, r**length))
            cache[orbit[j]] = u_cycle
            val = u_cycle
            for i in range(len(orbit) - 1, j, -1):
                val = values[i] + val / r
                cache[orbit[i]] = val
            prefix_end = j
            tail = u_cycle
            break
        if max_orbit is not None and len(orbit) >= max_orbit:
            raise OrbitLimitError(
                f"series orbit of {x} exceeded {max_orbit} steps (radix {r})"
            )
        seen[cur] = len(orbit)
        orbit.append(cur)
        values.append(_eval_exact_reduced(psi, cur, max_orbit))
        cur = reduce_mod1(cur * r)

    val = tail
    for i in range(prefix_end - 1, -1, -1):
        val = values[i] + val / r
        cache[orbit[i]] = val
    return cache[x]


# ---------------------------------------------------------------------------
# Certified bounds and float evaluation
# ---------------------------------------------------------------------------


def as_piecewise_poly(f: FuncExpr) -> Optional[Tuple[Tuple[Fraction, Fraction, Coeffs], ...]]:
    """Piecewise-polynomial form on [0, 1] when the tree admits one, else None."""
    if isinstance(f, Distance):
        return ((_ZERO, _HALF, (_ZERO, _ONE)), (_HALF, _ONE, (_ONE, Fraction(-1))))
    if isinstance(f, DistancePower):
        p = f.power
        mono = tuple([_ZERO] * p + [_ONE])  # t^p
        return (
            (_ZERO, _HALF, mono),
            (_HALF, _ONE, poly_compose_affine(mono, _ONE, Fraction(-1))),
        )
    if isinstance(f, PolySplinePeriodic):
        return tuple(
            (f.knots[i], f.knots[i + 1], f.pieces[i]) for i in range(len(f.pieces))
        )
    if isinstance(f, ThetaSplice):
        a = Fraction(1, f.r)
        return ((_ZERO, a, (_ZERO, _ZERO, _ONE)), (a, _ONE, theta_upper_poly(f.r)))
    if isinstance(f, Scale):
        sub = as_piecewise_poly(f.child)
        if sub is None:
            return None
        return tuple((lo, hi, poly_scale(cs, f.a)) for lo, hi, cs in sub)
    if isinstance(f, Dilate):
        sub = as_piecewise_poly(f.child)
        if sub is None:
            return None
        out = []
        for k in range(f.m):
            for lo, hi, cs in sub:
                out.append(
                    (
                        Fraction(k + lo, f.m),
                        Fraction(k + hi, f.m),
                        poly_compose_affine(cs, Fraction(-k), Fraction(f.m)),
                    )
                )
        return tuple(out)
    if isinstance(f, Sum):
        subs = [as_piecewise_poly(c) for c in f.children]
        if any(s is None for s in subs):
            return None
        cuts = sorted({b for s in subs for piece in s for b in (piece[0], piece[1])})
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            acc: Coeffs = (_ZERO,)
            for s in subs:
                piece = next(p for p in s if p[0] <= lo and hi <= p[1])
                acc = poly_add(acc, piece[2])
            out.append((lo, hi, acc))
        return tuple(out)
    return None  # USeries, AbsSin, Sin2Pi


@lru_cache(maxsize=None)
def sup_abs_bound(f: FuncExpr) -> Fraction:
    """Certified upper bound on sup over [0, 1] of |f|.

    Exact maximization for low-degree piecewise polynomials; Bernstein hull
    bounds for higher degrees; the geometric-series envelope
    sup|psi| * r/(r-1) for series nodes; 1 for the trigonometric leaves.
    """
    pw = as_piecewise_poly(f)
    if pw is not None:
        return max(poly_sup_abs(cs, lo, hi) for lo, hi, cs in pw)
    if isinstance(f, (AbsSin, Sin2Pi)):
        return _ONE
    if isinstance(f, USeries):
        return sup_abs_bound(f.psi) * Fraction(f.r, f.r - 1)
    if isinstance(f, Scale):
        return abs(f.a) * sup_abs_bound(f.child)
    if isinstance(f, Sum):
        return sum((sup_abs_bound(c) for c in f.children), _ZERO)
    if isinstance(f, Dilate):
        return sup_abs_bound(f.child)
    raise TypeError(f"unknown expression {f!r}")


def series_tail_bound(psi: FuncExpr, r: int, terms: int) -> Fraction:
    """Bound on the dropped tail sum_{j>=terms} r^{-j} |psi(r^j x)|."""
    if terms < 1:
        raise ValueError("term count must be >= 1")
    return sup_abs_bound(psi) * Fraction(r, (r - 1) * r**terms)


@lru_cache(maxsize=None)
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
    ``series_terms`` overrides the term count of the outermost series node.
    """
    xq = Fraction(x)
    return Approx(*_eval_ap(f, reduce_mod1(xq), series_terms))


_EPS = 2.3e-16  # outward bound on one relative rounding


def _eval_ap(f: FuncExpr, x: Fraction, series_terms: Optional[int]) -> Tuple[float, float]:
    """(value, error bound) with exact rational arguments throughout."""
    if isinstance(f, (Distance, DistancePower, PolySplinePeriodic, ThetaSplice)):
        v = float(_eval_exact_reduced(f, x))
        return v, _ulp(v)
    if isinstance(f, AbsSin):
        xf = float(x)
        return sin_pi_abs_bounds(xf, _ulp(xf))
    if isinstance(f, Sin2Pi):
        xf = float(x)
        return sin_2pi_bounds(xf, _ulp(xf))
    if isinstance(f, Scale):
        cv, ce = _eval_ap(f.child, x, series_terms)
        af = float(f.a)
        v = cv * af
        e = _add_up(_mul_up(ce, abs(af)), _mul_up(abs(cv) + ce, _ulp(af)), _ulp(v))
        return v, e
    if isinstance(f, Sum):
        v, e = 0.0, 0.0
        for c in f.children:
            cv, ce = _eval_ap(c, x, series_terms)
            v += cv
            e = _add_up(e, ce, _ulp(v))
        return v, e
    if isinstance(f, Dilate):
        return _eval_ap(f.child, reduce_mod1(f.m * x), series_terms)
    if isinstance(f, USeries):
        psi, r = f.psi, f.r
        terms = series_terms if series_terms is not None else default_series_terms(psi, r)
        if terms < 1:
            raise ValueError("term count must be >= 1")
        v, e = 0.0, 0.0
        w = 1.0        # float of r^-j; exact for powers of two
        w_rel = 0.0    # accumulated relative error of w
        cur = x
        for j in range(terms):
            pv, pe = _eval_ap(psi, cur, None)
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
    raise TypeError(f"unknown expression {f!r}")
