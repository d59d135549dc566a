"""First- and second-order grid differences and the scanners built on them.

For a stencil (n, k, y) at radix r the one-sided slopes are

    dplus  = [f((k+1)/r^n) - f((k+y)/r^n)] / ((1-y)/r^n)
    dminus = [f((k+y)/r^n) - f(k/r^n)]     / (y/r^n)

and the scaled second difference is Delta = 2 r^n (dplus - dminus), a
discrete curvature at scale r^-n.  The membership scan checks the steep
concavity bound Delta <= -2 c r^n over a finite triplet family; the
semiconcavity scan checks Delta <= alpha.  Exact mode gives mathematically
exact verdicts for the scanned subfamily; float mode reports three-valued
verdicts decided from certified bounds and never converts rounding noise
into a claim.

Both scan modes walk stencils by one routine, ``grid.stencil_slices``.
Exact scans slice one grid table of f and compare stencils in integers;
nothing in them passes through float.  Float scans slice one table of
certified values over the whole grid (:func:`approx_table`), built by the
exact table's node rules in one pass per node of f.  The single-stencil
functions here evaluate f point by point (``eval_exact``, which reads each
point off its own sparse table, or ``eval_approx``), a separate route that the
tests use as the scans' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .core.funcs import FuncExpr, eval_approx, eval_exact, eval_exact_points
from .core.points import (
    Triplet,
    is_radix_rational,
    reduce_mod1,
    triplet_count,
    validate_radix,
)
from .core.scalars import Approx, Scalar, scalar_to_json
from .errors import OrbitLimitError, ResourceLimitError
from .grid import grid_values, scan_grid, stencil_rows, stencil_slices

DEFAULT_TRIPLET_CAP = 10**7

_AUTO_ORBIT_CAP = 4096


def _eval(f: FuncExpr, x: Fraction, mode: str) -> Scalar:
    if mode == "exact":
        return eval_exact(f, x)
    if mode == "float":
        return eval_approx(f, x)
    raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def forward_diff(f: FuncExpr, t: Triplet, r: int, mode: str = "exact") -> Scalar:
    """Slope from the interior point (k+y)/r^n to the right cell edge."""
    left, mid, right = t.points(r)
    num = _eval(f, right, mode) - _eval(f, mid, mode)
    return num / _step(Fraction(1) - t.y, t.n, r, mode)


def backward_diff(f: FuncExpr, t: Triplet, r: int, mode: str = "exact") -> Scalar:
    """Slope from the left cell edge to the interior point (k+y)/r^n."""
    left, mid, right = t.points(r)
    num = _eval(f, mid, mode) - _eval(f, left, mode)
    return num / _step(t.y, t.n, r, mode)


def _step(width: Fraction, n: int, r: int, mode: str) -> Scalar:
    h = width / r**n
    return h if mode == "exact" else Approx.from_fraction(h)


def central_second_diff(f: FuncExpr, t: Triplet, r: int, mode: str = "exact") -> Scalar:
    """Delta = 2 r^n (dplus - dminus); at (0, 0, y) this equals -2 f(y) / (y (1-y))."""
    scale = 2 * r**t.n
    diff = forward_diff(f, t, r, mode) - backward_diff(f, t, r, mode)
    if mode == "exact":
        return scale * diff
    return diff * Approx(float(scale), 0.0)


@dataclass(frozen=True)
class MembershipQuery:
    """Scan request: is Delta <= -2 c r^n over the (n <= n_max, y in y_set) family?"""

    f: FuncExpr
    c: Fraction
    r: int
    n_max: int
    y_set: Tuple[Fraction, ...]
    mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "y_set", tuple(Fraction(y) for y in self.y_set))
        if self.c <= 0:
            raise ValueError("c must be positive")
        validate_radix(self.r)
        if self.mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {self.mode!r}")


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a margin scan.

    ``worst_margin`` is the maximum over scanned triplets of Delta plus the
    criterion offset (2 c r^n for membership, -alpha for semiconcavity), by
    centre value in float mode; ties pick the lexicographically smallest
    (n, k, y).  Exact mode: 'violated' exactly when it is positive.  Float
    mode decides from every triplet's certified interval: 'violated' when
    some margin is certainly positive, 'no-violation' when every margin is
    certainly <= 0, else 'inconclusive'; ``inconclusive_count`` counts the
    margins whose interval straddles 0.
    """

    verdict: str
    worst_margin: Scalar
    worst_triplet: Triplet
    scanned: int
    mode: str
    inconclusive_count: Optional[int] = None

    def as_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "worst_margin": scalar_to_json(self.worst_margin),
            "worst_triplet": self.worst_triplet.as_json(),
            "scanned": self.scanned,
            "mode": self.mode,
        }
        if self.mode == "float":
            out["inconclusive_count"] = self.inconclusive_count
        return out


def check_scan_cap(cap: int, count: int, grid: Optional[int] = None, unit: str = "triplets") -> None:
    """Refuse a scan of more than ``cap`` ``unit`` (triplets by default), or
    one whose grid table {j/grid} would hold more than ``cap`` points."""
    if count > cap:
        raise ResourceLimitError(f"scan of {count} {unit} exceeds cap {cap}")
    if grid is not None and grid + 1 > cap:
        raise ResourceLimitError(f"grid table of {grid + 1} points exceeds cap {cap}")


def approx_table(f: FuncExpr, Q: int) -> List[Approx]:
    """Certified f(j/Q) for j = 0..Q, the float counterpart of
    :func:`pathfn.grid.grid_values`, built by the same node rules
    (``FuncExpr.rows``): one pass per node of f over the whole grid."""
    if Q < 1:
        raise ValueError(f"grid size must be >= 1, got {Q}")
    return [Approx(v, e) for v, e in f.rows(Q)]


def _scan_margins(f: FuncExpr, r: int, n_max: int, ys: Sequence[Fraction], grid: int, offset_of_n):
    """Float margins, one certified Approx per triplet, in (n, y, k) order.

    One certified table of f over the whole grid (:func:`approx_table`) is
    sliced by the stencils; each margin is built from its three entries by
    the same Approx operations as ``central_second_diff``, plus the offset.
    """
    vals = approx_table(f, grid)
    for n, y, _, left, mid, right in stencil_slices(vals, r, n_max, ys):
        scale = Approx(float(2 * r**n), 0.0)
        offset = Approx.from_fraction(offset_of_n(n))
        h_right, h_left = _step(1 - y, n, r, "float"), _step(y, n, r, "float")
        for k, (lv, mv, rv) in enumerate(zip(left, mid, right)):
            diff = (rv - mv) / h_right - (mv - lv) / h_left
            yield diff * scale + offset, Triplet(n, k, y)


def _float_verdict(margins: Iterable[Tuple[Approx, Triplet]]) -> Tuple[str, Approx, Triplet, int]:
    """(verdict, worst margin, its triplet, inconclusive count) of float margins
    in any order; see :class:`ScanReport`."""
    worst: Optional[Tuple[Approx, Triplet]] = None
    violated, inconclusive = False, 0
    for m, t in margins:
        # the exact scan's key: the largest centre wins, ties go to the smallest triplet
        if worst is None or (-m.value, t) < (-worst[0].value, worst[1]):
            worst = (m, t)
        if m.lo() > 0:
            violated = True
        elif m.hi() > 0:
            inconclusive += 1
    assert worst is not None, "empty scan"
    verdict = "violated" if violated else "inconclusive" if inconclusive else "no-violation"
    return verdict, worst[0], worst[1], inconclusive


def _table_margins(f: FuncExpr, r: int, n_max: int, ys: Sequence[Fraction], grid: int, offset_of_n):
    """Exact margins on one grid table of f (see :mod:`pathfn.grid`).

    For fixed (n, y = a/B) the margin is the positive multiple
    2 r^(2n) B / (a (B - a) D) of the integer g plus offset(n), so only the
    first maximiser of g over k is yielded, as a Fraction.
    """
    vals, den = grid_values(f, grid)
    B = grid // r**n_max
    for n, y, a, g in stencil_rows(vals, r, n_max, ys):
        best = max(g)
        margin = Fraction(2 * r ** (2 * n) * B * best, a * (B - a) * den) + offset_of_n(n)
        yield margin, Triplet(n, g.index(best), y)


def _run_scan(
    f: FuncExpr,
    r: int,
    n_max: int,
    y_set: Sequence[Fraction],
    kind: str,
    const: Fraction,
    mode: str,
    cap: int,
) -> ScanReport:
    ys = sorted(set(map(Fraction, y_set)))
    for y in ys:
        if not (0 < y < 1):
            raise ValueError(f"y={y} must lie strictly inside (0, 1)")
    total = triplet_count(r, n_max, len(ys))
    if not total:
        raise ValueError("empty scan: no triplets enumerated")
    offset = (lambda n: 2 * const * r**n) if kind == "membership" else (lambda n: -const)
    grid = scan_grid(r, n_max, ys)
    check_scan_cap(cap, total, grid)
    if mode == "exact":
        margins = _table_margins(f, r, n_max, ys, grid, offset)
        # the largest margin wins; ties go to the lexicographically smallest (n, k, y)
        worst, worst_t = min(margins, key=lambda m: (-m[0], m[1]))
        verdict, inconclusive = ("violated" if worst > 0 else "no-violation"), None
    else:
        verdict, worst, worst_t, inconclusive = _float_verdict(_scan_margins(f, r, n_max, ys, grid, offset))
    return ScanReport(
        verdict=verdict,
        worst_margin=worst,
        worst_triplet=worst_t,
        scanned=total,
        mode=mode,
        inconclusive_count=inconclusive,
    )


def membership_scan(q: MembershipQuery, cap: int = DEFAULT_TRIPLET_CAP) -> ScanReport:
    """Exhaustive scan of the steep concavity bound over the finite family.

    Margin of a triplet: Delta_{n,k}(y; f) + 2 c r^n.  A 'no-violation'
    verdict in exact mode is an exact statement about the scanned subfamily
    (and only about it)."""
    return _run_scan(q.f, q.r, q.n_max, q.y_set, "membership", q.c, q.mode, cap)


def semiconcavity_scan(
    psi: FuncExpr,
    alpha: Fraction,
    r: int,
    n_max: int,
    y_set: Sequence[Fraction],
    mode: str = "exact",
    cap: int = DEFAULT_TRIPLET_CAP,
) -> ScanReport:
    """Scan of Delta_{n,k}(y; psi) <= alpha over the finite family."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return _run_scan(psi, r, n_max, y_set, "semiconcavity", alpha, mode, cap)


@dataclass(frozen=True)
class BoundFailure:
    y: Fraction
    fy: Scalar
    bound: Fraction

    def as_json(self) -> dict:
        return {"y": str(self.y), "f": scalar_to_json(self.fy), "bound": str(self.bound)}


@dataclass(frozen=True)
class BoundReport:
    """``holds`` when every y is certainly at or above its bound.  Float mode
    lists a y whose interval straddles its bound under ``inconclusive``."""

    holds: bool
    checked: int
    failures: Tuple[BoundFailure, ...]
    equality_points: Tuple[Fraction, ...]
    inconclusive: Tuple[Fraction, ...] = ()

    def as_json(self) -> dict:
        return {
            "holds": self.holds,
            "checked": self.checked,
            "failures": [f.as_json() for f in self.failures],
            "equality_points": [str(y) for y in self.equality_points],
            "inconclusive": [str(y) for y in self.inconclusive],
        }


def fundamental_bound_check(
    f: FuncExpr, c: Fraction, y_set: Sequence[Fraction], mode: str = "exact"
) -> BoundReport:
    """Pointwise check of the depth-0 consequence c y (1-y) <= f(y).

    Cross-checked internally against the n = 0 stencil margin
    Delta_{0,0}(y) + 2c, which must agree in sign.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    failures: List[BoundFailure] = []
    equalities: List[Fraction] = []
    inconclusive: List[Fraction] = []
    count = 0
    for y in sorted(set(map(Fraction, y_set))):
        if not (0 < y < 1):
            raise ValueError(f"y={y} outside (0, 1)")
        bound = c * y * (1 - y)
        fy = _eval(f, y, mode)
        count += 1
        if mode == "exact":
            fails = fy < bound
            margin = central_second_diff(f, Triplet(0, 0, y), 2, "exact") + 2 * c
            if (margin > 0) != fails:
                raise AssertionError("depth-0 margin disagrees with direct bound check")
            if fails:
                failures.append(BoundFailure(y, fy, bound))
            elif fy == bound:
                equalities.append(y)
        else:
            assert isinstance(fy, Approx)
            if Fraction(fy.hi()) < bound:  # exact comparison: certified failure
                failures.append(BoundFailure(y, fy, bound))
            elif Fraction(fy.lo()) < bound:  # the interval straddles the bound
                inconclusive.append(y)
    holds = not failures and not inconclusive
    return BoundReport(holds, count, tuple(failures), tuple(equalities), tuple(inconclusive))


@dataclass(frozen=True)
class ProbeRow:
    n: int
    k: int
    y: Fraction
    dplus: Scalar
    dminus: Scalar
    gap: Scalar

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "y": str(self.y),
            "dplus": scalar_to_json(self.dplus),
            "dminus": scalar_to_json(self.dminus),
            "gap": scalar_to_json(self.gap),
        }


def divergence_probe(
    f: FuncExpr,
    x: Union[Fraction, float, int],
    n_depth: int,
    y: Fraction = Fraction(1, 2),
    r: int = 2,
    mode: str = "auto",
) -> List[ProbeRow]:
    """Difference-quotient gap along the zooming stencils at x.

    For each depth n the cell index is k_n = floor(r^n x); the interior
    offset is the fixed y when x lies on the radix grid and the fractional
    part of r^n x otherwise (the interior point is then x itself).  A gap
    dplus - dminus that stays <= -c at every depth is finite evidence that
    the difference quotients at x cannot converge.

    mode 'auto' attempts exact arithmetic and falls back to certified floats
    when a series orbit is infeasibly long.
    """
    validate_radix(r)
    if n_depth < 1:
        raise ValueError("depth must be >= 1")
    xq = reduce_mod1(Fraction(x))
    y = Fraction(y)
    if not (0 < y < 1):
        raise ValueError("y must lie strictly inside (0, 1)")
    on_grid = is_radix_rational(xq, r)
    if mode == "auto":
        try:
            return _probe_rows(f, xq, n_depth, y, r, on_grid, "exact", _AUTO_ORBIT_CAP)
        except OrbitLimitError:
            return _probe_rows(f, xq, n_depth, y, r, on_grid, "float", None)
    if mode in ("exact", "float"):
        return _probe_rows(f, xq, n_depth, y, r, on_grid, mode, None)
    raise ValueError(f"mode must be 'auto', 'exact' or 'float', got {mode!r}")


def _probe_rows(
    f: FuncExpr,
    xq: Fraction,
    n_depth: int,
    y: Fraction,
    r: int,
    on_grid: bool,
    mode: str,
    orbit_cap: Optional[int],
) -> List[ProbeRow]:
    stencils: List[Triplet] = []
    for n in range(n_depth + 1):
        scaled = xq * r**n
        k = scaled.numerator // scaled.denominator
        yn = y if on_grid else scaled - k
        if yn == 0:  # radix point at depth below its own: scaled is integral
            yn = y
        stencils.append(Triplet(n, k, yn))
    points = [p for t in stencils for p in t.points(r)]  # one batch: points on one orbit share a table
    if mode == "exact":
        vals: List[Scalar] = eval_exact_points(f, points, max_orbit=orbit_cap)
    else:
        vals = [eval_approx(f, p) for p in points]
    rows: List[ProbeRow] = []
    for t, fl, fm, fr in zip(stencils, vals[0::3], vals[1::3], vals[2::3]):
        if mode == "exact":
            dminus: Scalar = (fm - fl) * r**t.n / t.y
            dplus: Scalar = (fr - fm) * r**t.n / (1 - t.y)
        else:
            rn = Approx(float(r**t.n), 0.0)
            dminus = (fm - fl) * rn / Approx.from_fraction(t.y)
            dplus = (fr - fm) * rn / Approx.from_fraction(1 - t.y)
        rows.append(ProbeRow(t.n, t.k, t.y, dplus, dminus, dplus - dminus))
    return rows
