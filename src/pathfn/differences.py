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

Both scan modes run one loop over ``grid.stencil_rows`` in integers, a
bounded piece of a stencil row at a time, and keep one key per row.  Exact
scans read one grid table of f; nothing in them passes through float.  Float
scans read one table of certified values (:func:`approx_table`, by the exact
table's node rules) as integers (:func:`dyadic`), decide each margin from its
exact range over those values, and compute only the worst triplet's margin
in Approx arithmetic.  The per-point stencil
routes (``central_second_diff``, the probe, and the oracles in ``flow`` and
``series``) take their slopes from :func:`stencil_slopes`, which evaluates f
point by point, a separate route that the tests use as the scans' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import List, Optional, Sequence, Tuple, Union

from .core.funcs import FuncExpr, eval_approx, eval_exact_points
from .core.points import Triplet, is_radix_rational, triplet_count, validate_radix
from .core.scalars import Approx, Record, Scalar, reduce_mod1
from .errors import DEFAULT_TRIPLET_CAP, OrbitLimitError, cap_depth, check_scan_cap
from .grid import Table, grid_values, scan_grid, stencil_rows, stencil_slices

_AUTO_ORBIT_CAP = 4096


def check_mode(mode: str) -> None:
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")


def _slopes(fl: Scalar, fm: Scalar, fr: Scalar, h_left: Scalar, h_right: Scalar) -> Tuple[Scalar, Scalar]:
    """(dminus, dplus) of a stencil from its values left, mid, right and its
    steps h_left = y/r^n, h_right = (1-y)/r^n."""
    return (fm - fl) / h_left, (fr - fm) / h_right


def stencil_slopes(
    f: FuncExpr, stencils: Sequence[Triplet], r: int, mode: str = "exact", max_orbit: Optional[int] = None
) -> List[Tuple[Scalar, Scalar]]:
    """[(dminus, dplus)] per stencil, each of its three points evaluated once.

    Exact mode reads every point in one :func:`eval_exact_points` batch
    (points on one orbit share a table; ``max_orbit`` is passed on and
    exceeding it raises :class:`OrbitLimitError`).  Float mode evaluates
    each point by ``eval_approx`` and divides by the certified step."""
    check_mode(mode)
    points = [p for t in stencils for p in t.points(r)]
    if mode == "exact":
        vals, step = eval_exact_points(f, points, max_orbit=max_orbit), Fraction
    else:
        vals, step = [eval_approx(f, p) for p in points], Approx.from_fraction
    return [
        _slopes(fl, fm, fr, step(t.y / r**t.n), step((1 - t.y) / r**t.n))
        for t, fl, fm, fr in zip(stencils, vals[0::3], vals[1::3], vals[2::3])
    ]


def central_second_diff(f: FuncExpr, t: Triplet, r: int, mode: str = "exact") -> Scalar:
    """Delta = 2 r^n (dplus - dminus); at (0, 0, y) this equals -2 f(y) / (y (1-y))."""
    ((dminus, dplus),) = stencil_slopes(f, [t], r, mode)
    scale = 2 * r**t.n
    return scale * (dplus - dminus) if mode == "exact" else (dplus - dminus) * Approx(float(scale), 0.0)


class MembershipQuery(Record):
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
        check_mode(self.mode)


class ScanReport(Record):
    """Outcome of a margin scan.

    ``worst_margin`` is the maximum over scanned triplets of Delta plus the
    criterion offset (2 c r^n for membership, -alpha for semiconcavity); in
    float mode, the certified margin of the triplet whose margin on the
    centres, computed exactly, is largest.  Ties pick the smallest (n, k, y).
    Exact mode: 'violated' exactly when it is positive.  Float mode decides
    from each margin's exact range over the certified values: 'violated' when
    some margin is certainly positive, 'no-violation' when every margin is
    certainly <= 0, else 'inconclusive'; ``inconclusive_count`` counts the
    margins whose range straddles 0.
    """

    verdict: str
    worst_margin: Scalar
    worst_triplet: Triplet
    scanned: int
    mode: str
    inconclusive_count: Optional[int] = None


def check_radix_scan_cap(cap: int, r: int, n_max: int, y_depth: int) -> None:
    """The cap check of a scan over depths <= n_max and y in radix_y_set(r,
    y_depth), made before the r^y_depth - 1 values of y are built."""
    if y_depth >= 1:  # radix_y_set refuses smaller depths
        n, y = cap_depth(n_max, cap), cap_depth(y_depth, cap)
        check_scan_cap(cap, triplet_count(r, n, r**y - 1), r ** cap_depth(n_max + y_depth, cap))


def scan_family(r: int, n_max: int, y_set: Sequence[Fraction], cap: int) -> Tuple[List[Fraction], int, int]:
    """(ys, total, grid) of a scan over the depths n <= n_max and the y of
    ``y_set``: the sorted distinct y, the number of triplets, and the size of
    the grid table (:func:`pathfn.grid.scan_grid`).  A family over ``cap`` or
    without triplets is refused, a huge depth without building its power."""
    ys = sorted(set(map(Fraction, y_set)))
    for y in ys:
        if not (0 < y < 1):
            raise ValueError(f"y={y} must lie strictly inside (0, 1)")
    n = cap_depth(n_max, cap)  # a clamped depth is refused below
    total = triplet_count(r, n, len(ys))
    if not total:
        raise ValueError("empty scan: no triplets enumerated")
    grid = scan_grid(r, n, ys)
    check_scan_cap(cap, total, grid)
    return ys, total, grid


def approx_table(f: FuncExpr, Q: int) -> List[Approx]:
    """Certified f(j/Q) for j = 0..Q, the float counterpart of
    :func:`pathfn.grid.grid_values`, built by the same node rules
    (``FuncExpr.rows``): one pass per node of f over the whole grid."""
    if Q < 1:
        raise ValueError(f"grid size must be >= 1, got {Q}")
    return [Approx(v, e) for v, e in f.rows(Q)]


def dyadic(values: Sequence[Approx]) -> Tuple[List[int], int, List[int]]:
    """(centres, den, errors) with values[j] = Approx(centres[j] / den,
    errors[j] / den) up to the sign of a zero: centres and errors are dyadic,
    so the largest of their denominators is a common one, and each division
    is exact."""
    den = max(x.as_integer_ratio()[1] for v in values for x in (v.value, v.err))

    def over_den(x: float) -> int:
        n, d = x.as_integer_ratio()
        return n * (den // d)

    return [over_den(v.value) for v in values], den, [over_den(v.err) for v in values]


def _run_scan(
    f: FuncExpr,
    r: int,
    n_max: int,
    y_set: Sequence[Fraction],
    kind: str,
    const: Fraction,
    mode: str,
    cap: int,
    table: Optional[Table] = None,
) -> ScanReport:
    """One loop over the pieces of :func:`pathfn.grid.stencil_rows` for both
    modes, on the grid table I/D of f (``table``, when the caller has built
    it) or, in float mode, on the certified table's centres within errors
    E/D (:func:`dyadic`).  The margin of (n, k, y = a/B) is
    2 r^(2n) B g[k] / (a (B - a) D) + offset(n), positive exactly when g[k]
    exceeds the row's integer T; the true g[k] lies within
    e = a E_R + (B - a) E_L + B E_M of the centre's.  Each row (n, y) keeps
    one key, its first largest g over its pieces."""
    check_mode(mode)
    ys, total, grid = scan_family(r, n_max, y_set, cap)
    offset = (lambda n: 2 * const * r**n) if kind == "membership" else (lambda n: -const)
    if mode == "exact":
        (vals, den), errs = grid_values(f, grid) if table is None else table, None
        if len(vals) != grid + 1:
            raise ValueError(f"the scan reads a table of {grid + 1} entries, got {len(vals)}")
    else:
        vals, den, errs = dyadic(approx_table(f, grid))
    B = grid // r**n_max
    rows = {}  # (n, y) -> (a, the row's largest g, its first k), over the row's pieces in k order
    violated, inconclusive = False, 0
    err_pieces = repeat(None) if errs is None else stencil_slices(errs, r, n_max, ys)
    for n, y, a, k0, g in stencil_rows(vals, r, n_max, ys):
        err_piece, best = next(err_pieces), max(g)
        row = rows.get((n, y))
        if row is None or best > row[1]:
            rows[n, y] = a, best, k0 + g.index(best)
        if err_piece is not None:
            b, scale = B - a, 2 * r ** (2 * n) * B
            T = (-offset(n) * (a * b * den)) // scale  # the margin is positive exactly when g > T
            for gk, L, M, R in zip(g, *err_piece[4:]):
                e = a * R + b * L + B * M
                violated = violated or gk - e > T
                inconclusive += gk - e <= T < gk + e
        del g, err_piece  # dropped before the next piece is built, not alongside it
    keys = (
        (-Fraction(2 * r ** (2 * n) * B * best, a * (B - a) * den) - offset(n), Triplet(n, k, y))
        for (n, y), (a, best, k) in rows.items()
    )
    neg, t = min(keys)  # the largest margin; ties go to the smallest (n, k, y)
    if errs is None:
        return ScanReport("violated" if neg < 0 else "no-violation", -neg, t, total, mode)
    # rebuild the worst triplet's certified values exactly, and its margin as central_second_diff does
    step, a = r ** (n_max - t.n), t.y.numerator * (B // t.y.denominator)
    lv, mv, rv = (Approx(vals[i] / den, errs[i] / den) for i in (t.k * B * step + d for d in (0, a * step, B * step)))
    dminus, dplus = _slopes(lv, mv, rv, Approx.from_fraction(t.y / r**t.n), Approx.from_fraction((1 - t.y) / r**t.n))
    margin = (dplus - dminus) * Approx(float(2 * r**t.n), 0.0) + Approx.from_fraction(offset(t.n))
    verdict = "violated" if violated else "inconclusive" if inconclusive else "no-violation"
    return ScanReport(verdict, margin, t, total, mode, inconclusive)


def membership_scan(q: MembershipQuery, cap: int = DEFAULT_TRIPLET_CAP) -> ScanReport:
    """Exhaustive scan of the steep concavity bound over the finite family.

    Margin of a triplet: Delta_{n,k}(y; f) + 2 c r^n.  A 'no-violation'
    verdict in exact mode is an exact statement about the scanned subfamily
    (and only about it)."""
    return _run_scan(q.f, q.r, q.n_max, q.y_set, "membership", q.c, q.mode, cap)


def _membership_scan_on(q: MembershipQuery, table: Table, cap: int) -> ScanReport:
    """:func:`membership_scan` of an exact query, reading ``table``, the grid
    table of q.f on the scan's grid that the caller built and reads again."""
    return _run_scan(q.f, q.r, q.n_max, q.y_set, "membership", q.c, q.mode, cap, table)


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


class ProbeRow(Record):
    n: int
    k: int
    y: Fraction
    dplus: Scalar
    dminus: Scalar
    gap: Scalar


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
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"mode must be 'auto', 'exact' or 'float', got {mode!r}")
    on_grid = is_radix_rational(xq, r)
    stencils: List[Triplet] = []
    for n in range(n_depth + 1):
        scaled = xq * r**n
        k = scaled.numerator // scaled.denominator
        stencils.append(Triplet(n, k, y if on_grid else scaled - k))
    if mode == "auto":
        try:
            slopes = stencil_slopes(f, stencils, r, "exact", _AUTO_ORBIT_CAP)
        except OrbitLimitError:
            slopes = stencil_slopes(f, stencils, r, "float")
    else:
        slopes = stencil_slopes(f, stencils, r, mode)
    return [ProbeRow(t.n, t.k, t.y, dplus, dminus, dplus - dminus) for t, (dminus, dplus) in zip(stencils, slopes)]
