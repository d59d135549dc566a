"""The quadratic-penalty flow H_t f(x) = inf_z [ f(z) + (x - z)^2 / (2t) ].

Two routes compute it:

* ``flow_grid`` -- for initial data satisfying the steep concavity bound at
  constant c and times t >= 1/(2 c r^n), the infimum over all real z
  collapses onto the grid {k/R}, R = r^n; the result is the lower envelope of
  R + 1 equal-curvature parabolas, built by the classic stack algorithm
  (Felzenszwalb & Huttenlocher, *Distance Transforms of Sampled Functions*).
  The algorithm runs in integers on the grid table f(k/R) = I_k/D: with
  t = p/q, the parabolas of vertices i < j cross at num/den with
  num = 2pR^2 (I_j - I_i) + qD (i + j)(j - i) and den = 2qDR (j - i) > 0, so
  every stack comparison is one cross-multiplication, and ``Fraction``s are
  built only for the surviving pieces.  Float mode decides every comparison
  on certified intervals first, then runs the same integer pass on the
  centre values as dyadic integers over one common denominator.
* ``flow_bruteforce_points`` -- the independent oracle: a plain minimum over
  the radix z-grid {j/r^N}, in exact or certified float arithmetic, for many
  x on one table of f.  At x = a/X the exact objective at z_j is
  N_j / (2pX^2R^2D) with N_j = 2pX^2R^2 I_(j mod R) + qD (aR - jX)^2, so the
  minimum is taken over integers.  ``flow_bruteforce`` is its one-point case.

The envelope is piecewise quadratic; on each piece u(t,x) = f(z) +
(x-z)^2/(2t) solves u_t + u_x^2/2 = 0 classically, and every piece of
positive width certifies that the initial function has a wide subdifferential
at its vertex (hence is not differentiable there).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from .core.funcs import FuncExpr, as_piecewise_poly, eval_exact, eval_exact_points, sup_abs_bound, supports_exact
from .core.points import Triplet, radix_y_set, validate_radix
from .core.polys import certify_nonneg
from .core.scalars import Approx, Scalar, format_rational
from .differences import (
    MembershipQuery,
    approx_table,
    backward_diff,
    central_second_diff,
    forward_diff,
    fundamental_bound_check,
    membership_scan,
)
from .errors import AmbiguousEnvelopeError, FlowConditionError
from .grid import grid_values


def parabola_eval(f: FuncExpr, t: Fraction, x: Fraction, z: Fraction) -> Fraction:
    """q(t, x; z) = f(z) + (x - z)^2 / (2t)."""
    t, x, z = Fraction(t), Fraction(x), Fraction(z)
    if t <= 0:
        raise ValueError("t must be positive")
    return eval_exact(f, z) + (x - z) ** 2 / (2 * t)


def crossing_points(
    f: FuncExpr, t_idx: Triplet, r: int, t: Fraction
) -> Tuple[Fraction, Fraction]:
    """Abscissas where the interior-vertex parabola meets the edge-vertex ones.

    x1 solves q(t, x; mid) = q(t, x; left) and x2 solves q(t, x; mid) =
    q(t, x; right); closed forms are

        x1 = k/r^n + y/(2 r^n)     + t * dminus
        x2 = k/r^n + (1+y)/(2 r^n) + t * dplus.

    The edge parabola dominance pattern means the interior vertex is
    redundant exactly when x1 >= x2.  Both closed forms are re-verified
    against the defining parabola equalities before returning.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    validate_radix(r)
    left, mid, right = t_idx.points(r)
    dminus = backward_diff(f, t_idx, r, "exact")
    dplus = forward_diff(f, t_idx, r, "exact")
    scale = Fraction(1, r**t_idx.n)
    x1 = left + t_idx.y * scale / 2 + t * dminus
    x2 = left + (1 + t_idx.y) * scale / 2 + t * dplus
    if parabola_eval(f, t, x1, mid) != parabola_eval(f, t, x1, left):
        raise AssertionError("crossing x1 fails its defining equality")
    if parabola_eval(f, t, x2, mid) != parabola_eval(f, t, x2, right):
        raise AssertionError("crossing x2 fails its defining equality")
    return x1, x2


@dataclass(frozen=True)
class DominanceReport:
    """Sampled three-parabola inequality vs. the exact criterion Delta <= -1/t.

    The inequality q(t,x; mid) >= min(q(t,x; left), q(t,x; right)) fails
    exactly on the open interval (x1, x2) when x1 < x2, so the sample set is
    augmented with that interval's midpoint; ``agree`` then flags any
    discrepancy between sampling and the criterion (there should never be
    one)."""

    criterion_holds: bool
    sampled_holds: bool
    agree: bool
    delta: Fraction
    witness_x: Optional[Fraction]

    def as_json(self) -> dict:
        return {
            "criterion_holds": self.criterion_holds,
            "sampled_holds": self.sampled_holds,
            "agree": self.agree,
            "delta": str(self.delta),
            "witness_x": None if self.witness_x is None else str(self.witness_x),
        }


def dominance_check(
    f: FuncExpr,
    t_idx: Triplet,
    r: int,
    t: Fraction,
    x_samples: Sequence[Fraction],
) -> DominanceReport:
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    left, mid, right = t_idx.points(r)
    delta = central_second_diff(f, t_idx, r, "exact")
    criterion = delta <= Fraction(-1) / t
    x1, x2 = crossing_points(f, t_idx, r, t)
    samples = [Fraction(x) for x in x_samples]
    if x1 < x2:
        samples.append((x1 + x2) / 2)  # guaranteed violation point
    # Over one common denominator: with t = p/q, x = a/X, the vertex z = Z/P and
    # f(z) = I/D, q(t, x; z) = [2p(XP)^2 I + qD (aP - ZX)^2] / (2p(XP)^2 D).
    vertices = (mid, left, right)
    fz = eval_exact_points(f, vertices)
    D = math.lcm(*(v.denominator for v in fz))
    P = math.lcm(*(z.denominator for z in vertices))
    X = math.lcm(*(x.denominator for x in samples))
    c, qD = 2 * t.numerator * (X * P) ** 2, t.denominator * D
    (cm, zm), (cl, zl), (cr, zr) = (
        (c * v.numerator * (D // v.denominator), z.numerator * (P // z.denominator) * X) for v, z in zip(fz, vertices)
    )
    witness = None
    for x in samples:
        aP = x.numerator * (X // x.denominator) * P
        q_mid = cm + qD * (aP - zm) ** 2
        if q_mid < cl + qD * (aP - zl) ** 2 and q_mid < cr + qD * (aP - zr) ** 2:
            witness = x
            break
    sampled = witness is None
    return DominanceReport(criterion, sampled, criterion == sampled, delta, witness)


@dataclass(frozen=True)
class FlowQuery:
    """Parameters of a grid-flow computation.

    ``n`` defaults to the smallest depth the time admits, i.e. the smallest
    n with t >= 1/(2 c r^n) (coarsest grid, fewest parabolas).
    """

    f: FuncExpr
    c: Fraction
    r: int
    t: Fraction
    n: Optional[int] = None
    mode: str = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "t", Fraction(self.t))
        validate_radix(self.r)
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.n is not None and self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")

    def depth(self) -> int:
        if self.n is not None:
            return self.n
        n = 0
        while 2 * self.c * self.t * self.r**n < 1:
            n += 1
        return n


@dataclass(frozen=True)
class Piece:
    """One parabola segment of the envelope: value fz + (x - z)^2 / (2t) on
    [x_lo, x_hi]."""

    x_lo: Fraction
    x_hi: Fraction
    z: Fraction
    fz: Fraction

    def as_json(self) -> dict:
        return {
            "x_lo": format_rational(self.x_lo),
            "x_hi": format_rational(self.x_hi),
            "z": format_rational(self.z),
            "fz": format_rational(self.fz),
        }


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """The flow at a fixed time on [0, 1] as an ordered run of parabola pieces.

    Invariants: pieces tile [0, 1] with positive widths, adjacent pieces agree
    at shared breakpoints, and vertices sit on the radix grid.  ``err`` bounds
    how far ``eval`` may sit from the envelope of the exact vertex values: 0
    in exact mode; in float mode, the largest certified error of the vertex
    values (the envelope of values each within err of the exact ones is
    within err of the exact envelope).  It is not part of the JSON form.
    """

    t: Fraction
    pieces: Tuple[Piece, ...]
    err: float = 0.0

    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(p.x_lo for p in self.pieces) + (self.pieces[-1].x_hi,)

    def piece_at(self, x: Fraction) -> Piece:
        x = Fraction(x)
        if not (0 <= x <= 1):
            raise ValueError(f"x={x} outside [0, 1]")
        idx = max(0, bisect_right(self._cuts, x) - 1)
        return self.pieces[idx]

    @cached_property
    def _cuts(self) -> List[Fraction]:
        return [p.x_lo for p in self.pieces]

    def eval(self, x: Fraction) -> Fraction:
        p = self.piece_at(x)
        x = Fraction(x)
        return p.fz + (x - p.z) ** 2 / (2 * self.t)

    def as_json(self) -> dict:
        return {
            "schema": "pathfn/1",
            "t": format_rational(self.t),
            "pieces": [p.as_json() for p in self.pieces],
        }

    def sample_rows(self, count: int) -> List[Tuple[Fraction, Fraction]]:
        """Evenly spaced (x, value) samples for CSV output, equal to
        ``(x, eval(x))``: one forward walk along the pieces."""
        if count < 2:
            raise ValueError("need at least 2 samples")
        rows = []
        k, last = 0, len(self.pieces) - 1
        for i in range(count):
            x = Fraction(i, count - 1)
            while k < last and self.pieces[k + 1].x_lo <= x:
                k += 1
            p = self.pieces[k]
            rows.append((x, p.fz + (x - p.z) ** 2 / (2 * self.t)))
        return rows


def piecewise_from_json(doc: Union[str, dict]) -> PiecewiseQuadratic:
    """Rebuild an envelope from its JSON form (schema pathfn/1)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    pieces = tuple(
        Piece(
            Fraction(p["x_lo"]),
            Fraction(p["x_hi"]),
            Fraction(p["z"]),
            Fraction(p["fz"]),
        )
        for p in doc["pieces"]
    )
    return PiecewiseQuadratic(Fraction(doc["t"]), pieces)


def flow_grid(q: FlowQuery) -> PiecewiseQuadratic:
    """Lower envelope of the r^n + 1 grid-vertex parabolas on [0, 1].

    Preconditions: t >= 1/(2 c r^n) for the effective depth, and evidence
    that the initial function is steep at c down to that depth (see
    :func:`_require_steepness_evidence`), on which the collapse onto the grid
    rests.  Runs in time linear in r^n; exact mode throughout (float mode
    raises if any envelope comparison is ambiguous within certified bounds).
    """
    n = q.depth()
    threshold = Fraction(1, 2 * q.c * q.r**n)
    if q.t < threshold:
        raise FlowConditionError(
            f"t={q.t} below the admissible threshold 1/(2*c*r^n)={threshold} at depth n={n}"
        )
    _require_steepness_evidence(q.f, q.c, q.r, n)
    if q.mode == "exact":
        return _envelope_exact(*grid_values(q.f, q.r**n), q.t)
    return _envelope_float(approx_table(q.f, q.r**n), q.t)


def _require_steepness_evidence(f: FuncExpr, c: Fraction, r: int, n: int) -> None:
    """Refuse unless f is certainly steep at c down to depth n: c y (1 - y)
    <= f(y) on the depth-3 y set, and the membership scan of the steep bound
    Delta <= -2 c r^m over every depth m <= n and y in {k/r : 0 < k < r}
    gives 'no-violation'.  Both run exactly whenever f has an exact branch,
    whatever the flow's mode, and in certified floats otherwise."""
    probe_mode = "exact" if supports_exact(f) else "float"
    report = fundamental_bound_check(f, c, radix_y_set(r, 3), mode=probe_mode)
    if report.failures:
        first = report.failures[0]
        raise FlowConditionError(
            f"no steepness evidence at c={c}: f({first.y}) = {first.fy} < {first.bound}"
        )
    if report.inconclusive:
        y = report.inconclusive[0]
        raise FlowConditionError(
            f"no steepness evidence at c={c}: f({y}) is not certainly >= {c * y * (1 - y)}"
        )
    scan = membership_scan(MembershipQuery(f, c, r, n, radix_y_set(r, 1), probe_mode))
    if scan.verdict != "no-violation":
        w = scan.worst_triplet
        raise FlowConditionError(
            f"no steepness evidence at c={c}: the steep bound is {scan.verdict} at depth <= {n}, "
            f"worst at (n, k, y) = ({w.n}, {w.k}, {w.y})"
        )


# A point of the envelope's x-axis as an integer pair (num, den), den > 0.
_Cut = Tuple[int, int]


def _envelope_exact(vals: List[int], den: int, t: Fraction, err: float = 0.0) -> PiecewiseQuadratic:
    """Lower envelope on [0, 1] of the parabolas vals[k]/den + (x - k/R)^2/(2t),
    R = len(vals) - 1, by the stack algorithm in integers (see the module
    docstring for the crossing num/den)."""
    g = math.gcd(den, *vals)  # reduced data keep the crossings and their gcds small
    vals, den = [v // g for v in vals], den // g
    R = len(vals) - 1
    a, b = 2 * t.numerator * R * R, t.denominator * den
    # the crossing of i < j is num / (C (j - i)) with C = 2 b R; C is common to
    # every crossing, so comparisons use the pair (num, j - i)
    C = 2 * b * R

    def crossing(i: int, j: int) -> _Cut:
        return a * (vals[j] - vals[i]) + b * (i + j) * (j - i), j - i

    stack: List[int] = [0]
    cuts: List[_Cut] = []  # cuts[m] is the left boundary of stack[m + 1]'s cell
    for j in range(1, R + 1):
        num, dj = crossing(stack[-1], j)
        while cuts and num * cuts[-1][1] <= cuts[-1][0] * dj:
            stack.pop()
            cuts.pop()
            num, dj = crossing(stack[-1], j)
        stack.append(j)
        cuts.append((num, dj))
    bounds = [(0, 1)] + [(num, C * dj) for num, dj in cuts] + [(1, 1)]
    kept: List[Tuple[int, _Cut, _Cut]] = []  # (vertex, lo, hi), clamped to [0, 1]
    for m, i in enumerate(stack):
        lo, hi = bounds[m], bounds[m + 1]
        if lo[0] < 0:
            lo = (0, 1)
        if hi[0] > hi[1]:
            hi = (1, 1)
        if lo[0] * hi[1] < hi[0] * lo[1]:
            kept.append((i, lo, hi))
    _check_envelope_invariants(kept, vals, den, t)
    xs = {cut: Fraction(*cut) for _, lo, hi in kept for cut in (lo, hi)}
    pieces = tuple(Piece(xs[lo], xs[hi], Fraction(i, R), Fraction(vals[i], den)) for i, lo, hi in kept)
    return PiecewiseQuadratic(t, pieces, err)


def _check_envelope_invariants(kept: List[Tuple[int, _Cut, _Cut]], vals: List[int], den: int, t: Fraction) -> None:
    """Pieces (vertex, lo, hi) tile [0, 1] with positive widths, and adjacent
    pieces agree at their shared breakpoint x = N/M: for vertices i < j,
    2pR^2 M (I_i - I_j) + qD (j - i)(2NR - (i + j) M) = 0 is
    2pDR^2 M times the difference of the two parabolas at x."""
    R, p, q = len(vals) - 1, t.numerator, t.denominator
    if not kept or kept[0][1][0] != 0 or kept[-1][2][0] != kept[-1][2][1]:
        raise AssertionError("envelope does not tile [0, 1]")
    for _, (lo_n, lo_d), (hi_n, hi_d) in kept:
        if lo_n * hi_d >= hi_n * lo_d:
            raise AssertionError("envelope piece of non-positive width")
    for (i, _, (n, m)), (j, (n2, m2), _) in zip(kept, kept[1:]):
        if n * m2 != n2 * m or i >= j:
            raise AssertionError("envelope pieces do not share endpoints")
        if 2 * p * R * R * m * (vals[i] - vals[j]) + q * den * (j - i) * (2 * n * R - (i + j) * m):
            raise AssertionError("envelope discontinuous at a breakpoint")


def _envelope_float(fz: List[Approx], t: Fraction) -> PiecewiseQuadratic:
    """Float-mode envelope of the vertex values fz[k] at z = k/R.

    Every ordering decision is first made with certified interval comparisons
    and any ambiguity raises (the combinatorial structure must never depend
    on rounding).  Once the structure is certain, the emitted object is the
    exact envelope of the parabolas through the computed values taken as
    exact dyadic rationals, so all structural invariants hold exactly for
    that perturbed data; its ``err`` is the largest vertex error.
    """
    R = len(fz) - 1
    ta = Approx.from_fraction(t)
    stack: List[int] = [0]
    lefts: List[Optional[Approx]] = [None]

    def intersect(i: int, j: int) -> Approx:
        dz = Approx.from_fraction(Fraction(j - i, R))
        mid = Approx.from_fraction(Fraction(i + j, 2 * R))
        return ta * (fz[j] - fz[i]) / dz + mid

    for j in range(1, R + 1):
        while True:
            i = stack[-1]
            s = intersect(i, j)
            prev = lefts[-1]
            if prev is not None:
                if s.overlaps(prev):
                    raise AmbiguousEnvelopeError(
                        f"breakpoint between z={Fraction(i, R)} and z={Fraction(j, R)} is ambiguous; use exact mode"
                    )
                if s.definitely_le(prev):
                    stack.pop()
                    lefts.pop()
                    continue
            break
        stack.append(j)
        lefts.append(s)
    # centres are dyadic, so the largest denominator is a common one
    ratios = [v.value.as_integer_ratio() for v in fz]
    den = max(d for _, d in ratios)
    return _envelope_exact([n * (den // d) for n, d in ratios], den, t, max(v.err for v in fz))


def _certified_nonneg_on_unit(f: FuncExpr) -> bool:
    """Best-effort certificate that f >= 0 on [0, 1]: f keeps nonnegative
    children nonnegative and they are certified, or its pieces are."""
    if f.keeps_nonneg and all(_certified_nonneg_on_unit(c) for c in f.children):
        return True
    pw = as_piecewise_poly(f)
    return pw is not None and all(certify_nonneg(cs, lo, hi) is True for lo, hi, cs in pw)


def _z_windows(f: FuncExpr, t: Fraction, xs: Sequence[Fraction], den: int) -> List[range]:
    """For each x, the indices j of the z = j/den that its minimum searches.

    When f is certifiably nonnegative on [0, 1], z ranges over
    [floor(x), floor(x) + 1]: f vanishes at the integers, so the integer end
    on the far side of x beats any z beyond it.  Otherwise z ranges over
    [x - L, x + L]: any z with |z - x| > L would need f(z) below inf f, since
    the quadratic penalty already exceeds the oscillation;
    L = isqrt(floor(2 t osc) + 1) + 2 with osc <= 2 sup|f|.
    """
    if _certified_nonneg_on_unit(f):
        return [range(math.floor(x) * den, (math.floor(x) + 1) * den + 1) for x in xs]
    bound = 4 * t * sup_abs_bound(f)
    L = math.isqrt(bound.numerator // bound.denominator + 1) + 2
    return [range(math.ceil((x - L) * den), math.floor((x + L) * den) + 1) for x in xs]


def _bruteforce_args(t: Fraction, radix_depth: int, r: int, mode: str) -> Fraction:
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    validate_radix(r)
    if radix_depth < 0:
        raise ValueError(f"radix_depth must be >= 0, got {radix_depth}")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    return t


def flow_bruteforce_count(f: FuncExpr, t: Fraction, xs: Sequence[Union[Fraction, float]], radix_depth: int, r: int) -> int:
    """The number of objective values :func:`flow_bruteforce_points` compares
    for these arguments, counted without evaluating f."""
    t = _bruteforce_args(t, radix_depth, r, "exact")
    return sum(len(js) for js in _z_windows(f, t, [Fraction(x) for x in xs], r**radix_depth))


def flow_bruteforce_points(
    f: FuncExpr,
    t: Fraction,
    xs: Sequence[Union[Fraction, float]],
    radix_depth: int,
    r: int,
    mode: str = "exact",
) -> List[Scalar]:
    """Direct minimization of f(z) + (x - z)^2/(2t) over z in {j/R},
    R = r^N with N = ``radix_depth``, for each x of ``xs``, with f(z) read
    periodically off one table of f over a period.

    Exact mode returns the sampled minimum: an upper bound of the true
    infimum that, for steep initial data and admissible times, matches
    ``flow_grid`` exactly once N reaches the collapse depth.  With t = p/q,
    x = a/X and f(j/R) = I_j/D, the objective at z_j is N_j / (2pX^2R^2D),
    N_j = 2pX^2R^2 I_(j mod R) + qD (aR - jX)^2, and the result is the plain
    minimum of the integers N_j over x's window (see ``_z_windows``).  Float
    mode reads certified values of f and returns an Approx that contains the
    exact sampled minimum: it spans the minimum of the lower ends and the
    minimum of the upper ends of the certified objective values.
    """
    t = _bruteforce_args(t, radix_depth, r, mode)
    p, q = t.numerator, t.denominator
    R = r**radix_depth
    xqs = [Fraction(x) for x in xs]
    windows = _z_windows(f, t, xqs, R)
    out: List[Scalar] = []
    if mode == "exact":
        vals, D = grid_values(f, R)
        for x, js in zip(xqs, windows):
            a, X = x.numerator, x.denominator
            c, aR, qD = 2 * p * X * X * R * R, a * R, q * D
            out.append(Fraction(min(c * vals[j % R] + qD * (aR - j * X) ** 2 for j in js), c * D))
        return out
    fz = approx_table(f, R)
    for x, js in zip(xqs, windows):
        a, X = x.numerator, x.denominator
        c, aR = 2 * p * X * X * R * R, a * R
        lo_min = hi_min = math.inf
        for j in js:
            v = fz[j % R] + Approx.from_fraction(Fraction(q * (aR - j * X) ** 2, c))
            lo_min, hi_min = min(lo_min, v.lo()), min(hi_min, v.hi())
        out.append(Approx.from_bounds(lo_min, hi_min))
    return out


def flow_bruteforce(
    f: FuncExpr,
    t: Fraction,
    x: Union[Fraction, float],
    radix_depth: int,
    r: int,
    mode: str = "exact",
) -> Scalar:
    """:func:`flow_bruteforce_points` at one point."""
    return flow_bruteforce_points(f, t, [x], radix_depth, r, mode)[0]


def pde_residual(pq: PiecewiseQuadratic, x: Fraction) -> Fraction:
    """u_t + u_x^2 / 2 at an interior point of a piece (exactly 0 for every
    envelope; the flow is a classical solution away from breakpoints).

    Raises at breakpoints, where only the viscosity interpretation applies.
    """
    x = Fraction(x)
    if x in pq.breakpoints():
        raise ValueError(f"x={x} is a breakpoint; residual undefined at kinks")
    p = pq.piece_at(x)
    u_t = -((x - p.z) ** 2) / (2 * pq.t**2)
    u_x = (x - p.z) / pq.t
    return u_t + u_x**2 / 2


@dataclass(frozen=True)
class SubdiffWitness:
    """A slope interval certified to sit inside the subdifferential at z.

    A piece [x_lo, x_hi] with vertex z witnesses that every slope
    (x - z)/t for x in the piece is a subgradient of the initial function at
    z; positive width therefore certifies non-differentiability at z.
    """

    z: Fraction
    slope_lo: Fraction
    slope_hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.slope_hi - self.slope_lo

    def as_json(self) -> dict:
        return {
            "z": format_rational(self.z),
            "slope_lo": format_rational(self.slope_lo),
            "slope_hi": format_rational(self.slope_hi),
        }


def subdiff_witnesses(q: FlowQuery) -> List[SubdiffWitness]:
    """One witness per envelope piece; pieces all have positive width, so
    every emitted interval certifies a non-differentiability point on the
    radix grid."""
    pq = flow_grid(q)
    out = []
    for p in pq.pieces:
        if p.x_hi > p.x_lo:
            out.append(
                SubdiffWitness(p.z, (p.x_lo - p.z) / q.t, (p.x_hi - p.z) / q.t)
            )
    return out


def witness_support_violations(
    f: FuncExpr, w: SubdiffWitness, offsets: Sequence[Fraction]
) -> List[Tuple[Fraction, Fraction]]:
    """Direct audit of a witness: for slopes at both interval endpoints,
    check f(z + h) >= f(z) + p*h at the given local offsets h.

    Returns the (offset, slope) pairs that fail; an empty list is the
    expected outcome for offsets within the witness's support scale.
    """
    fz = eval_exact(f, w.z)
    bad = []
    for p in (w.slope_lo, w.slope_hi):
        for h in offsets:
            h = Fraction(h)
            if h == 0:
                continue
            if eval_exact(f, w.z + h) < fz + p * h:
                bad.append((h, p))
    return bad
