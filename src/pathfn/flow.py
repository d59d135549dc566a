"""The quadratic-penalty flow H_t f(x) = inf_z [ f(z) + (x - z)^2 / (2t) ].

Two routes compute it:

* ``flow_grid`` -- for initial data satisfying the steep concavity bound at
  constant c and times t >= 1/(2 c r^n), the infimum over all real z
  collapses onto the grid {k/r^n}; the result is the lower envelope of
  r^n + 1 equal-curvature parabolas, built by the classic stack algorithm in
  exact rational arithmetic.
* ``flow_bruteforce`` -- direct minimization over a dense z-grid (exact
  radix grid or float step), used as an independent oracle.

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
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple, Union

from .core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    FuncExpr,
    Scale,
    Sum,
    ThetaSplice,
    USeries,
    as_piecewise_poly,
    eval_approx,
    eval_exact,
    sup_abs_bound,
    supports_exact,
)
from .core.points import Triplet, radix_y_set, validate_radix
from .core.polys import certify_nonneg
from .core.scalars import Approx, Scalar, format_rational
from .differences import central_second_diff, backward_diff, forward_diff, fundamental_bound_check
from .errors import AmbiguousEnvelopeError, FlowConditionError


def parabola_eval(
    f: FuncExpr,
    t: Fraction,
    x: Union[Fraction, float],
    z: Union[Fraction, float],
    mode: str = "exact",
) -> Scalar:
    """q(t, x; z) = f(z) + (x - z)^2 / (2t)."""
    if mode == "exact":
        t, x, z = Fraction(t), Fraction(x), Fraction(z)
        if t <= 0:
            raise ValueError("t must be positive")
        return eval_exact(f, z) + (x - z) ** 2 / (2 * t)
    ta, xa, za = (Approx.coerce(Fraction(v)) for v in (t, x, z))
    d = xa - za
    return eval_approx(f, Fraction(z)) + d * d / (ta * 2)


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
    witness = None
    f_mid, f_left, f_right = (eval_exact(f, p) for p in (mid, left, right))
    inv2t = Fraction(1, 2 * t)
    for x in samples:
        q_mid = f_mid + (x - mid) ** 2 * inv2t
        q_edge = min(f_left + (x - left) ** 2 * inv2t, f_right + (x - right) ** 2 * inv2t)
        if q_mid < q_edge:
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
    at shared breakpoints, and vertices sit on the radix grid.
    """

    t: Fraction
    pieces: Tuple[Piece, ...]

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

    def to_json(self) -> str:
        return json.dumps(self.as_json(), sort_keys=True)

    def sample_rows(self, count: int) -> List[Tuple[Fraction, Fraction]]:
        """Evenly spaced (x, value) samples for CSV output."""
        if count < 2:
            raise ValueError("need at least 2 samples")
        return [
            (x, self.eval(x))
            for x in (Fraction(i, count - 1) for i in range(count))
        ]


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


def _parabola_intersection(
    zi: Fraction, fi: Fraction, zj: Fraction, fj: Fraction, t: Fraction
) -> Fraction:
    """Abscissa where two equal-curvature parabolas cross (zi < zj)."""
    return t * (fj - fi) / (zj - zi) + (zi + zj) / 2


def flow_grid(q: FlowQuery) -> PiecewiseQuadratic:
    """Lower envelope of the r^n + 1 grid-vertex parabolas on [0, 1].

    Preconditions: t >= 1/(2 c r^n) for the effective depth, and the initial
    function must pass the depth-0 lower-bound check at c (evidence that the
    collapse onto the grid is legitimate).  Runs in time linear in r^n; exact
    mode throughout (float mode raises if any envelope comparison is
    ambiguous within certified bounds).
    """
    n = q.depth()
    threshold = Fraction(1, 2 * q.c * q.r**n)
    if q.t < threshold:
        raise FlowConditionError(
            f"t={q.t} below the admissible threshold 1/(2*c*r^n)={threshold} at depth n={n}"
        )
    _require_steepness_evidence(q.f, q.c, q.r, q.mode)
    den = q.r**n
    zs = [Fraction(k, den) for k in range(den + 1)]
    if q.mode == "exact":
        fz = [eval_exact(q.f, z) for z in zs]
        return _envelope_exact(zs, fz, q.t)
    fz_a = [eval_approx(q.f, z) for z in zs]
    return _envelope_float(zs, fz_a, q.t)


def _require_steepness_evidence(f: FuncExpr, c: Fraction, r: int, mode: str) -> None:
    probe_mode = "exact" if (mode == "exact" and supports_exact(f)) else "float"
    report = fundamental_bound_check(f, c, radix_y_set(r, 3), mode=probe_mode)
    if not report.holds:
        first = report.failures[0]
        raise FlowConditionError(
            f"no steepness evidence at c={c}: f({first.y}) = {first.fy} < {first.bound}"
        )


def _envelope_exact(
    zs: List[Fraction], fz: List[Fraction], t: Fraction
) -> PiecewiseQuadratic:
    # stack algorithm over vertices in increasing z; lefts[i] is the left
    # boundary of the surviving cell of stack[i] (None = unbounded)
    stack: List[int] = [0]
    lefts: List[Optional[Fraction]] = [None]
    for j in range(1, len(zs)):
        while True:
            i = stack[-1]
            s = _parabola_intersection(zs[i], fz[i], zs[j], fz[j], t)
            if lefts[-1] is not None and s <= lefts[-1]:
                stack.pop()
                lefts.pop()
                continue
            break
        stack.append(j)
        lefts.append(s)
    pieces: List[Piece] = []
    zero, one = Fraction(0), Fraction(1)
    for idx, i in enumerate(stack):
        lo = lefts[idx] if lefts[idx] is not None else zero
        hi = lefts[idx + 1] if idx + 1 < len(lefts) else one
        lo, hi = max(lo, zero), min(hi, one)
        if lo < hi:
            pieces.append(Piece(lo, hi, zs[i], fz[i]))
    _check_envelope_invariants(pieces, t)
    return PiecewiseQuadratic(t, tuple(pieces))


def _check_envelope_invariants(pieces: List[Piece], t: Fraction) -> None:
    if not pieces or pieces[0].x_lo != 0 or pieces[-1].x_hi != 1:
        raise AssertionError("envelope does not tile [0, 1]")
    for a, b in zip(pieces, pieces[1:]):
        if a.x_hi != b.x_lo:
            raise AssertionError("envelope pieces do not share endpoints")
        x = a.x_hi
        va = a.fz + (x - a.z) ** 2 / (2 * t)
        vb = b.fz + (x - b.z) ** 2 / (2 * t)
        if va != vb:
            raise AssertionError("envelope discontinuous at a breakpoint")


def _envelope_float(
    zs: List[Fraction], fz: List[Approx], t: Fraction
) -> PiecewiseQuadratic:
    """Float-mode envelope.

    Every ordering decision is first made with certified interval comparisons
    and any ambiguity raises (the combinatorial structure must never depend
    on rounding).  Once the structure is certain, the emitted object is the
    exact envelope of the parabolas through the computed values taken as
    exact dyadic rationals, so all structural invariants hold exactly for
    that perturbed data.
    """
    ta = Approx.from_fraction(t)
    stack: List[int] = [0]
    lefts: List[Optional[Approx]] = [None]

    def intersect(i: int, j: int) -> Approx:
        dz = Approx.from_fraction(zs[j] - zs[i])
        mid = Approx.from_fraction((zs[i] + zs[j]) / 2)
        return ta * (fz[j] - fz[i]) / dz + mid

    for j in range(1, len(zs)):
        while True:
            i = stack[-1]
            s = intersect(i, j)
            prev = lefts[-1]
            if prev is not None:
                if s.overlaps(prev):
                    raise AmbiguousEnvelopeError(
                        f"breakpoint between z={zs[i]} and z={zs[j]} is ambiguous; use exact mode"
                    )
                if s.definitely_le(prev):
                    stack.pop()
                    lefts.pop()
                    continue
            break
        stack.append(j)
        lefts.append(s)
    return _envelope_exact(zs, [Fraction(v.value) for v in fz], t)


def _certified_nonneg_on_unit(f: FuncExpr) -> bool:
    """Best-effort certificate that f >= 0 on [0, 1]."""
    if isinstance(f, (Distance, DistancePower, AbsSin, ThetaSplice)):
        return True
    if isinstance(f, Scale):
        return f.a >= 0 and _certified_nonneg_on_unit(f.child)
    if isinstance(f, Dilate):
        return _certified_nonneg_on_unit(f.child)
    if isinstance(f, Sum):
        if all(_certified_nonneg_on_unit(c) for c in f.children):
            return True
    if isinstance(f, USeries):
        if _certified_nonneg_on_unit(f.psi):
            return True
    pw = as_piecewise_poly(f)
    if pw is not None:
        return all(certify_nonneg(cs, lo, hi) is True for lo, hi, cs in pw)
    return False


@lru_cache(maxsize=1 << 20)
def _eval_float_cached(f: FuncExpr, z: float) -> Approx:
    # z-grids repeat across brute-force queries at different x and t
    return eval_approx(f, z)


def _search_window(f: FuncExpr, t: Fraction, x: Fraction) -> Tuple[Fraction, Fraction]:
    """Minimizer window [x - L, x + L]: any z with |z - x| > L would need
    f(z) below inf f, since the quadratic penalty already exceeds the
    oscillation; L = sqrt(2 t osc) + 1 with osc <= 2 sup|f|."""
    osc = 2 * sup_abs_bound(f)
    bound = 2 * Fraction(t) * osc
    l_int = math.isqrt(bound.numerator // bound.denominator + 1) + 2
    return x - l_int, x + l_int


def flow_bruteforce(
    f: FuncExpr,
    t: Fraction,
    x: Union[Fraction, float],
    radix_depth: Optional[int] = None,
    r: Optional[int] = None,
    step: Optional[float] = None,
) -> Scalar:
    """Direct minimization of f(z) + (x - z)^2/(2t) over a dense z-grid.

    Radix mode (``radix_depth`` with ``r``): exact arithmetic over
    z in {j/r^N}; an upper bound of the true infimum that, for steep initial
    data and admissible times, matches ``flow_grid`` exactly once N reaches
    the collapse depth.  Step mode (``step``): float grid, returning the
    sampled minimum with the evaluation bound of the winning point.

    When f is not certifiably nonnegative on [0, 1] the z-range widens to
    the oscillation window around x.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if (radix_depth is None) == (step is None):
        raise ValueError("specify exactly one of radix_depth (with r) or step")
    nonneg = _certified_nonneg_on_unit(f)
    if radix_depth is not None:
        if r is None:
            raise ValueError("radix mode needs r")
        validate_radix(r)
        xq = Fraction(x)
        lo, hi = (Fraction(0), Fraction(1)) if nonneg else _search_window(f, t, xq)
        den = r**radix_depth
        j_lo = math.ceil(lo * den)
        j_hi = math.floor(hi * den)
        best: Optional[Fraction] = None
        inv2t = Fraction(1, 2 * t)
        for j in range(j_lo, j_hi + 1):
            z = Fraction(j, den)
            v = eval_exact(f, z) + (xq - z) ** 2 * inv2t
            if best is None or v < best:
                best = v
        assert best is not None
        return best
    xf = float(x)
    loF, hiF = (0.0, 1.0) if nonneg else tuple(map(float, _search_window(f, t, Fraction(x))))
    count = max(2, int(math.ceil((hiF - loF) / step)) + 1)
    tf = float(t)
    best_v: Optional[float] = None
    best_err = 0.0
    for i in range(count):
        z = loF + (hiF - loF) * i / (count - 1)
        fz = _eval_float_cached(f, z)
        v = fz.value + (xf - z) ** 2 / (2.0 * tf)
        if best_v is None or v < best_v:
            best_v, best_err = v, fz.err
    assert best_v is not None
    return Approx(best_v, best_err * 2 + math.ulp(max(abs(best_v), 1.0)) * 8)


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
