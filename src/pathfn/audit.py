"""Oracles and audits: independent routes that check the layers' results
from outside, one point or one triplet at a time.

Each one recomputes something that a subcommand reads off a grid table or an
envelope, by a different path: the series decomposition per triplet, the
parabola / Takagi / transform chain per point, the crossing points and
dominance of three grid parabolas, the Hopf-Lax equation inside each
envelope piece, and the subgradient inequality behind each envelope witness.
It also holds the small constructors and enumerators that tests and demos
build their cases from.  No subcommand imports this module.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    FuncExpr,
    Scale,
    Sum,
    USeries,
    eval_exact,
    eval_exact_points,
)
from .core.points import Triplet, is_radix_rational, validate_radix
from .core.scalars import Record
from .differences import central_second_diff, stencil_slopes
from .flow import Piece, PiecewiseQuadratic
from .series import u_eval_exact


def psi_zero(a: Fraction, b: Fraction) -> Sum:
    """a*d + b*d^2: not concave, but 2b-semiconcave on [0, 1]."""
    return Sum((Scale(Fraction(a), Distance()), Scale(Fraction(b), DistancePower(2))))


def sin_cancellation(r: int) -> Sum:
    """|sin(pi x)| - (1/r)|sin(pi r x)|: its series transform telescopes to |sin(pi x)|."""
    return Sum((AbsSin(), Scale(Fraction(-1, r), Dilate(r, AbsSin()))))


def enumerate_triplets(
    r: int, n_max: int, y_set: Iterable[Fraction]
) -> Iterator[Triplet]:
    """All admissible triplets with n <= n_max and y in y_set, in lexicographic
    (n, k, y) order.  Yields exactly sum_{n<=n_max} r^n * |y_set| items."""
    validate_radix(r)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ys = sorted({Fraction(y) for y in y_set})
    for y in ys:
        if not (0 < y < 1):
            raise ValueError(f"y={y} must lie strictly inside (0, 1)")
    for n in range(n_max + 1):
        for k in range(r**n):
            for y in ys:
                yield Triplet(n, k, y)


def u_delta_identity_residual(s: USeries, t: Triplet) -> Fraction:
    """Left minus right side of the exact second-difference decomposition

        Delta_{n,k}(y; U_psi)
            = sum_{j=0}^{n-1} r^j Delta_{n-j,k}(y; psi)
              - (2 r^n / (y (1-y))) * U_psi(y),

    each side computed on its own path (the transform's differences on the
    left; generator differences plus one exact transform value on the
    right).  The contract is a residual of exactly 0 for every admissible
    triplet with radix-rational y; anything else exposes an evaluator bug.
    The empty sum at n = 0 is 0.
    """
    if not is_radix_rational(t.y, s.r):
        raise ValueError(f"y={t.y} is not radix-rational for r={s.r}")
    lhs = central_second_diff(s, t, s.r, "exact")
    inner = [Triplet(t.n - j, t.k % s.r ** (t.n - j), t.y) for j in range(t.n)]
    # r^j Delta_{n-j}(psi) = 2 r^n (dplus - dminus) on the stencil (n - j, ., y)
    rhs = 2 * s.r**t.n * sum((dplus - dminus for dminus, dplus in stencil_slopes(s.psi, inner, s.r)), Fraction(0))
    rhs -= Fraction(2 * s.r**t.n) / (t.y * (1 - t.y)) * u_eval_exact(s, t.y)
    return lhs - rhs


def concave_generator_constant(s: USeries) -> Fraction:
    """Steepness constant (2r/(r-1)) * psi(1/2) for a concave positive generator."""
    half = eval_exact(s.psi, Fraction(1, 2))
    return Fraction(2 * s.r, s.r - 1) * half


def steepness_transfer_constant(c: Fraction, r: int) -> Fraction:
    """Constant at which the transform of a generator satisfying the steep
    bound at c satisfies it again: c * r / (2 (r - 1)).

    Derivation: the depth-0 consequence gives psi(y) >= c y (1-y) >=
    (c/2) d(y), so m = c/2 and alpha = 0 are admissible in the sufficient
    conditions, yielding (2 m r - 0) / (2 (r - 1)).  Note m = c does NOT
    follow (y(1-y) < d(y) at y = 1/2), and the resulting stronger constant
    c r/(r - 1) is falsifiable by scan; see the transfer tests.
    """
    validate_radix(r)
    return Fraction(c) * Fraction(r, 2 * (r - 1))


class ChainReport(Record):
    """Pointwise audit of (m r/(r-1)) x(1-x) <= m * tau_r(x) <= U_psi(x)."""

    holds: bool
    checked: int
    first_failure: Optional[Fraction]


def lower_chain_check(
    s: USeries, m: Fraction, xs: Sequence[Fraction]
) -> ChainReport:
    """Exact check of the parabola / Takagi-style / transform chain at radix
    rationals, valid whenever m * d <= psi on [0, 1]."""
    m = Fraction(m)
    tau_r = USeries(s.r, Distance())
    coeff = Fraction(m * s.r, s.r - 1)
    count = 0
    for x in xs:
        x = Fraction(x)
        count += 1
        tau = u_eval_exact(tau_r, x)
        if not (coeff * x * (1 - x) <= m * tau <= u_eval_exact(s, x)):
            return ChainReport(False, count, x)
    return ChainReport(True, count, None)


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
    ((dminus, dplus),) = stencil_slopes(f, [t_idx], r)
    scale = Fraction(1, r**t_idx.n)
    x1 = left + t_idx.y * scale / 2 + t * dminus
    x2 = left + (1 + t_idx.y) * scale / 2 + t * dplus
    if parabola_eval(f, t, x1, mid) != parabola_eval(f, t, x1, left):
        raise AssertionError("crossing x1 fails its defining equality")
    if parabola_eval(f, t, x2, mid) != parabola_eval(f, t, x2, right):
        raise AssertionError("crossing x2 fails its defining equality")
    return x1, x2


class DominanceReport(Record):
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


def piecewise_from_json(doc: Union[str, dict]) -> PiecewiseQuadratic:
    """Rebuild an envelope from its JSON form (schema pathfn/1)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    pieces = [
        Piece(Fraction(p["x_lo"]), Fraction(p["x_hi"]), Fraction(p["z"]), Fraction(p["fz"])) for p in doc["pieces"]
    ]
    return PiecewiseQuadratic.from_pieces(Fraction(doc["t"]), pieces)


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


class SubdiffWitness(Record):
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


def subdiff_witnesses(pq: PiecewiseQuadratic) -> List[SubdiffWitness]:
    """One witness per piece of positive width of the envelope ``pq`` (from
    :func:`flow_grid`, whose pieces all have one), read off its integer
    vertices and breakpoints: every emitted interval certifies a
    non-differentiability point on the radix grid."""
    xs, t = pq.breakpoints(), pq.t
    out = []
    for k, lo, hi in zip(pq.ks, xs, xs[1:]):
        if hi > lo:
            z = Fraction(k, pq.R)
            out.append(SubdiffWitness(z, (lo - z) / t, (hi - z) / t))
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
