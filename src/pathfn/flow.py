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
  every stack comparison is one cross-multiplication.  The result stays in
  integers (:class:`PiecewiseQuadratic`): its JSON form and its samples are
  read off them, and ``Fraction`` pieces are built only on access.  Float
  mode runs the same pass on the dyadic centres and errors of the vertex
  values over one common denominator;
  moving each vertex k within its error e_k moves num by at most
  2pR^2 (e_i + e_j), and every comparison must hold for all such moves.
* ``flow_bruteforce_points`` -- the independent oracle: a plain minimum over
  the radix z-grid {j/r^N}, in exact or certified float arithmetic, for many
  x on one table of f.  At x = a/X the exact objective at z_j is
  N_j / (2pX^2R^2D) with N_j = 2pX^2R^2 I_(j mod R) + qD (aR - jX)^2, so the
  minimum is taken over integers.  Float mode takes the same integer minimum
  over the lower and over the upper ends of the dyadic vertex values.

The envelope is piecewise quadratic; on each piece u(t,x) = f(z) +
(x-z)^2/(2t) solves u_t + u_x^2/2 = 0 classically, and every piece of
positive width certifies that the initial function has a wide subdifferential
at its vertex (hence is not differentiable there).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .core.funcs import FuncExpr, as_piecewise_poly, sup_abs_bound, supports_exact
from .core.points import radix_y_set, validate_radix
from .core.polys import certify_nonneg
from .core.scalars import Approx, Record, Rows, Scalar, _down, _up, format_ratios, format_rational
from .differences import MembershipQuery, approx_table, check_mode, check_radix_scan_cap, membership_scan
from .errors import (
    DEFAULT_TRIPLET_CAP,
    AmbiguousEnvelopeError,
    FlowConditionError,
    UnsupportedExactError,
    cap_depth,
    check_scan_cap,
)
from .grid import grid_values


class FlowQuery(Record):
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
        check_mode(self.mode)

    def depth(self) -> int:
        if self.n is not None:
            return self.n
        # the least n with 2ct r^n >= 1: with 2ct = N/D, the least n with N r^n >= D
        two_ct = 2 * self.c * self.t
        power, n = two_ct.numerator, 0
        while power < two_ct.denominator:
            power *= self.r
            n += 1
        return n


class Piece(Record):
    """One parabola segment of the envelope: value fz + (x - z)^2 / (2t) on
    [x_lo, x_hi]."""

    x_lo: Fraction
    x_hi: Fraction
    z: Fraction
    fz: Fraction


# A point of the envelope's x-axis as an integer pair (num, den), den > 0.
_Cut = Tuple[int, int]


class PiecewiseQuadratic(Record):
    """The flow at a fixed time on [0, 1] as an ordered run of parabola pieces,
    held in integers: piece m has its vertex at z = ks[m]/R with value
    vals[m]/D and spans [cuts[m], cuts[m + 1]], each cut a pair (num, den).

    Invariants: pieces tile [0, 1] with positive widths, adjacent pieces agree
    at shared breakpoints, and vertices sit on the radix grid.  R and D are
    the least common denominators and the cuts are reduced, so equal
    envelopes compare equal; :meth:`from_pieces` and :func:`flow_grid` build
    them so, and the constructor takes its fields as given.  ``err`` bounds
    how far ``eval`` may sit from the envelope of the exact vertex values: 0
    in exact mode; in float mode, the largest certified error of the vertex
    values (the envelope of values each within err of the exact ones is
    within err of the exact envelope).
    It is not part of the JSON form.
    """

    t: Fraction
    R: int
    ks: Tuple[int, ...]
    D: int
    vals: Tuple[int, ...]
    cuts: Tuple[_Cut, ...]
    err: float = 0.0

    @classmethod
    def from_pieces(cls, t: Fraction, pieces: Sequence[Piece], err: float = 0.0) -> "PiecewiseQuadratic":
        """The envelope of ``pieces``, given in order, over the common
        denominators of their vertices and of their values."""
        if not pieces:
            raise ValueError("an envelope needs at least one piece")
        for p, nxt in zip(pieces, pieces[1:]):
            if p.x_hi != nxt.x_lo:
                raise ValueError(f"pieces do not share the endpoint {p.x_hi}")
        R = math.lcm(*(p.z.denominator for p in pieces))
        D = math.lcm(*(p.fz.denominator for p in pieces))
        xs = [pieces[0].x_lo] + [p.x_hi for p in pieces]
        return cls(
            Fraction(t),
            R,
            tuple(p.z.numerator * (R // p.z.denominator) for p in pieces),
            D,
            tuple(p.fz.numerator * (D // p.fz.denominator) for p in pieces),
            tuple((x.numerator, x.denominator) for x in xs),
            err,
        )

    @cached_property
    def pieces(self) -> Tuple[Piece, ...]:
        """The pieces in ``Fraction``s, built on first access."""
        xs = self.breakpoints()
        R, D = self.R, self.D
        return tuple(
            Piece(lo, hi, Fraction(k, R), Fraction(v, D)) for lo, hi, k, v in zip(xs, xs[1:], self.ks, self.vals)
        )

    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self.cuts)

    def _index(self, x: Fraction) -> int:
        """The piece that holds x in [0, 1], the right one at a breakpoint."""
        if not (0 <= x <= 1):
            raise ValueError(f"x={x} outside [0, 1]")
        a, X = x.numerator, x.denominator
        # bisect reads only the sign of cut - x, which rises along the cuts
        return max(0, bisect_right(self.cuts, 0, 0, len(self.ks), key=lambda c: c[0] * X - a * c[1]) - 1)

    def _values(self, ms: Sequence[int], nums: Sequence[int], X: int) -> Tuple[List[int], int]:
        """The value of piece ms[i] at x = nums[i]/X for each i, as numerators
        over one denominator.  With t = p/q, piece m has the value
        [2pX^2R^2 vals[m] + qD (aR - ks[m] X)^2] / (2pX^2R^2 D) at x = a/X."""
        R, ks, vals = self.R, self.ks, self.vals
        c, b = 2 * self.t.numerator * X * X * R * R, self.t.denominator * self.D
        return [c * vals[m] + b * (a * R - ks[m] * X) ** 2 for m, a in zip(ms, nums)], c * self.D

    def piece_at(self, x: Fraction) -> Piece:
        return self.pieces[self._index(Fraction(x))]

    def eval(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        (num,), den = self._values([self._index(x)], [x.numerator], x.denominator)
        return Fraction(num, den)

    def _rows(self, lo: int, hi: int) -> Iterator[Tuple[str, str, str, str]]:
        """(fz, x_hi, x_lo, z) of pieces lo..hi-1 as 'p/q' strings: the
        pieces' JSON keys in sorted order."""
        xs = [str(n) if d == 1 else f"{n}/{d}" for n, d in self.cuts[lo:hi + 1]]  # reduced; each formatted once
        return zip(format_ratios(self.vals[lo:hi], self.D), xs[1:], xs, format_ratios(self.ks[lo:hi], self.R))

    def as_json(self) -> dict:
        return {
            "schema": "pathfn/1",
            "t": format_rational(self.t),
            "pieces": [{"x_lo": lo, "x_hi": hi, "z": z, "fz": fz} for fz, hi, lo, z in self._rows(0, len(self.ks))],
        }

    def as_report(self) -> dict:
        """:meth:`as_json` with the pieces as :class:`Rows`, which the report
        encoder formats from the integers a run of pieces at a time."""
        return {
            "schema": "pathfn/1",
            "t": format_rational(self.t),
            "pieces": Rows(("fz", "x_hi", "x_lo", "z"), len(self.ks), self._rows),
        }

    def _samples(self, count: int) -> Tuple[List[int], int]:
        """(nums, den): the values nums[i]/den at ``count`` evenly spaced
        x = i/(count - 1), by one forward walk along the pieces."""
        if count < 2:
            raise ValueError("need at least 2 samples")
        K, cuts = count - 1, self.cuts
        ms = []
        m, last = 0, len(self.ks) - 1
        for i in range(count):
            while m < last and cuts[m + 1][0] * K <= i * cuts[m + 1][1]:
                m += 1
            ms.append(m)
        return self._values(ms, range(count), K)

    def sample_rows(self, count: int) -> List[Tuple[Fraction, Fraction]]:
        """Evenly spaced (x, value) samples, equal to ``(x, eval(x))``."""
        nums, den = self._samples(count)
        return [(Fraction(i, count - 1), Fraction(v, den)) for i, v in enumerate(nums)]

    def sample_lines(self, count: int) -> List[str]:
        """The "x,value" CSV lines of :meth:`sample_rows`, rationals as 'p/q'."""
        nums, den = self._samples(count)
        return [f"{x},{v}" for x, v in zip(format_ratios(range(count), count - 1), format_ratios(nums, den))]


def flow_grid(q: FlowQuery, cap: int = DEFAULT_TRIPLET_CAP) -> PiecewiseQuadratic:
    """Lower envelope of the r^n + 1 grid-vertex parabolas on [0, 1].

    Preconditions: t >= 1/(2 c r^n) for the effective depth, and evidence
    that the initial function is steep at c down to that depth, on which the
    collapse onto the grid rests: a 'no-violation' verdict from two scans of
    the steep bound at c, one at depth 0 on the depth-3 y set (for f
    vanishing at the integers, the pointwise bound c y (1 - y) <= f(y)) and
    one at every depth m <= n with y in {k/r : 0 < k < r}.  Both scans run
    exactly whenever f has an exact branch, whatever the flow's mode, and in
    certified floats otherwise.  Runs in time linear in r^n; exact mode
    throughout (float mode raises if any envelope comparison is ambiguous
    within certified bounds).

    ``cap`` bounds the r^n + 1 vertices and the triplets and grid tables of
    both scans.  A request over it raises :class:`ResourceLimitError` before
    r^n is built or either scan runs, checked in that order: the vertices,
    the depth-0 scan, the scan at depths <= n.
    """
    n = q.depth()
    check_scan_cap(cap, 0, q.r ** cap_depth(n, cap))
    families = ((0, 3), (n, 1))  # (largest depth, y depth) of the two steepness scans
    for depth, y_depth in families:
        check_radix_scan_cap(cap, q.r, depth, y_depth)
    threshold = Fraction(1, 2 * q.c * q.r**n)
    if q.t < threshold:
        raise FlowConditionError(
            f"t={q.t} below the admissible threshold 1/(2*c*r^n)={threshold} at depth n={n}"
        )
    if q.mode == "exact" and not supports_exact(q.f):
        raise UnsupportedExactError("function has no exact branch; use --mode float")
    mode = "exact" if supports_exact(q.f) else "float"
    for depth, y_depth in families:
        scan = membership_scan(MembershipQuery(q.f, q.c, q.r, depth, radix_y_set(q.r, y_depth), mode), cap=cap)
        if scan.verdict != "no-violation":  # a float 'inconclusive' is no evidence
            w = scan.worst_triplet
            raise FlowConditionError(
                f"no steepness evidence at c={q.c}: the steep bound is {scan.verdict} at depth <= {depth}, "
                f"worst at (n, k, y) = ({w.n}, {w.k}, {w.y})"
            )
    if q.mode == "exact":
        return _envelope_exact(*grid_values(q.f, q.r**n), q.t)
    return _envelope_float(approx_table(q.f, q.r**n), q.t)


def _envelope_exact(vals: List[int], den: int, t: Fraction, errs: Optional[List[int]] = None) -> PiecewiseQuadratic:
    """Lower envelope on [0, 1] of the parabolas vals[k]/den + (x - k/R)^2/(2t),
    R = len(vals) - 1, by the stack algorithm in integers (see the module
    docstring for the crossing num/den).

    With ``errs``, vertex k may sit anywhere within errs[k]/den of
    vals[k]/den: every stack comparison must come out the same for all such
    values, else :class:`AmbiguousEnvelopeError`, and ``err`` is the largest
    of these errors."""
    g = math.gcd(den, *vals, *(errs or ()))  # reduced data keep the crossings and their gcds small
    if g != 1:
        vals, den = [v // g for v in vals], den // g
        errs = None if errs is None else [e // g for e in errs]
    err = max(errs) / den if errs else 0.0  # exact: each errs[k] / den is a float
    R = len(vals) - 1
    a, b = 2 * t.numerator * R * R, t.denominator * den
    # the crossing of i < j is num / (C (j - i)) with C = 2 b R; C is common to
    # every crossing, so comparisons use the pair (num, j - i)
    C = 2 * b * R

    def crossing(i: int, j: int) -> _Cut:
        return a * (vals[j] - vals[i]) + b * (i + j) * (j - i), j - i

    stack: List[int] = [0]
    # nums[m] / (C * gaps[m]) is the left boundary of stack[m + 1]'s cell; the
    # boundaries rise strictly along the stack
    nums: List[int] = []
    gaps: List[int] = []
    for j in range(1, R + 1):
        num, dj = crossing(stack[-1], j)
        while nums:
            gap = num * gaps[-1] - nums[-1] * dj  # the top vertex keeps a nonempty cell iff gap > 0
            if errs is not None:
                h, i = stack[-2], stack[-1]  # each num moves by up to a (errs of its vertices)
                if abs(gap) <= a * ((errs[i] + errs[j]) * gaps[-1] + (errs[h] + errs[i]) * dj):
                    raise AmbiguousEnvelopeError(
                        f"breakpoint between z={Fraction(i, R)} and z={Fraction(j, R)} is ambiguous; use exact mode"
                    )
            if gap > 0:
                break
            stack.pop()
            nums.pop()
            gaps.pop()
            num, dj = crossing(stack[-1], j)
        stack.append(j)
        nums.append(num)
        gaps.append(dj)
    # the cells that meet (0, 1): those of stack[lo..hi], clamped to [0, 1]
    lo, hi = 0, len(nums)
    while lo < hi and nums[lo] <= 0:
        lo += 1
    while hi > lo and nums[hi - 1] >= C * gaps[hi - 1]:
        hi -= 1
    cuts = [(0, 1)]
    for num, dj in zip(nums[lo:hi], gaps[lo:hi]):
        d = C * dj
        g = math.gcd(num, d)
        cuts.append((num // g, d // g))
    cuts.append((1, 1))
    del nums, gaps  # freed before the envelope's tuples are built: 0.4 MiB off the peak at R = 2^14
    ks = stack[lo:hi + 1]
    kept = [vals[k] for k in ks]
    g, h = math.gcd(R, *ks), math.gcd(den, *kept)
    if g != 1:
        R, ks = R // g, [k // g for k in ks]
    if h != 1:
        den, kept = den // h, [v // h for v in kept]
    pq = PiecewiseQuadratic(t, R, tuple(ks), den, tuple(kept), tuple(cuts), err)
    _check_envelope_invariants(pq)
    return pq


def _check_envelope_invariants(pq: PiecewiseQuadratic) -> None:
    """The pieces tile [0, 1] with positive widths, and adjacent pieces agree
    at their shared breakpoint x = N/M: for vertices i < j with values I, J,
    2pR^2 M (I - J) + qD (j - i)(2NR - (i + j) M) = 0 is
    2pDR^2 M times the difference of the two parabolas at x."""
    R, D, ks, vals, cuts = pq.R, pq.D, pq.ks, pq.vals, pq.cuts
    p, q = pq.t.numerator, pq.t.denominator
    if len(cuts) != len(ks) + 1 or cuts[0][0] != 0 or cuts[-1][0] != cuts[-1][1]:
        raise AssertionError("envelope does not tile [0, 1]")
    for (n, m), (n2, m2) in pairwise(cuts):
        if n * m2 >= n2 * m:
            raise AssertionError("envelope piece of non-positive width")
    for (i, j), (I, J), (n, m) in zip(pairwise(ks), pairwise(vals), cuts[1:]):
        if i >= j:
            raise AssertionError("envelope vertices out of order")
        if 2 * p * R * R * m * (I - J) + q * D * (j - i) * (2 * n * R - (i + j) * m):
            raise AssertionError("envelope discontinuous at a breakpoint")


def _envelope_float(fz: List[Approx], t: Fraction) -> PiecewiseQuadratic:
    """Float-mode envelope of the vertex values fz[k] at z = k/R: the integer
    pass on the centres, certain for every vertex value within its error (the
    combinatorial structure must never depend on rounding).  All structural
    invariants hold exactly for the centres taken as exact dyadic rationals;
    ``err`` is the largest vertex error."""
    centres, errs, den = _dyadic(fz)
    return _envelope_exact(centres, den, t, errs)


def _dyadic(fz: List[Approx]) -> Tuple[List[int], List[int], int]:
    """(centres, errors, den): fz[k] is centres[k]/den within errors[k]/den;
    centres and errors are dyadic, so the largest denominator is a common one."""
    ratios = [x.as_integer_ratio() for v in fz for x in (v.value, v.err)]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    return ints[0::2], ints[1::2], den


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
    check_mode(mode)
    return t


def flow_bruteforce_count(f: FuncExpr, t: Fraction, xs: Sequence[Union[Fraction, float]], radix_depth: int, r: int) -> int:
    """The number of objective values :func:`flow_bruteforce_points` compares
    for these arguments, counted without evaluating f."""
    t = _bruteforce_args(t, radix_depth, r, "exact")
    return sum(js.stop - js.start for js in _z_windows(f, t, [Fraction(x) for x in xs], r**radix_depth))


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
    mode reads certified values of f as dyadic centres v_j within errors e_j
    over one denominator D, as the float envelope does, takes the same
    integer minimum once with v_j - e_j and once with v_j + e_j in place of
    I_j, and returns an Approx containing the interval between the two,
    rounded outward: it contains the exact sampled minimum.
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
    centres, errs, D = _dyadic(approx_table(f, R))
    bounds = [v - e for v, e in zip(centres, errs)], [v + e for v, e in zip(centres, errs)]
    for x, js in zip(xqs, windows):
        a, X = x.numerator, x.denominator
        c, aR, qD = 2 * p * X * X * R * R, a * R, q * D
        pens = [(j % R, qD * (aR - j * X) ** 2) for j in js]
        lo, hi = (min(c * ends[k] + pen for k, pen in pens) for ends in bounds)
        out.append(Approx.from_bounds(_down(lo / (c * D)), _up(hi / (c * D))))
    return out
