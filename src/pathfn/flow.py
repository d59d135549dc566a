"""The quadratic-penalty flow H_t f(x) = inf_z [ f(z) + (x - z)^2 / (2t) ].

Two routes compute it:

* ``flow_grid`` -- for initial data satisfying the steep concavity bound at
  constant c and times t >= 1/(2 c r^n), the infimum over all real z
  collapses onto the grid {k/R}, R = r^n; the result is the lower envelope of
  R + 1 equal-curvature parabolas, built by the classic stack algorithm
  (Felzenszwalb & Huttenlocher, *Distance Transforms of Sampled Functions*).
  The algorithm runs in integers on the vertex values f(k/R) = I_k/D, for
  any f with an exact branch every r-th entry of the table that the
  steepness scan at depths <= n reads on the grid rR: with t = p/q, the
  parabolas of vertices i < j cross at num/den with
  num = 2pR^2 (I_j - I_i) + qD (i + j)(j - i) and den = 2qDR (j - i) > 0,
  so every stack comparison is one cross-multiplication.  The result stays
  in integers (:class:`PiecewiseQuadratic`): the kept vertices and their
  values, each breakpoint derived from its two adjacent vertices when read.
  Its JSON form and its samples stream from them, and ``Fraction`` pieces
  are built only on access.  Float mode runs the same pass on the dyadic centres and errors of
  the certified vertex values (those entries, each rounded once, when f has
  an exact branch) over one common denominator; moving each vertex k within
  its error e_k moves num by at most 2pR^2 (e_i + e_j), and every comparison
  must hold for all such moves.
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
from itertools import islice, pairwise
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .core.funcs import FuncExpr, as_piecewise_poly, rounded_rows, sup_abs_bound, supports_exact
from .core.points import radix_y_set, validate_radix
from .core.polys import certify_nonneg
from .core.scalars import (_CHUNK_ROWS, _PRINTED_BITS, Approx, RationalFormatError, Record, Rows, Scalar, _down, _up,
                           check_ratios, format_ratios, format_rational)
from .differences import (MembershipQuery, _membership_scan_on, approx_table, check_mode, check_radix_scan_cap, dyadic,
                          membership_scan)
from .errors import (
    DEFAULT_TRIPLET_CAP,
    AmbiguousEnvelopeError,
    FlowConditionError,
    UnsupportedExactError,
    cap_depth,
    check_scan_cap,
)
from .grid import Table, grid_values


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
    vals[m]/D.  The breakpoints are not stored but derived when read
    (:meth:`_cuts`): piece m spans [x_m, x_(m+1)], with x_0 = 0, x_M = 1 for
    M = len(ks), and each inner x_m the crossing of the parabolas of the
    adjacent vertices m - 1 and m.

    Invariants: the vertices rise strictly along the pieces, every piece has
    positive width, and R and D are the least common denominators, so the
    fields determine the envelope and equal envelopes compare equal;
    :meth:`from_pieces` and :func:`flow_grid` check them, and the constructor
    takes its fields as given.  ``err`` bounds how far ``eval`` may sit from
    the envelope of the exact vertex values: 0 in exact mode; in float mode,
    the largest certified error of the vertex values (the envelope of values
    each within err of the exact ones is within err of the exact envelope).
    It is not part of the JSON form.
    """

    t: Fraction
    R: int
    ks: Tuple[int, ...]
    D: int
    vals: Tuple[int, ...]
    err: float = 0.0

    @classmethod
    def from_pieces(cls, t: Fraction, pieces: Sequence[Piece], err: float = 0.0) -> "PiecewiseQuadratic":
        """The envelope of ``pieces``, given in order, over the common
        denominators of their vertices and of their values.  Refuses pieces
        that do not tile [0, 1] with positive widths, or whose shared
        endpoint is not the crossing of their two vertices' parabolas."""
        if not pieces:
            raise ValueError("an envelope needs at least one piece")
        for p, nxt in pairwise(pieces):
            if p.x_hi != nxt.x_lo:
                raise ValueError(f"pieces do not share the endpoint {p.x_hi}")
        if pieces[0].x_lo != 0 or pieces[-1].x_hi != 1:
            raise ValueError(f"pieces span [{pieces[0].x_lo}, {pieces[-1].x_hi}], not [0, 1]")
        for p in pieces:
            if p.x_lo >= p.x_hi:
                raise ValueError(f"the piece on [{p.x_lo}, {p.x_hi}] has no positive width")
        R = math.lcm(*(p.z.denominator for p in pieces))
        D = math.lcm(*(p.fz.denominator for p in pieces))
        pq = cls(
            Fraction(t),
            R,
            tuple(p.z.numerator * (R // p.z.denominator) for p in pieces),
            D,
            tuple(p.fz.numerator * (D // p.fz.denominator) for p in pieces),
            err,
        )
        for (p, nxt), (n, d) in zip(pairwise(pieces), pq._cuts(1, len(pieces) - 1)):
            x = p.x_hi
            if p.z >= nxt.z:
                raise ValueError(f"the vertices z={p.z} and z={nxt.z} at the endpoint {x} are out of order")
            if n * x.denominator != x.numerator * d:
                raise ValueError(f"the endpoint {x} is not where the parabolas of z={p.z} and z={nxt.z} cross")
        return pq

    @cached_property
    def pieces(self) -> Tuple[Piece, ...]:
        """The pieces in ``Fraction``s, built on first access."""
        xs = self.breakpoints()
        R, D = self.R, self.D
        return tuple(
            Piece(lo, hi, Fraction(k, R), Fraction(v, D)) for lo, hi, k, v in zip(xs, xs[1:], self.ks, self.vals)
        )

    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, d) for n, d in self._cuts(0, len(self.ks)))

    def _cuts(self, lo: int, hi: int) -> Iterator[_Cut]:
        """The breakpoints x_lo..x_hi in order, as unreduced pairs."""
        return _crossings(self.t, self.R, self.ks, self.D, self.vals, lo, hi)

    def _index(self, x: Fraction) -> int:
        """The piece that holds x in [0, 1], the right one at a breakpoint."""
        if not (0 <= x <= 1):
            raise ValueError(f"x={x} outside [0, 1]")
        a, X = x.numerator, x.denominator

        def right_of_x(m: int) -> bool:  # rises along the cuts; only the probed ones are derived
            n, d = next(self._cuts(m, m))
            return n * X > a * d

        return max(0, bisect_right(range(len(self.ks)), False, key=right_of_x) - 1)

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
        hi, gcd = min(hi, len(self.ks)), math.gcd  # each cut reduced and formatted once
        xs = [str(n // d) if (g := gcd(n, d)) == d else f"{n // g}/{d // g}" for n, d in self._cuts(lo, hi)]
        return zip(format_ratios(self.vals[lo:hi], self.D), xs[1:], xs, format_ratios(self.ks[lo:hi], self.R))

    def as_json(self) -> dict:
        return {
            "schema": "pathfn/1",
            "t": format_rational(self.t),
            "pieces": [{"x_lo": lo, "x_hi": hi, "z": z, "fz": fz} for fz, hi, lo, z in self._rows(0, len(self.ks))],
        }

    def check_printable(self, key: str) -> None:
        """Refuse, naming ``key``, pieces that would print a numerator or
        denominator of more than ``_PRINTED_BITS`` bits: a value vals[m]/D,
        or a breakpoint, which lies in [0, 1] over a denominator that divides
        C (j - i) <= C R (:func:`_crossing_terms`)."""
        check_ratios(self.vals, self.D, key)
        if (_crossing_terms(self.t, self.R, self.D)[2] * self.R).bit_length() > _PRINTED_BITS:
            raise RationalFormatError(f"{key}: a breakpoint may have more than {_PRINTED_BITS} bits, too long to print")

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
        K, last = count - 1, len(self.ks) - 1
        cuts = self._cuts(1, last + 1)
        n, d = next(cuts)  # x_(m + 1), the right end of piece m
        ms = []
        m = 0
        for i in range(count):
            while m < last and n * K <= i * d:
                m += 1
                n, d = next(cuts)
            ms.append(m)
        return self._values(ms, range(count), K)

    def sample_rows(self, count: int) -> List[Tuple[Fraction, Fraction]]:
        """Evenly spaced (x, value) samples, equal to ``(x, eval(x))``."""
        nums, den = self._samples(count)
        return [(Fraction(i, count - 1), Fraction(v, den)) for i, v in enumerate(nums)]

    def sample_lines(self, count: int) -> Iterator[str]:
        """The "x,value" CSV lines of :meth:`sample_rows`, rationals as 'p/q'.
        The values are computed and checked printable now; the lines are
        formatted ``_CHUNK_ROWS`` at a time as they are read."""
        nums, den = self._samples(count)
        check_ratios(nums, den, "the samples")
        return (
            f"{x},{v}"
            for lo in range(0, count, _CHUNK_ROWS)
            for x, v in zip(
                format_ratios(range(lo, min(lo + _CHUNK_ROWS, count)), count - 1),
                format_ratios(nums[lo : lo + _CHUNK_ROWS], den),
            )
        )


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
    within certified bounds).  Whenever f has an exact branch, the flow reads
    its vertex values off the table of the scan at depths <= n, which it
    builds once the depth-0 scan has passed, and a float flow rounds each of
    them once; only a float flow of f without one builds a certified table
    on r^n.

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

    def require_steep(depth: int, y_depth: int, table: Optional[Table] = None) -> None:
        query = MembershipQuery(q.f, q.c, q.r, depth, radix_y_set(q.r, y_depth), mode)
        scan = membership_scan(query, cap=cap) if table is None else _membership_scan_on(query, table, cap=cap)
        if scan.verdict != "no-violation":  # a float 'inconclusive' is no evidence
            w = scan.worst_triplet
            raise FlowConditionError(
                f"no steepness evidence at c={q.c}: the steep bound is {scan.verdict} at depth <= {depth}, "
                f"worst at (n, k, y) = ({w.n}, {w.k}, {w.y})"
            )

    require_steep(*families[0])
    if mode == "float":
        require_steep(*families[1])
        vals, den, errs = dyadic(approx_table(q.f, q.r**n))
        return _envelope_exact(vals, den, q.t, errs)
    # the table of the scan at depths <= n, on r^(n+1) and built where that
    # scan would build it, holds the vertex values f(k/r^n) = I[r k] / D
    table = grid_values(q.f, q.r ** (n + 1))
    require_steep(*families[1], table)
    vals, den = table
    del table
    vals = vals[:: q.r]  # drops the rest of the scan's table
    if q.mode == "float":  # certified as approx_table(f, r^n) gives them: each entry rounded once
        vals, den, errs = dyadic([Approx(v, e) for v, e in rounded_rows(vals, den)])
        return _envelope_exact(vals, den, q.t, errs)
    g = math.gcd(den, *vals)  # divided out in place, so _envelope_exact copies nothing
    if g != 1:
        for k, v in enumerate(vals):
            vals[k] = v // g
    return _envelope_exact(vals, den // g, q.t)


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
    # the crossing of i < j is num / (C (j - i)); C is common to every
    # crossing, so comparisons use the pair (num, j - i)
    a, b, C = _crossing_terms(t, R, den)

    def crossing(i: int, j: int) -> _Cut:
        return a * (vals[j] - vals[i]) + b * (i + j) * (j - i), j - i

    stack: List[int] = [0]
    # top = (num, dj): the crossing of the two top vertices, num / (C dj), the
    # left boundary of the top vertex's cell (None while the stack holds one
    # vertex).  The boundaries rise strictly along the stack; the ones below
    # the top are recomputed when a pop reaches them, not stored.
    top: Optional[_Cut] = None
    for j in range(1, R + 1):
        num, dj = crossing(stack[-1], j)
        while top is not None:
            gap = num * top[1] - top[0] * dj  # the top vertex keeps a nonempty cell iff gap > 0
            if errs is not None:
                h, i = stack[-2], stack[-1]  # each num moves by up to a (errs of its vertices)
                if abs(gap) <= a * ((errs[i] + errs[j]) * top[1] + (errs[h] + errs[i]) * dj):
                    raise AmbiguousEnvelopeError(
                        f"breakpoint between z={Fraction(i, R)} and z={Fraction(j, R)} is ambiguous; use exact mode"
                    )
            if gap > 0:
                break
            stack.pop()
            top = crossing(stack[-2], stack[-1]) if len(stack) > 1 else None
            num, dj = crossing(stack[-1], j)
        stack.append(j)
        top = num, dj
    # the cells that meet (0, 1): those of stack[lo..hi], clamped to [0, 1]
    lo, hi = 0, len(stack) - 1
    while lo < hi and crossing(stack[lo], stack[lo + 1])[0] <= 0:
        lo += 1
    while hi > lo and (cut := crossing(stack[hi - 1], stack[hi]))[0] >= C * cut[1]:
        hi -= 1
    del stack[hi + 1:], stack[:lo]  # now the kept vertices
    kept = [vals[k] for k in stack]
    g, h = math.gcd(R, *stack), math.gcd(den, *kept)
    ks = [k // g for k in stack] if g != 1 else stack
    if h != 1:
        kept = [v // h for v in kept]
    # the stack's crossings over the unreduced R and den, which the reduced envelope must reproduce
    crossings = ((num, C * dj) for num, dj in map(crossing, stack, islice(stack, 1, None)))
    R, den = R // g, den // h
    _check_envelope_invariants(t, R, ks, den, kept, crossings)
    return PiecewiseQuadratic(t, R, tuple(ks), den, tuple(kept), err)


def _crossing_terms(t: Fraction, R: int, D: int) -> Tuple[int, int, int]:
    """(a, b, C) with the crossing of the parabolas of vertices i < j with
    values I/D, J/D at (a (J - I) + b (i + j)(j - i)) / (C (j - i)): a = 2pR^2,
    b = qD and C = 2qDR for t = p/q, all divided by gcd(a, b), which keeps
    every crossing's num and den short."""
    a, b = 2 * t.numerator * R * R, t.denominator * D
    g = math.gcd(a, b)
    return a // g, b // g, 2 * (b // g) * R


def _crossings(t: Fraction, R: int, ks: Sequence[int], D: int, vals: Sequence[int], lo: int, hi: int) -> Iterator[_Cut]:
    """The breakpoints x_lo..x_hi of the envelope with vertices ks[m]/R and
    values vals[m]/D, in order, as unreduced pairs (num, den), den > 0 for
    rising vertices: x_0 = (0, 1), then the crossing of each two adjacent
    vertices i < j with values I, J, num = a (J - I) + b (i + j)(j - i) and
    den = C (j - i) (:func:`_crossing_terms`), then x_M = (1, 1) for
    M = len(ks)."""
    if lo == 0:
        yield 0, 1
        lo = 1
    a, b, C = _crossing_terms(t, R, D)
    for m in range(lo, min(hi + 1, len(ks))):
        i, j = ks[m - 1], ks[m]
        d = j - i
        yield a * (vals[m] - vals[m - 1]) + b * (i + j) * d, C * d
    if hi == len(ks):
        yield 1, 1


def _check_envelope_invariants(
    t: Fraction, R: int, ks: Sequence[int], D: int, vals: Sequence[int], crossings: Iterable[_Cut]
) -> None:
    """The vertices rise, the pieces have positive widths, and each inner
    breakpoint that :func:`_crossings` derives from the reduced (R, ks, D,
    vals) is the stack's own crossing of the same two vertices, given in
    order by ``crossings`` as pairs over the unreduced denominators: so a
    wrong reduction of R or D fails here, as a breakpoint where adjacent
    pieces disagree would."""
    prev_n, prev_d = 0, 1
    inner = _crossings(t, R, ks, D, vals, 1, len(ks) - 1)
    for (i, j), (n, d), (N, M) in zip(pairwise(ks), inner, crossings, strict=True):
        if i >= j:
            raise AssertionError("envelope vertices out of order")
        if n * M != N * d:
            raise AssertionError("envelope breakpoint off the crossing of its vertices")
        if n * prev_d <= prev_n * d:
            raise AssertionError("envelope piece of non-positive width")
        prev_n, prev_d = n, d
    if prev_n >= prev_d:
        raise AssertionError("envelope piece of non-positive width")


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
    centres, D, errs = dyadic(approx_table(f, R))
    bounds = [v - e for v, e in zip(centres, errs)], [v + e for v, e in zip(centres, errs)]
    for x, js in zip(xqs, windows):
        a, X = x.numerator, x.denominator
        c, aR, qD = 2 * p * X * X * R * R, a * R, q * D
        pens = [(j % R, qD * (aR - j * X) ** 2) for j in js]
        lo, hi = (min(c * ends[k] + pen for k, pen in pens) for ends in bounds)
        out.append(Approx.from_bounds(_down(lo / (c * D)), _up(hi / (c * D))))
    return out
