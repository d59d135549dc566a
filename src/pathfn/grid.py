"""Exact tables f(j/Q) = I[j] / D in integers over one denominator D, and
the grid machinery that every table rule shares.

The rules themselves live on the node classes (``pathfn.core.funcs``), each
kind its own: integer Horner on j for anything with polynomial pieces; term
by term for Scale and Sum; index m*j mod Q for Dilate(m); and for a series of
radix s, V[j] = P[j] + V[s*j mod Q] / s, each cycle of j -> s*j mod Q closed
with S / (1 - s^-L).  :func:`grid_values` fills the whole grid j = 0..Q;
:func:`point_values` fills only the closure of the requested j under the
node maps, which is how exact evaluation reads any rational point.
``differences.approx_table`` follows the same rules in certified floats.
This module knows no node kind: it holds the piecewise-polynomial tables, the
orbit layout of j -> s*j mod Q with its cycle closing, and the stencil
slicer.  For the stencil (n, k, y = a/B) on Q = B r^n_max,
Delta = 2 r^(2n) B g / (a (B - a) D) with the integer
g = a (I_R - I_M) - (B - a) (I_M - I_L).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Iterator, List, MutableSequence, Optional, Sequence, Tuple, TypeVar

from .core.points import radix_part

if TYPE_CHECKING:
    from .core.funcs import FuncExpr

Table = Tuple[List[int], int]
Points = Tuple[Dict[int, int], int]
T = TypeVar("T")


def grid_values(f: FuncExpr, Q: int) -> Table:
    """(I, D) with f(j/Q) = I[j] / D exactly for j = 0..Q."""
    if Q < 1:
        raise ValueError(f"grid size must be >= 1, got {Q}")
    return f.table(Q)


def point_values(f: FuncExpr, Q: int, js: Sequence[int], max_orbit: Optional[int] = None) -> Points:
    """({j: I_j}, D) with f(j/Q) = I_j / D exactly for each j of ``js``
    (0 <= j < Q), read off a sparse table on the closure of ``js`` under the
    node maps.

    The whole closure is walked before any value is computed.  ``max_orbit``
    caps the entries that each requested index adds to a series node's
    closure, in request order; a series node requests its whole closure of
    its generator.  Exceeding the cap raises :class:`OrbitLimitError`.
    """
    return f.walk(Q, js, max_orbit)()


def _poly_rows(pw, Q: int) -> Tuple[int, List[Tuple[int, int, List[int]]]]:
    """(E, [(start, stop, bs)]) with E p(j/Q) = sum_i bs[i] j^i for the
    piece p of each row and start <= j < stop."""
    den = lcm(*(c.denominator for _, _, cs in pw for c in cs))
    deg = max(len(cs) for _, _, cs in pw) - 1
    rows = []
    for lo, hi, cs in pw:
        # den * Q^deg * p(j/Q) = sum_i (den c_i Q^(deg-i)) j^i
        bs = [c.numerator * (den // c.denominator) * Q ** (deg - i) for i, c in enumerate(cs)]
        bs += [0] * (deg + 1 - len(bs))
        rows.append((-(-lo.numerator * Q // lo.denominator), hi.numerator * Q // hi.denominator + 1, bs))
    return den * Q**deg, rows


def poly_table(pw, Q: int) -> Table:
    """(I, D) of a piecewise polynomial on [0, 1] for j = 0..Q."""
    den, rows = _poly_rows(pw, Q)
    vals = [0] * (Q + 1)
    for start, stop, bs in rows:
        js = range(start, stop)
        acc = [bs[-1]] * len(js)
        for b in reversed(bs[:-1]):  # Horner in j
            acc = [v * j + b for v, j in zip(acc, js)]
        vals[start:stop] = acc  # shared knots agree by continuity
    return vals, den


def poly_points(pw, Q: int, js: Sequence[int]) -> Points:
    """({j: I_j}, D) of a piecewise polynomial on [0, 1] for each j of ``js``."""
    den, rows = _poly_rows(pw, Q)
    starts = [start for start, _, _ in rows]
    vals = {}
    for j in js:
        acc = 0
        for b in reversed(rows[bisect_right(starts, j) - 1][2]):  # the last row that starts by j
            acc = acc * j + b
        vals[j] = acc
    return vals, den


def close_cycles(cycles: List[List[int]], pv, s: int, K: int, vals: MutableSequence[int]) -> int:
    """Write mult * V[j] for every j on the ``cycles`` of j -> s*j mod Q into
    ``vals`` and return mult = lcm(s^L - 1) s^K: it clears each cycle sum
    S / (1 - s^-L), and leaves K divisions by s for the pre-periodic entries."""
    mult = lcm(*(s ** len(c) - 1 for c in cycles)) * s**K
    for c in cycles:
        L = len(c)
        v = sum(pv[j] * s ** (L - m) for m, j in enumerate(c)) * (mult // (s**L - 1))
        for j in c:
            vals[j] = v
            v = s * (v - pv[j] * mult)  # V[next] = s (V[j] - P[j])
    return mult


def series_layout(s: int, Q: int) -> Tuple[List[List[int]], int, Iterator[int]]:
    """(cycles, K, tail) of x -> s x mod 1 on the grid Q, with (q1, K) =
    ``radix_part(Q, s)``: the cycles other than {0}, which hold the multiples
    of q1, each listed from its least entry along j -> s*j mod Q; the
    pre-period K, the most steps any other j takes to reach a cycle; and an
    iterator over every other j in [1, Q) by that number of steps (its
    depth), so that s*j mod Q comes before j."""
    q1, K = radix_part(Q, s)
    cycles, seen = [], set()
    for j in range(q1, Q, q1):
        if j not in seen:
            cycles.append([j])
            while (j := s * j % Q) != cycles[-1][0]:
                cycles[-1].append(j)
            seen.update(cycles[-1])
    return cycles, K, _tail(s, Q, q1, K)


def _tail(s: int, Q: int, q1: int, K: int) -> Iterator[int]:
    prev = q1
    for t in range(1, K + 1):
        step = q1 // gcd(q1, s**t)
        yield from (j for j in range(step, Q, step) if j % prev)
        prev = step


def scan_grid(r: int, n_max: int, ys: Sequence[Fraction]) -> int:
    """B r^n_max, B the lcm of the y denominators: the table :func:`stencil_rows` reads."""
    return lcm(*(y.denominator for y in ys)) * r**n_max


def stencil_slices(
    vals: Sequence[T], r: int, n_max: int, ys: Sequence[Fraction]
) -> Iterator[Tuple[int, Fraction, int, Sequence[T], Sequence[T], Sequence[T]]]:
    """(n, y, a, left, mid, right) for n = 0..n_max and each y = a/B of the
    sorted ``ys``, where ``vals`` is indexed by j = 0..Q on Q = B r^n_max, B a
    multiple of every y denominator, and left[k], mid[k], right[k] are the
    entries at the stencil (n, k, y).  ``vals`` may be any sliceable
    sequence: an integer table or a list of certified values."""
    B = (len(vals) - 1) // r**n_max
    for n in range(n_max + 1):
        step = r ** (n_max - n)
        stride = B * step
        left, right = vals[0:-1:stride], vals[stride::stride]
        for y in ys:
            a = y.numerator * (B // y.denominator)
            yield n, y, a, left, vals[a * step : -1 : stride], right


def stencil_rows(
    vals: List[int], r: int, n_max: int, ys: Sequence[Fraction]
) -> Iterator[Tuple[int, Fraction, int, List[int]]]:
    """(n, y, a, g) over :func:`stencil_slices` of an integer table, with
    g[k] = a (I_R - I_M) - (B - a) (I_M - I_L) at (n, k, y)."""
    B = (len(vals) - 1) // r**n_max
    for n, y, a, left, mid, right in stencil_slices(vals, r, n_max, ys):
        b = B - a
        yield n, y, a, [a * R + b * L - B * M for L, M, R in zip(left, mid, right)]
