"""Exact tables f(j/Q) = I[j] / D in integers over one denominator D.

One rule per node: integer Horner on j for piecewise polynomials; term by
term for Scale and Sum; index m*j mod Q for Dilate(m); and for a series of
radix s, V[j] = P[j] + V[s*j mod Q] / s, each cycle of j -> s*j mod Q closed
with S / (1 - s^-L).  :func:`grid_values` fills the whole grid j = 0..Q;
:func:`point_values` fills only the closure of the requested j under the
node maps, which is how exact evaluation reads any rational point.
``differences.approx_table`` follows the same rules in certified floats.
For the stencil (n, k, y = a/B) on Q = B r^n_max,
Delta = 2 r^(2n) B g / (a (B - a) D) with the integer
g = a (I_R - I_M) - (B - a) (I_M - I_L).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterator, List, MutableSequence, Optional, Sequence, Tuple, TypeVar

from .core.funcs import (
    AbsSin,
    Dilate,
    FuncExpr,
    Scale,
    Sin2Pi,
    Sum,
    USeries,
    as_piecewise_poly,
)
from .errors import OrbitLimitError, UnsupportedExactError

Table = Tuple[List[int], int]
Points = Tuple[Dict[int, int], int]
T = TypeVar("T")


def grid_values(f: FuncExpr, Q: int) -> Table:
    """(I, D) with f(j/Q) = I[j] / D exactly for j = 0..Q."""
    if Q < 1:
        raise ValueError(f"grid size must be >= 1, got {Q}")
    pw = as_piecewise_poly(f)
    if pw is not None:
        return _poly_table(pw, Q)
    if isinstance(f, Scale):
        vals, den = grid_values(f.child, Q)
        return [f.a.numerator * v for v in vals], den * f.a.denominator
    if isinstance(f, Sum):
        tables = [grid_values(c, Q) for c in f.children]
        den = lcm(*(d for _, d in tables))
        scaled = [[den // d * v for v in vals] for vals, d in tables]
        return [sum(col) for col in zip(*scaled)], den
    if isinstance(f, Dilate):
        vals, den = grid_values(f.child, Q)
        return [vals[f.m * j % Q] for j in range(Q + 1)], den
    if isinstance(f, USeries):
        return _series_table(grid_values(f.psi, Q), f.r, Q)
    if isinstance(f, (AbsSin, Sin2Pi)):
        raise UnsupportedExactError(f"{type(f).__name__} has no exact branch")
    raise TypeError(f"unknown expression {f!r}")


def point_values(f: FuncExpr, Q: int, js: Sequence[int], max_orbit: Optional[int] = None) -> Points:
    """({j: I_j}, D) with f(j/Q) = I_j / D exactly for each j of ``js``
    (0 <= j < Q), read off a sparse table on the closure of ``js`` under the
    node maps.

    The whole closure is walked before any value is computed.  ``max_orbit``
    caps the entries that each requested index adds to a series node's
    closure, in request order; a series node requests its whole closure of
    its generator.  Exceeding the cap raises :class:`OrbitLimitError`.
    """
    return _walk(f, Q, js, max_orbit)()


def _walk(f: FuncExpr, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
    """Walk the index closure of ``js`` under f's node maps, charging
    ``cap``, and return the function that computes the values on it."""
    pw = as_piecewise_poly(f)
    if pw is not None:
        return lambda: _poly_points(pw, Q, js)
    if isinstance(f, Scale):
        child = _walk(f.child, Q, js, cap)

        def scale() -> Points:
            vals, den = child()
            return {j: f.a.numerator * vals[j] for j in js}, den * f.a.denominator

        return scale
    if isinstance(f, Sum):
        children = [_walk(c, Q, js, cap) for c in f.children]

        def add() -> Points:
            tables = [c() for c in children]
            den = lcm(*(d for _, d in tables))
            return {j: sum(den // d * vals[j] for vals, d in tables) for j in js}, den

        return add
    if isinstance(f, Dilate):
        image = {j: f.m * j % Q for j in js}
        child = _walk(f.child, Q, list(dict.fromkeys(image.values())), cap)

        def dilate() -> Points:
            vals, den = child()
            return {j: vals[i] for j, i in image.items()}, den

        return dilate
    if isinstance(f, USeries):
        return _series_walk(f, Q, js, cap)
    if isinstance(f, (AbsSin, Sin2Pi)):
        raise UnsupportedExactError(f"{type(f).__name__} has no exact branch")
    raise TypeError(f"unknown expression {f!r}")


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


def _poly_table(pw, Q: int) -> Table:
    den, rows = _poly_rows(pw, Q)
    vals = [0] * (Q + 1)
    for start, stop, bs in rows:
        js = range(start, stop)
        acc = [bs[-1]] * len(js)
        for b in reversed(bs[:-1]):  # Horner in j
            acc = [v * j + b for v, j in zip(acc, js)]
        vals[start:stop] = acc  # shared knots agree by continuity
    return vals, den


def _poly_points(pw, Q: int, js: Sequence[int]) -> Points:
    den, rows = _poly_rows(pw, Q)
    starts = [start for start, _, _ in rows]
    vals = {}
    for j in js:
        acc = 0
        for b in reversed(rows[bisect_right(starts, j) - 1][2]):  # the last row that starts by j
            acc = acc * j + b
        vals[j] = acc
    return vals, den


def _preperiod(s: int, Q: int) -> Tuple[int, int]:
    """(q1, K): x -> s x mod 1 permutes the multiples of q1 on the grid Q
    (its cycles), and any other j reaches them after at most K steps, the
    least K with q1 | s^K."""
    q2 = Q
    while gcd(q2, s) > 1:
        q2 //= gcd(q2, s)
    q1, K = Q // q2, 0
    while s**K % q1:
        K += 1
    return q1, K


def _close_cycles(cycles: List[List[int]], pv, s: int, K: int, vals: MutableSequence[int]) -> int:
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
    """(cycles, K, tail) of x -> s x mod 1 on the grid Q: the cycles other
    than {0}, each listed from its least entry along j -> s*j mod Q; the
    pre-period K (see :func:`_preperiod`); and an iterator over every other j
    in [1, Q) by depth, the number of steps it takes to reach a cycle, so
    that s*j mod Q comes before j."""
    q1, K = _preperiod(s, Q)
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


def _series_table(psi: Table, s: int, Q: int) -> Table:
    pv, pden = psi
    cycles, K, tail = series_layout(s, Q)
    vals = [0] * (Q + 1)
    mult = _close_cycles(cycles, pv, s, K, vals)
    for j in tail:  # depth t reads depth t - 1, a multiple of s in D
        vals[j] = pv[j] * mult + vals[s * j % Q] // s
    return vals, pden * mult


def _series_walk(f: USeries, Q: int, js: Sequence[int], cap: Optional[int]) -> Callable[[], Points]:
    s = f.r
    closure: Dict[int, int] = {0: -1}  # entry -> its place in ``order``; V[0] = 0
    order: List[int] = []
    cycles: List[List[int]] = []
    tails: List[List[int]] = []  # each walk's entries before a cycle it closed
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
        tails.append(order[start:stop])
    psi = _walk(f.psi, Q, order, cap)
    K = _preperiod(s, Q)[1]

    def series() -> Points:
        pv, pden = psi()
        vals = {0: 0}
        mult = _close_cycles(cycles, pv, s, K, vals)
        for tail in tails:
            for j in reversed(tail):  # depth d reads depth d - 1, a multiple of s in D
                vals[j] = pv[j] * mult + vals[s * j % Q] // s
        return vals, pden * mult

    return series


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
    sequence: a table, or ``range(Q + 1)`` for the indices themselves."""
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
