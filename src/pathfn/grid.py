"""Exact tables f(j/Q) = I[j] / D, j = 0..Q, in integers over one denominator D.

One rule per node: integer Horner on j for piecewise polynomials; term by
term for Scale and Sum; index m*j mod Q for Dilate(m); and for a series of
radix s, V[j] = P[j] + V[s*j mod Q] / s, each cycle of j -> s*j mod Q closed
with S / (1 - s^-L) as in the orbit walk of ``eval_exact``.  For the stencil
(n, k, y = a/B) on Q = B r^n_max, Delta = 2 r^(2n) B g / (a (B - a) D) with
the integer g = a (I_R - I_M) - (B - a) (I_M - I_L).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, List, Sequence, Tuple

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
from .errors import UnsupportedExactError

Table = Tuple[List[int], int]


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


def _poly_table(pw, Q: int) -> Table:
    den = lcm(*(c.denominator for _, _, cs in pw for c in cs))
    deg = max(len(cs) for _, _, cs in pw) - 1
    vals = [0] * (Q + 1)
    for lo, hi, cs in pw:
        # den * Q^deg * p(j/Q) = sum_i (den c_i Q^(deg-i)) j^i, by Horner in j
        bs = [int(c * den) * Q ** (deg - i) for i, c in enumerate(cs)]
        bs += [0] * (deg + 1 - len(bs))
        js = range(-(-lo.numerator * Q // lo.denominator), hi.numerator * Q // hi.denominator + 1)
        acc = [bs[deg]] * len(js)
        for b in reversed(bs[:deg]):
            acc = [v * j + b for v, j in zip(acc, js)]
        vals[js.start : js.stop] = acc  # shared knots agree by continuity
    return vals, den * Q**deg


def _series_table(psi: Table, s: int, Q: int) -> Table:
    pv, pden = psi
    # x -> s x mod 1 permutes the multiples of q1 (the cycles); any other j
    # reaches them after depth(j) <= K steps, the least K with q1 | s^K
    q2 = Q
    while gcd(q2, s) > 1:
        q2 //= gcd(q2, s)
    q1, K = Q // q2, 0
    while s**K % q1:
        K += 1
    cycles, seen = [], set()
    for j in range(q1, Q, q1):
        if j not in seen:
            cycles.append([j])
            while (j := s * j % Q) != cycles[-1][0]:
                cycles[-1].append(j)
            seen.update(cycles[-1])
    # common denominator pden * C * s^K: C clears the cycle sums S/(1 - s^-L)
    mult = lcm(*(s ** len(c) - 1 for c in cycles)) * s**K
    vals = [0] * (Q + 1)
    for c in cycles:
        L = len(c)
        v = sum(pv[j] * s ** (L - m) for m, j in enumerate(c)) * (mult // (s**L - 1))
        for j in c:
            vals[j] = v
            v = s * (v - pv[j] * mult)  # V[next] = s (V[j] - P[j])
    prev = q1
    for t in range(1, K + 1):  # depth t reads depth t - 1, a multiple of s in D
        step = q1 // gcd(q1, s**t)
        for j in range(step, Q, step):
            if j % prev:
                vals[j] = pv[j] * mult + vals[s * j % Q] // s
        prev = step
    return vals, pden * mult


def stencil_rows(
    vals: List[int], r: int, n_max: int, ys: Sequence[Fraction]
) -> Iterator[Tuple[int, Fraction, int, List[int]]]:
    """(n, y, a, g) for n = 0..n_max and each y = a/B of the sorted ``ys``,
    where ``vals`` is a table on Q = B r^n_max, B a multiple of every y
    denominator, and g[k] = a (I_R - I_M) - (B - a) (I_M - I_L) at (n, k, y)."""
    B = (len(vals) - 1) // r**n_max
    for n in range(n_max + 1):
        step = r ** (n_max - n)
        stride = B * step
        left, right = vals[0:-1:stride], vals[stride::stride]
        for y in ys:
            a = y.numerator * (B // y.denominator)
            b = B - a
            mid = vals[a * step : -1 : stride]
            yield n, y, a, [a * R + b * L - B * M for L, M, R in zip(left, mid, right)]
