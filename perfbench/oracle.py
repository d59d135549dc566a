"""Takagi values computed without pathfn, for the benchmark's correctness gate.

Two closed forms for the radix-r Takagi function tau_r(x) = sum_m r^-m d(r^m x),
where d is the distance to the nearest integer (Lagarias, "The Takagi
function and its properties", 2012):

* on the grid j/r^L, the integer recursion
  W_L[j] = min(j, r^L - j) + W_{L-1}[j mod r^(L-1)]  with tau_r(j/r^L) = W_L[j] / r^L;
* at any p/q, the orbit a -> r*a mod q is eventually periodic, and a cycle of
  length L with partial sum S contributes S / (1 - r^-L).

The two routes share no code, and neither shares code with the library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List


@lru_cache(maxsize=None)
def takagi_grid(r: int, level: int) -> List[int]:
    """W[j] = r^level * tau_r(j / r^level) for j = 0 .. r^level."""
    w = [0, 0]
    for lv in range(1, level + 1):
        size, prev = r**lv, r ** (lv - 1)
        w = [min(j, size - j) + w[j % prev] for j in range(size + 1)]
    return w


@lru_cache(maxsize=None)
def takagi_value(r: int, x: Fraction) -> Fraction:
    """tau_r(x) at a rational x by the prefix sum plus the cycle sum."""
    q = x.denominator
    a = x.numerator % q
    seen = {}
    dist: List[int] = []  # q * d(r^m x) along the orbit
    while a not in seen:
        seen[a] = len(dist)
        dist.append(min(a, q - a))
        a = a * r % q
    start = seen[a]
    length = len(dist) - start
    # Horner sums: prefix P = sum_{m<start} dist[m] r^(start-1-m),
    # cycle C = sum_{m<length} dist[start+m] r^(length-1-m)
    prefix = 0
    for d in dist[:start]:
        prefix = prefix * r + d
    cycle = 0
    for d in dist[start:]:
        cycle = cycle * r + d
    # the cycle sum S / (1 - r^-length), shifted by r^-start, equals
    # r^(1-start) C / (r^length - 1); with the prefix r^(1-start) P that gives
    # tau = r^(1-start) (P (r^length - 1) + C) / (q (r^length - 1))
    rl = r**length - 1
    return Fraction(prefix * rl + cycle, q * rl) / Fraction(r) ** (start - 1)


def takagi_margin(r: int, c: Fraction, n: int, k: int, y: Fraction) -> Fraction:
    """Exact steep-bound margin Delta_{n,k}(y; tau_r) + 2 c r^n at one triplet."""
    rn = r**n
    left, mid, right = (takagi_value(r, Fraction(v) / rn) for v in (k, k + y, k + 1))
    dplus = (right - mid) * rn / (1 - y)
    dminus = (mid - left) * rn / y
    return 2 * rn * (dplus - dminus) + 2 * c * rn


def abs_sin_pi(x: Fraction) -> float:
    """|sin(pi x)|, the closed form of useries(2, |sin pi x| - |sin 2 pi x| / 2)."""
    return abs(math.sin(math.pi * float(x)))


def abs_sin_margin(r: int, c: Fraction, n: int, k: int, y: Fraction) -> float:
    """Steep-bound margin of |sin(pi x)| at one triplet, in floats."""
    rn = r**n
    left, mid, right = (abs_sin_pi(Fraction(v) / rn) for v in (k, k + y, k + 1))
    dplus = (right - mid) * rn / float(1 - y)
    dminus = (mid - left) * rn / float(y)
    return 2 * rn * (dplus - dminus) + 2 * float(c) * rn


def self_check() -> None:
    """The two Takagi routes agree on a small grid; raises AssertionError if not."""
    for r, level in ((2, 6), (3, 4)):
        w = takagi_grid(r, level)
        for j in range(0, r**level + 1, 7):
            if takagi_value(r, Fraction(j, r**level)) != Fraction(w[j], r**level):
                raise AssertionError(f"oracle routes disagree at {j}/{r}^{level}")
    if takagi_value(2, Fraction(1, 3)) != Fraction(2, 3):
        raise AssertionError("tau_2(1/3) must be 2/3")
