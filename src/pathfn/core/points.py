"""Grid geometry: radix-rational points and admissible (n, k, y) triplets.

The scan grid at radix r and depth n is the cell family [k/r^n, (k+1)/r^n].
A triplet (n, k, y) names the three-point stencil k/r^n, (k+y)/r^n,
(k+1)/r^n with y strictly inside (0, 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Tuple

from .scalars import Record, _set


def validate_radix(r: int) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise ValueError(f"radix must be an integer >= 2, got {r!r}")
    return r


def radix_part(q: int, r: int) -> Tuple[int, int]:
    """(q1, K) for an integer q >= 1: q1 is the largest divisor of q whose
    prime factors all divide r, and K the least K >= 0 with q1 | r^K."""
    q1, g = 1, gcd(q, r)
    while g > 1:
        q //= g
        q1 *= g
        g = gcd(q, r)
    K, power = 0, 1
    while power % q1:
        power *= r
        K += 1
    return q1, K


def is_radix_rational(x: Fraction, r: int) -> bool:
    """True when x = j / r^N for some integers j, N >= 0."""
    validate_radix(r)
    return radix_part(x.denominator, r)[0] == x.denominator


def radix_depth(x: Fraction, r: int) -> int:
    """Smallest N >= 0 with x * r^N integral; raises for non radix-rationals."""
    validate_radix(r)
    q1, K = radix_part(x.denominator, r)
    if q1 != x.denominator:
        raise ValueError(f"{x} is not of the form j/{r}^N")
    return K


class Triplet(Record, order=True):
    """Stencil indices (n, k, y); y strictly inside (0, 1).

    k is interpreted modulo r^n through periodicity, so any k >= 0 is
    accepted; admissible enumeration restricts k to [0, r^n - 1].
    """

    n: int
    k: int
    y: Fraction

    def __init__(self, n: int, k: int, y: Fraction) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        if k < 0:
            raise ValueError("k must be >= 0")
        if type(y) is not Fraction:
            y = Fraction(y)
        if not (0 < y.numerator < y.denominator):
            raise ValueError(f"y={y} must lie strictly inside (0, 1)")
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "y", y)

    def points(self, r: int) -> Tuple[Fraction, Fraction, Fraction]:
        """The stencil (left, mid, right) = (k, k+y, k+1) / r^n."""
        validate_radix(r)
        scale = Fraction(1, r**self.n)
        return (self.k * scale, (self.k + self.y) * scale, (self.k + 1) * scale)


def triplet_count(r: int, n_max: int, num_y: int) -> int:
    validate_radix(r)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return num_y * (r ** (n_max + 1) - 1) // (r - 1)


def radix_y_set(r: int, depth: int) -> Tuple[Fraction, ...]:
    """Interior grid fractions {j/r^depth : 0 < j < r^depth}."""
    validate_radix(r)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    den = r**depth
    return tuple(Fraction(j, den) for j in range(1, den))


def radix_x_samples(r: int, depth: int) -> Tuple[Fraction, ...]:
    """Grid points {j/r^depth : 0 <= j <= r^depth} including endpoints."""
    validate_radix(r)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    den = r**depth
    return tuple(Fraction(j, den) for j in range(0, den + 1))
