"""Grid geometry: radix-rational points and admissible (n, k, y) triplets.

The scan grid at radix r and depth n is the cell family [k/r^n, (k+1)/r^n].
A triplet (n, k, y) names the three-point stencil k/r^n, (k+y)/r^n,
(k+1)/r^n with y strictly inside (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Tuple

from .scalars import reduce_mod1


def validate_radix(r: int) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise ValueError(f"radix must be an integer >= 2, got {r!r}")
    return r


def is_radix_rational(x: Fraction, r: int) -> bool:
    """True when x = j / r^N for some integers j, N >= 0."""
    validate_radix(r)
    q = x.denominator
    while q > 1:
        g = gcd(q, r)
        if g == 1:
            return False
        while q % g == 0:
            q //= g
    return True

def radix_depth(x: Fraction, r: int) -> int:
    """Smallest N >= 0 with x * r^N integral; raises for non radix-rationals."""
    if not is_radix_rational(x, r):
        raise ValueError(f"{x} is not of the form j/{r}^N")
    q = x.denominator
    n = 0
    power = 1
    while power % q != 0:
        power *= r
        n += 1
    return n


@dataclass(frozen=True, eq=False)
class RadixPoint:
    """A point (k + y)/r^n in [0, 1] with a known grid decomposition.

    Equality and hashing are by numeric value, so two decompositions of the
    same point compare equal.
    """

    r: int
    n: int
    k: int
    y: Fraction

    def __post_init__(self) -> None:
        validate_radix(self.r)
        if self.n < 0:
            raise ValueError("depth n must be >= 0")
        if not (0 <= self.k <= self.r**self.n - 1):
            raise ValueError(f"k={self.k} outside [0, r^n - 1]")
        y = Fraction(self.y)
        object.__setattr__(self, "y", y)
        if not (0 <= y <= 1):
            raise ValueError(f"y={y} outside [0, 1]")

    @property
    def value(self) -> Fraction:
        return Fraction(self.k + self.y, self.r**self.n)

    @classmethod
    def from_fraction(cls, x: Fraction, r: int, n: int | None = None) -> "RadixPoint":
        x = Fraction(x)
        if not (0 <= x <= 1):
            raise ValueError(f"value {x} outside [0, 1]")
        if n is None:
            n = radix_depth(x, r) if is_radix_rational(x, r) else 0
        scaled = x * r**n
        k = min(scaled.numerator // scaled.denominator, r**n - 1)
        return cls(r=r, n=n, k=k, y=scaled - k)

    def is_radix_rational(self) -> bool:
        return is_radix_rational(self.value, self.r)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadixPoint):
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)


@dataclass(frozen=True, order=True)
class Triplet:
    """Stencil indices (n, k, y); y strictly inside (0, 1).

    k is interpreted modulo r^n through periodicity, so any k >= 0 is
    accepted; admissible enumeration restricts k to [0, r^n - 1].
    """

    n: int
    k: int
    y: Fraction

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        y = Fraction(self.y)
        object.__setattr__(self, "y", y)
        if not (0 < y < 1):
            raise ValueError(f"y={y} must lie strictly inside (0, 1)")

    def points(self, r: int) -> Tuple[Fraction, Fraction, Fraction]:
        """The stencil (left, mid, right) = (k, k+y, k+1) / r^n."""
        validate_radix(r)
        scale = Fraction(1, r**self.n)
        return (self.k * scale, (self.k + self.y) * scale, (self.k + 1) * scale)

    def as_json(self) -> dict:
        return {"n": self.n, "k": self.k, "y": str(self.y)}


def triplet_count(r: int, n_max: int, num_y: int) -> int:
    validate_radix(r)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return num_y * (r ** (n_max + 1) - 1) // (r - 1)


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
    den = r**depth
    return tuple(Fraction(j, den) for j in range(0, den + 1))


__all__ = [
    "RadixPoint",
    "Triplet",
    "validate_radix",
    "is_radix_rational",
    "radix_depth",
    "triplet_count",
    "enumerate_triplets",
    "radix_y_set",
    "radix_x_samples",
    "reduce_mod1",
]
