"""Exact helpers for polynomials with rational coefficients.

Polynomials are tuples of ``Fraction`` coefficients in ascending powers of x.
Certified range bounds use the Bernstein convex-hull property: on [0,1] the
polynomial lies between the min and max of its Bernstein coefficients, and
de Casteljau subdivision tightens the hull.  Everything here is exact
rational arithmetic; "upper bound" always means a certified one.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Tuple, Union

Coeffs = Tuple[Fraction, ...]

_ZERO = Fraction(0)

# Subdivision levels of the Bernstein hull: of a sup |p| bound, and of the
# sign certificate before it gives up as undecided.
_SUP_DEPTH = 4
_NONNEG_DEPTH = 8


def poly_normalize(coeffs: Sequence[Fraction]) -> Coeffs:
    cs = tuple(Fraction(c) for c in coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs = cs[:-1]
    return cs if cs else (_ZERO,)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    n = max(len(a), len(b))
    return poly_normalize(
        tuple((a[k] if k < len(a) else _ZERO) + (b[k] if k < len(b) else _ZERO) for k in range(n))
    )


def poly_scale(a: Sequence[Fraction], s: Fraction) -> Coeffs:
    return poly_normalize(tuple(s * c for c in a))


def poly_compose_affine(coeffs: Sequence[Fraction], p: Fraction, q: Fraction) -> Coeffs:
    """Coefficients of c(p + q*s) as a polynomial in s (exact binomial expansion)."""
    n = len(coeffs)
    out = [_ZERO] * n
    # powers of (p + q s) built incrementally
    pw = [Fraction(1)]  # (p + q s)^0
    for k, c in enumerate(coeffs):
        if c != 0:
            for j, w in enumerate(pw):
                out[j] += c * w
        if k + 1 < n:
            nxt = [_ZERO] * (len(pw) + 1)
            for j, w in enumerate(pw):
                nxt[j] += w * p
                nxt[j + 1] += w * q
            pw = nxt
    return poly_normalize(out)


def bernstein_coeffs(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Bernstein coefficients of the polynomial on [0, 1].

    With monomial coefficients a_k, b_i = sum_{k<=i} C(i,k)/C(n,k) * a_k.
    """
    cs = poly_normalize(coeffs)
    n = len(cs) - 1
    return tuple(
        sum((Fraction(comb(i, k), comb(n, k)) * cs[k] for k in range(0, i + 1)), _ZERO)
        for i in range(0, n + 1)
    )


def _decasteljau_split(b: Sequence[Fraction]) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Split a Bernstein coefficient vector at the midpoint of its interval."""
    rows = [list(b)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([(prev[i] + prev[i + 1]) / 2 for i in range(len(prev) - 1)])
    left = tuple(row[0] for row in rows)
    right = tuple(rows[len(b) - 1 - i][i] for i in range(len(b)))
    return left, right


def _bernstein_leaves(b: Tuple[Fraction, ...], depth: int):
    if depth == 0:
        yield b
        return
    lo, hi = _decasteljau_split(b)
    yield from _bernstein_leaves(lo, depth - 1)
    yield from _bernstein_leaves(hi, depth - 1)


def poly_sup_abs(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """Certified upper bound on sup |p| over [lo, hi].

    Exact for degree <= 2 (endpoints plus the rational critical point);
    otherwise the max-|Bernstein-coefficient| hull bound after ``_SUP_DEPTH``
    subdivision levels.
    """
    cs = poly_normalize(coeffs)
    if hi <= lo:
        return abs(poly_eval(cs, lo))
    if len(cs) <= 3:
        return max(abs(poly_eval(cs, x)) for x in _quadratic_candidates(cs, lo, hi))
    on01 = poly_compose_affine(cs, lo, hi - lo)
    b = bernstein_coeffs(on01)
    return max(max(abs(c) for c in leaf) for leaf in _bernstein_leaves(b, _SUP_DEPTH))


def _quadratic_candidates(cs: Coeffs, lo: Fraction, hi: Fraction) -> Tuple[Fraction, ...]:
    """Where a polynomial of degree <= 2 takes its extremes on [lo, hi]: the
    ends and the vertex when it lies inside."""
    if len(cs) == 3 and cs[2] != 0:
        xc = -cs[1] / (2 * cs[2])
        if lo < xc < hi:
            return (lo, hi, xc)
    return (lo, hi)


def certify_nonneg(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Union[bool, Fraction, None]:
    """Decide p >= 0 on [lo, hi] when possible.

    Returns True (certified nonnegative), an exact point x in [lo, hi] with
    p(x) < 0, or None when ``_NONNEG_DEPTH`` subdivision levels are
    inconclusive (possible at an interior tangency to zero).  A witness may
    be 0, so test the result with ``is True`` / ``is None``.
    """
    cs = poly_normalize(coeffs)
    if hi <= lo:
        return True if poly_eval(cs, lo) >= 0 else lo
    if len(cs) <= 3:
        x = min(_quadratic_candidates(cs, lo, hi), key=lambda v: poly_eval(cs, v))
        return True if poly_eval(cs, x) >= 0 else x
    on01 = poly_compose_affine(cs, lo, hi - lo)

    def rec(b: Tuple[Fraction, ...], level: int, j: int) -> Union[bool, Fraction, None]:
        # b holds the Bernstein coefficients on the sub-interval
        # [j / 2^level, (j + 1) / 2^level] of [0, 1]
        if all(c >= 0 for c in b):
            return True
        # Bernstein end coefficients are the polynomial's values at the ends
        if b[0] < 0:
            return lo + (hi - lo) * Fraction(j, 2**level)
        if b[-1] < 0:
            return lo + (hi - lo) * Fraction(j + 1, 2**level)
        if level == _NONNEG_DEPTH:
            return None
        out: Optional[bool] = True
        for half, jj in zip(_decasteljau_split(b), (2 * j, 2 * j + 1)):
            v = rec(half, level + 1, jj)
            if v is None:
                out = None
            elif v is not True:
                return v
        return out

    return rec(bernstein_coeffs(on01), 0, 0)


def solve_linear_system(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Solve a small dense rational system by Gaussian elimination with pivoting."""
    n = len(rhs)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [vr - f * vc for vr, vc in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))
