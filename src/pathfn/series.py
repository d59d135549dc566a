"""Routines on the series transform U_psi = sum_j r^{-j} psi(r^j x).

The transform is the expression ``USeries(r, psi)``; its certified truncated
value is ``eval_approx``.  This module adds ``u_eval_exact``, the finite sum
at j/r^N, apart from the sparse table and cycle closed form ``eval_exact``
reads; the exact scan of the decomposition of the transform's second
differences into generator differences; and the sufficient-condition checker
that yields a steepness constant c for the transform from a linear lower
bound and a semiconcavity bound on the generator.  Both read grid tables.

The scan checks the decomposition one depth at a time through U = psi +
U(r.)/r: its residual obeys R_n(k) = L_n(k) + r R_{n-1}(k mod r^(n-1)), L_n =
Delta_n(U) - Delta_n(psi) - r Delta_{n-1}(U), and R_0 is anchored by
``u_eval_exact``.  It reaches depth n only when every R_{n-1} was 0, so its
first nonzero L_n is the first nonzero R_n, with the same value, on any tables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence, Tuple, Union

from .core.funcs import (
    Distance,
    FuncExpr,
    Scale,
    Sum,
    USeries,
    as_piecewise_poly,
    eval_exact,
    supports_exact,
)
from .core.points import Triplet, is_radix_rational, radix_depth, radix_y_set
from .core.polys import certify_nonneg
from .core.scalars import Record, reduce_mod1
from .differences import ScanReport, check_radix_scan_cap, scan_family, semiconcavity_scan
from .errors import DEFAULT_TRIPLET_CAP, UnsupportedExactError, cap_depth, check_scan_cap
from .grid import grid_values, stencil_rows


def u_eval_exact(s: USeries, p: Union[Fraction, int]) -> Fraction:
    """Exact transform value at a radix-rational point j/r^N.

    Terms with index >= N vanish (the argument becomes an integer and every
    generator vanishes on the integers), so the series is the finite sum of
    the first N terms.
    """
    if not supports_exact(s.psi):
        raise UnsupportedExactError("generator has no exact branch")
    x = reduce_mod1(Fraction(p))
    depth = radix_depth(x, s.r)
    total = Fraction(0)
    cur = x
    for j in range(depth):
        total += Fraction(1, s.r**j) * eval_exact(s.psi, cur)
        cur = reduce_mod1(cur * s.r)
    return total


class IdentityReport(Record):
    """Batch verification of the second-difference decomposition."""

    checked: int
    offender: Optional[Triplet]
    residual: Fraction  # 0 unless an offender was found


def identity_residual_scan(
    s: USeries, n_max: int, y_set: Sequence[Fraction], cap: int = DEFAULT_TRIPLET_CAP
) -> IdentityReport:
    """Residuals of the decomposition over every triplet with n <= n_max and
    y in y_set, stopping at the first nonzero residual in (n, k, y) order.

    With y = a/B and c = 2B/(a(B-a)), Delta_n(f) = c r^(2n) g_f / D_f on f's
    table.  R_0 = c (g_U / D_U + B U(y)) on U's table V; deeper, L_n = c
    r^(2n-1) g_E / (D_U D_psi) on E[j] = r D_psi V[j] - r D_U P[j] - D_psi
    V[r j mod Q], written over psi's table P.  V[r j] reads V[Q] where r j is
    a nonzero multiple of Q, as a right end does; where such a j is a left
    end, the walk adds the difference back."""
    if not supports_exact(s.psi):
        raise UnsupportedExactError("generator has no exact branch")
    r = s.r
    ys, total, Q = scan_family(r, n_max, y_set, cap)
    for y in ys:
        if not is_radix_rational(y, r):
            raise ValueError(f"y={y} is not radix-rational for r={r}")
    B = Q // r**n_max
    u_vals, u_den = grid_values(s, Q)  # left side
    vals, p_den = grid_values(s.psi, Q)  # right side, then E
    for i, y in enumerate(ys):  # depth 0, against the anchor U(y)
        a, uy = y.numerator * (B // y.denominator), u_eval_exact(s, y)
        z = (a * u_vals[Q] + (B - a) * u_vals[0] - B * u_vals[a * Q // B]) * uy.denominator + B * uy.numerator * u_den
        if z:
            return IdentityReport(i + 1, Triplet(0, 0, y), Fraction(2 * B * z, a * (B - a) * u_den * uy.denominator))
    gap = p_den * (u_vals[Q] - u_vals[0])  # 0 unless U's table is corrupt
    for j in range(Q + 1):  # E[j] over P[j]
        vals[j] = r * (p_den * u_vals[j] - u_den * vals[j]) - p_den * u_vals[(r * j - 1) % Q + 1 if j else 0]
    del u_vals
    found = []  # (k, y, residual) of the first nonzero residual per y in the piece
    for n, y, a, k0, g in islice(stencil_rows(vals, r, n_max, ys), len(ys), None):  # past depth 0
        for k in range(r ** (n - 1), r**n, r ** (n - 1)) if gap else ():  # left ends read V[Q]
            if k0 <= k < k0 + len(g):
                g[k - k0] += (B - a) * gap
        i = next((i for i, gi in enumerate(g) if gi), None)
        if i is not None:
            found.append((k0 + i, y, Fraction(2 * B * r ** (2 * n - 1) * g[i], a * (B - a) * u_den * p_den)))
        if found and y == ys[-1]:  # every earlier piece had none
            k, y, residual = min(found)
            checked = ((r**n - 1) // (r - 1) + k) * len(ys) + ys.index(y) + 1
            return IdentityReport(checked, Triplet(n, k, y), residual)
    return IdentityReport(total, None, Fraction(0))


class ScanParams(Record):
    """Finite family sizes used by the sufficient-condition checker."""

    n_max: int = 4
    y_depth: int = 3
    x_depth: int = 8

    def y_set(self, r: int) -> Tuple[Fraction, ...]:
        return radix_y_set(r, self.y_depth)


class SufficientReport(Record):
    """Outcome of the two-part sufficient-condition check.

    Condition (i): m * d(x) <= psi(x) on [0, 1] -- certified exactly when the
    generator is piecewise polynomial ('exact' mode), otherwise evidence on
    the grid {j/r^x_depth} ('sampled' mode).  Condition (ii): Delta(psi) <=
    alpha over the triplet family.  On success the implied steepness
    constant is c = (2 m r - alpha) / (2 (r - 1)).
    """

    passed: bool
    c: Optional[Fraction]
    lower_bound_mode: str
    lower_bound_witness: Optional[Fraction]
    semiconcavity: ScanReport


def check_sufficient_conditions(
    s: USeries,
    m: Fraction,
    alpha: Fraction,
    scan: ScanParams = ScanParams(),
    cap: int = DEFAULT_TRIPLET_CAP,
) -> SufficientReport:
    """Check (i) m*d <= psi on [0,1] and (ii) Delta(psi) <= alpha, requiring
    2 m r > alpha; a pass yields c = (2 m r - alpha)/(2 (r - 1)).

    A pass is finite evidence, not a proof over all stencils; the report
    records whether (i) was certified exactly or only sampled.  When (i)
    fails, (ii) is reported on its depth-0 slice only, for context.

    ``cap`` bounds the scan of (ii) at depths <= n_max on the y set, and the
    r^x_depth + 1 grid points of (i).  A request over it raises
    :class:`ResourceLimitError` before the y set or the grid table of (i) is
    built, the y family checked first; the y set is built, and a y_depth
    below 1 or an x_depth below 0 refused, before (i) is sampled too.
    """
    m = Fraction(m)
    alpha = Fraction(alpha)
    if m <= 0:
        raise ValueError("m must be positive")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if 2 * m * s.r <= alpha:
        raise ValueError(f"need 2*m*r > alpha, got 2*{m}*{s.r} <= {alpha}")
    check_radix_scan_cap(cap, s.r, scan.n_max, scan.y_depth)
    check_scan_cap(cap, s.r ** cap_depth(scan.x_depth, cap) + 1, unit="sample points")

    ys = scan.y_set(s.r)
    if scan.x_depth < 0:
        raise ValueError("depth must be >= 0")
    mode, witness = _lower_bound_check(s.psi, m, s.r**scan.x_depth)
    n_max = scan.n_max if witness is None else 0
    semi = semiconcavity_scan(s.psi, alpha, s.r, n_max, ys, cap=cap)
    if witness is not None or semi.verdict != "no-violation":
        return SufficientReport(False, None, mode, witness, semi)
    c = Fraction(2 * m * s.r - alpha, 2 * (s.r - 1))
    return SufficientReport(True, c, mode, None, semi)


def _lower_bound_check(psi: FuncExpr, m: Fraction, Q: int) -> Tuple[str, Optional[Fraction]]:
    """Check psi - m*d >= 0 on [0, 1]; returns (mode, witness_or_None).

    The grid {j/Q} comes first, read off one table: the least j/Q where the
    table is negative is the witness.  Then every piece is certified: the
    first exact negative point in piece order is the witness, even after a
    piece that could not be decided.  The mode is 'sampled' only when no
    piece is refuted and some piece is undecided."""
    gap = Sum((psi, Scale(-m, Distance())))
    vals, _ = grid_values(gap, Q)  # over a positive denominator
    j = next((j for j, v in enumerate(vals) if v < 0), None)
    if j is not None:
        return "sampled", Fraction(j, Q)
    pw = as_piecewise_poly(gap)
    if pw is None:
        return "sampled", None
    mode = "exact"
    for lo, hi, coeffs in pw:
        verdict = certify_nonneg(coeffs, lo, hi)
        if verdict is None:
            mode = "sampled"
        elif verdict is not True:  # an exact point where psi - m*d < 0
            return "exact", verdict
    return mode, None
