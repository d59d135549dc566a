"""Routines on the series transform U_psi = sum_j r^{-j} psi(r^j x).

The transform is the expression ``USeries(r, psi)``; its certified truncated
value is ``eval_approx``.  This module adds exact finite-sum evaluation at
radix-rational points, the exact decomposition of the transform's second
differences into generator differences, and the sufficient-condition checker
that yields a steepness constant c for the transform from a linear lower
bound and a semiconcavity bound on the generator.

Duplicate routes are kept apart on purpose, each the other's oracle: the
identity scan reads its left side off the transform's grid table and its
right side off the generator's table plus ``u_eval_exact``, while
``u_delta_identity_residual`` evaluates both sides per triplet; and
``u_eval_exact`` sums the transform at j/r^N as a finite sum, without the
orbit walk and cycle closed form of ``eval_exact``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
from .core.points import (
    RadixPoint,
    Triplet,
    is_radix_rational,
    radix_depth,
    radix_x_samples,
    radix_y_set,
    triplet_count,
    validate_radix,
)
from .core.polys import certify_nonneg, poly_eval
from .core.scalars import reduce_mod1
from .differences import (
    DEFAULT_TRIPLET_CAP,
    ScanReport,
    central_second_diff,
    check_scan_cap,
    semiconcavity_scan,
)
from .errors import UnsupportedExactError
from .grid import grid_values, stencil_rows


def u_eval_exact(s: USeries, p: Union[RadixPoint, Fraction, int]) -> Fraction:
    """Exact transform value at a radix-rational point j/r^N.

    Terms with index >= N vanish (the argument becomes an integer and every
    generator vanishes on the integers), so the series is the finite sum of
    the first N terms.
    """
    if not supports_exact(s.psi):
        raise UnsupportedExactError("generator has no exact branch")
    x = p.value if isinstance(p, RadixPoint) else Fraction(p)
    x = reduce_mod1(x)
    if not is_radix_rational(x, s.r):
        raise ValueError(f"{x} is not of the form j/{s.r}^N")
    depth = radix_depth(x, s.r)
    total = Fraction(0)
    cur = x
    for j in range(depth):
        total += Fraction(1, s.r**j) * eval_exact(s.psi, cur)
        cur = reduce_mod1(cur * s.r)
    return total


def u_delta_identity_residual(s: USeries, t: Triplet) -> Fraction:
    """Left minus right side of the exact second-difference decomposition

        Delta_{n,k}(y; U_psi)
            = sum_{j=0}^{n-1} r^j Delta_{n-j,k}(y; psi)
              - (2 r^n / (y (1-y))) * U_psi(y),

    each side computed on its own path (the transform's differences on the
    left; generator differences plus one exact transform value on the
    right).  The contract is a residual of exactly 0 for every admissible
    triplet with radix-rational y; anything else exposes an evaluator bug.
    The empty sum at n = 0 is 0.
    """
    if not is_radix_rational(t.y, s.r):
        raise ValueError(f"y={t.y} is not radix-rational for r={s.r}")
    lhs = central_second_diff(s, t, s.r, "exact")
    rhs = Fraction(0)
    for j in range(t.n):
        inner = Triplet(t.n - j, t.k % s.r ** (t.n - j), t.y)
        rhs += s.r**j * central_second_diff(s.psi, inner, s.r, "exact")
    rhs -= Fraction(2 * s.r**t.n) / (t.y * (1 - t.y)) * u_eval_exact(s, t.y)
    return lhs - rhs


@dataclass(frozen=True)
class IdentityReport:
    """Batch verification of the second-difference decomposition."""

    checked: int
    offender: Optional[Triplet]
    residual: Fraction  # 0 unless an offender was found

    def as_json(self) -> dict:
        return {
            "checked": self.checked,
            "offender": None if self.offender is None else self.offender.as_json(),
            "residual": str(self.residual),
        }


def identity_residual_scan(
    s: USeries, n_max: int, y_set: Sequence[Fraction], cap: int = DEFAULT_TRIPLET_CAP
) -> IdentityReport:
    """Residuals of the decomposition over every triplet with n <= n_max and
    y in y_set, stopping at the first nonzero residual in (n, k, y) order.

    The left side reads the transform's grid table, the generator sum the
    generator's table through S(n, k) = Delta_{n,k}(psi) + r S(n-1, k mod
    r^{n-1}), and the correction term :func:`u_eval_exact`.  With y = a/B and
    c = 2B/(a(B-a)): Delta(U) = c r^(2n) g_U / D_U, S = c T / D_psi with
    T(n, k) = r^(2n) g_psi + r T(n-1, .), and the correction is c r^n B U(y),
    so each residual is tested as an integer.
    """
    if not supports_exact(s.psi):
        raise UnsupportedExactError("generator has no exact branch")
    r = s.r
    ys = sorted(set(map(Fraction, y_set)))
    for y in ys:
        if not (0 < y < 1):
            raise ValueError(f"y={y} must lie strictly inside (0, 1)")
        if not is_radix_rational(y, r):
            raise ValueError(f"y={y} is not radix-rational for r={r}")
    B = lcm(*(y.denominator for y in ys))
    total = triplet_count(r, n_max, len(ys))
    check_scan_cap(cap, total, B * r**n_max)
    u_vals, u_den = grid_values(s, B * r**n_max)  # left side
    p_vals, p_den = grid_values(s.psi, B * r**n_max)  # right side
    u_at_y = {y: u_eval_exact(s, y) for y in ys}
    sums = {y: [0] for y in ys}  # T(n - 1, .) per y; the sum is empty at n = 0
    rows = zip(stencil_rows(u_vals, r, n_max, ys), stencil_rows(p_vals, r, n_max, ys))
    found = []  # (k, y, residual) of the first nonzero residual per y at depth n
    for (n, y, a, g_u), (_, _, _, g_p) in rows:
        if n:
            sums[y] = [r ** (2 * n) * gp + r * t for gp, t in zip(g_p, sums[y] * r)]
        uy = u_at_y[y]
        # residual * D_U D_P den(U(y)) / c, for every k at this (n, y)
        cu, cp = r ** (2 * n) * p_den * uy.denominator, u_den * uy.denominator
        corr = r**n * B * uy.numerator * u_den * p_den
        z = [cu * gu - cp * t + corr for gu, t in zip(g_u, sums[y])]
        k = next((k for k, zk in enumerate(z) if zk), None)
        if k is not None:
            found.append((k, y, Fraction(2 * B * z[k], a * (B - a) * u_den * p_den * uy.denominator)))
        if found and y == ys[-1]:
            k, y, residual = min(found)
            checked = ((r**n - 1) // (r - 1) + k) * len(ys) + ys.index(y) + 1
            return IdentityReport(checked, Triplet(n, k, y), residual)
    return IdentityReport(total, None, Fraction(0))


@dataclass(frozen=True)
class ScanParams:
    """Finite family sizes used by the sufficient-condition checker."""

    n_max: int = 4
    y_depth: int = 3
    x_depth: int = 8

    def y_set(self, r: int) -> Tuple[Fraction, ...]:
        return radix_y_set(r, self.y_depth)

    def x_samples(self, r: int) -> Tuple[Fraction, ...]:
        return radix_x_samples(r, self.x_depth)


@dataclass(frozen=True)
class SufficientReport:
    """Outcome of the two-part sufficient-condition check.

    Condition (i): m * d(x) <= psi(x) on [0, 1] -- certified exactly when the
    generator is piecewise polynomial ('exact' mode), otherwise evidence on a
    finite sample ('sampled' mode).  Condition (ii): Delta(psi) <= alpha over
    the triplet family.  On success the implied steepness constant is
    c = (2 m r - alpha) / (2 (r - 1)).
    """

    passed: bool
    c: Optional[Fraction]
    lower_bound_mode: str
    lower_bound_witness: Optional[Fraction]
    semiconcavity: ScanReport

    def as_json(self) -> dict:
        return {
            "passed": self.passed,
            "c": None if self.c is None else str(self.c),
            "lower_bound_mode": self.lower_bound_mode,
            "lower_bound_witness": None
            if self.lower_bound_witness is None
            else str(self.lower_bound_witness),
            "semiconcavity": self.semiconcavity.as_json(),
        }


def check_sufficient_conditions(
    s: USeries,
    m: Fraction,
    alpha: Fraction,
    scan: ScanParams = ScanParams(),
) -> SufficientReport:
    """Check (i) m*d <= psi on [0,1] and (ii) Delta(psi) <= alpha, requiring
    2 m r > alpha; a pass yields c = (2 m r - alpha)/(2 (r - 1)).

    A pass is finite evidence, not a proof over all stencils; the report
    records whether (i) was certified exactly or only sampled.
    """
    m = Fraction(m)
    alpha = Fraction(alpha)
    if m <= 0:
        raise ValueError("m must be positive")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if 2 * m * s.r <= alpha:
        raise ValueError(f"need 2*m*r > alpha, got 2*{m}*{s.r} <= {alpha}")

    mode, witness = _lower_bound_check(s.psi, m, scan.x_samples(s.r))
    if witness is not None:
        return SufficientReport(False, None, mode, witness, _trivial_semiconcavity(s, alpha, scan))

    semi = semiconcavity_scan(s.psi, alpha, s.r, scan.n_max, scan.y_set(s.r))
    if semi.verdict != "no-violation":
        return SufficientReport(False, None, mode, None, semi)
    c = Fraction(2 * m * s.r - alpha, 2 * (s.r - 1))
    return SufficientReport(True, c, mode, None, semi)


def _trivial_semiconcavity(s: USeries, alpha: Fraction, scan: ScanParams) -> ScanReport:
    # condition (i) already failed; still report a depth-0 slice for context
    return semiconcavity_scan(s.psi, alpha, s.r, 0, scan.y_set(s.r))


def _lower_bound_check(
    psi: FuncExpr, m: Fraction, samples: Sequence[Fraction]
) -> Tuple[str, Optional[Fraction]]:
    """Check psi - m*d >= 0 on [0, 1]; returns (mode, witness_or_None)."""
    gap = Sum((psi, Scale(-m, Distance())))
    # sampling first: cheap, and failures come with a concrete witness
    for x in samples:
        if eval_exact(gap, x) < 0:
            return "sampled", Fraction(x)
    pw = as_piecewise_poly(gap)
    if pw is None:
        return "sampled", None
    for lo, hi, coeffs in pw:
        verdict = certify_nonneg(coeffs, lo, hi)
        if verdict is False:
            return "exact", _negative_witness(coeffs, lo, hi)
        if verdict is None:
            return "sampled", None
    return "exact", None


def _negative_witness(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    """A concrete point with a negative value inside [lo, hi]."""
    for denom_pow in range(1, 16):
        steps = 2**denom_pow
        for j in range(steps + 1):
            x = lo + (hi - lo) * Fraction(j, steps)
            if poly_eval(coeffs, x) < 0:
                return x
    raise AssertionError("certified-negative piece yielded no witness")


def concave_generator_constant(s: USeries) -> Fraction:
    """Steepness constant (2r/(r-1)) * psi(1/2) for a concave positive generator."""
    half = eval_exact(s.psi, Fraction(1, 2))
    return Fraction(2 * s.r, s.r - 1) * half


def steepness_transfer_constant(c: Fraction, r: int) -> Fraction:
    """Constant at which the transform of a generator satisfying the steep
    bound at c satisfies it again: c * r / (2 (r - 1)).

    Derivation: the depth-0 consequence gives psi(y) >= c y (1-y) >=
    (c/2) d(y), so m = c/2 and alpha = 0 are admissible in the sufficient
    conditions, yielding (2 m r - 0) / (2 (r - 1)).  Note m = c does NOT
    follow (y(1-y) < d(y) at y = 1/2), and the resulting stronger constant
    c r/(r - 1) is falsifiable by scan; see the transfer tests.
    """
    validate_radix(r)
    return Fraction(c) * Fraction(r, 2 * (r - 1))


@dataclass(frozen=True)
class ChainReport:
    """Pointwise audit of (m r/(r-1)) x(1-x) <= m * tau_r(x) <= U_psi(x)."""

    holds: bool
    checked: int
    first_failure: Optional[Fraction]

    def as_json(self) -> dict:
        return {
            "holds": self.holds,
            "checked": self.checked,
            "first_failure": None if self.first_failure is None else str(self.first_failure),
        }


def lower_chain_check(
    s: USeries, m: Fraction, xs: Sequence[Fraction]
) -> ChainReport:
    """Exact check of the parabola / Takagi-style / transform chain at radix
    rationals, valid whenever m * d <= psi on [0, 1]."""
    m = Fraction(m)
    tau_r = USeries(s.r, Distance())
    coeff = Fraction(m * s.r, s.r - 1)
    count = 0
    for x in xs:
        x = Fraction(x)
        count += 1
        tau = u_eval_exact(tau_r, x)
        if not (coeff * x * (1 - x) <= m * tau <= u_eval_exact(s, x)):
            return ChainReport(False, count, x)
    return ChainReport(True, count, None)
