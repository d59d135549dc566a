import math
import random
import time
from fractions import Fraction

import pytest

from pathfn.audit import (
    concave_generator_constant,
    lower_chain_check,
    psi_zero,
    sin_cancellation,
    steepness_transfer_constant,
    u_delta_identity_residual,
)
from pathfn.core.funcs import (
    Distance,
    DistancePower,
    Scale,
    Sin2Pi,
    Sum,
    ThetaSplice,
    USeries,
    eval_approx,
    eval_exact,
)
from pathfn.core.parse import build_func
from pathfn.core.points import Triplet, radix_x_samples, radix_y_set
from pathfn.differences import MembershipQuery, membership_scan
from pathfn.errors import ResourceLimitError, UnsupportedExactError
from pathfn.grid import grid_values
from pathfn.series import (
    ScanParams,
    _lower_bound_check,
    check_sufficient_conditions,
    identity_residual_scan,
    u_eval_exact,
)
from conftest import SPEC_DIP, SPEC_TAKAGI2
from test_grid import random_spline

F = Fraction


# ------------------------------------------------------------ exact values


def test_u_eval_exact_distance():
    s = USeries(2, Distance())
    assert u_eval_exact(s, F(1, 2)) == F(1, 2)  # single term
    assert u_eval_exact(s, F(1, 4)) == F(1, 2)  # 1/4 + (1/2)(1/2)
    assert u_eval_exact(s, F(0)) == 0
    assert u_eval_exact(s, F(1)) == 0


@pytest.mark.parametrize("r", [2, 3, 5])
def test_u_eval_exact_theta_at_first_gridpoint(r):
    # the splice equals its quadratic branch at 1/r, and all later terms hit
    # integers: the transform value is exactly 1/r^2
    s = USeries(r, ThetaSplice(r))
    assert u_eval_exact(s, F(1, r)) == F(1, r * r)


def test_u_eval_exact_matches_takagi_builtin():
    s = USeries(2, Distance())
    for j in range(0, 65):
        x = F(j, 64)
        assert u_eval_exact(s, x) == eval_exact(s, x)


def test_u_eval_exact_accepts_radix_points():
    s = USeries(2, Distance())
    assert u_eval_exact(s, F(1, 4)) == u_eval_exact(s, F(5, 4)) == F(1, 2)
    assert u_eval_exact(s, 1) == 0


def test_u_eval_exact_rejects_non_grid_points():
    s = USeries(2, Distance())
    with pytest.raises(ValueError):
        u_eval_exact(s, F(1, 3))
    with pytest.raises(UnsupportedExactError):
        u_eval_exact(USeries(2, Sin2Pi()), F(1, 2))


# ------------------------------------------------------- truncated values


def test_u_eval_approx_distance_tail():
    s = USeries(2, Distance())
    v = eval_approx(s, 0.5, series_terms=30)
    assert v.value == 0.5  # only the first term is nonzero
    # tail bound: sup d * r^(1-J)/(r-1) = 2^-30; spec allows ~1.9e-9
    assert v.err <= 1.9e-9


def test_u_eval_approx_weierstrass_style_zero():
    # sin(2 pi 2^j / 2) vanishes for every j, so the value is 0 up to libm dust
    s = USeries(2, Sin2Pi())
    v = eval_approx(s, 0.5, series_terms=40)
    assert abs(v.value) <= v.err
    assert v.err <= 2.0**-38


def test_u_eval_approx_sine_cancellation():
    # |sin(pi x)| - (1/r)|sin(pi r x)| telescopes to |sin(pi x)|
    s = USeries(2, sin_cancellation(2))
    v = eval_approx(s, 0.25, series_terms=40)
    assert abs(v.value - math.sin(math.pi / 4)) <= 1e-9
    assert v.err <= 1e-9


def test_exact_approx_coherence_random_grid_points():
    rng = random.Random(99)
    for r in (2, 3):
        s = USeries(r, Distance())
        for _ in range(5000):
            depth = rng.randint(1, 14)
            den = r**depth
            x = F(rng.randrange(den + 1), den)
            exact = u_eval_exact(s, x)
            for terms in (rng.randint(1, 8), 40):
                got = eval_approx(s, x, series_terms=terms)
                assert abs(float(F(got.value) - exact)) <= got.err


# ------------------------------------------------------------ the identity


@pytest.mark.parametrize(
    "psi,r,triplet",
    [
        (Distance(), 2, Triplet(3, 5, F(1, 4))),
        (psi_zero(1, 1), 2, Triplet(2, 1, F(1, 2))),
        (psi_zero(1, 1), 3, Triplet(2, 7, F(1, 3))),
        (ThetaSplice(2), 2, Triplet(4, 11, F(3, 8))),
        (DistancePower(2), 3, Triplet(3, 20, F(2, 9))),
    ],
)
def test_identity_residual_is_zero(psi, r, triplet):
    assert u_delta_identity_residual(USeries(r, psi), triplet) == 0


def test_identity_empty_sum_at_depth_zero():
    s = USeries(2, psi_zero(2, 1))
    for j in (1, 3, 5, 7):
        assert u_delta_identity_residual(s, Triplet(0, 0, F(j, 8))) == 0


def test_identity_scan_agrees_with_single_shots():
    s = USeries(2, psi_zero(1, 1))
    rep = identity_residual_scan(s, 4, radix_y_set(2, 2))
    assert rep.offender is None
    assert rep.checked == 31 * 3  # (2^5 - 1) cells, 3 interior y values
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(0, 4)
        t = Triplet(n, rng.randrange(2**n), F(rng.randint(1, 3), 4))
        assert u_delta_identity_residual(s, t) == 0


def test_identity_scan_flags_broken_evaluator(monkeypatch):
    import pathfn.series as series_mod

    s = USeries(2, Distance())
    real = series_mod.u_eval_exact

    def corrupted(series, p):
        return real(series, p) + F(1, 7)

    monkeypatch.setattr(series_mod, "u_eval_exact", corrupted)
    rep = series_mod.identity_residual_scan(s, 2, (F(1, 2),))
    assert rep.offender is not None and rep.residual != 0


def test_identity_scan_refuses_an_empty_y_set():
    # it used to report a vacuous pass, IdentityReport(checked=0, offender=None)
    with pytest.raises(ValueError, match="empty scan: no triplets enumerated"):
        identity_residual_scan(USeries(2, Distance()), 3, ())


@pytest.mark.parametrize(
    "scan",
    [
        lambda cap: membership_scan(MembershipQuery(USeries(3, Distance()), F(1), 3, 3 * 10**6, (F(1, 3),)), cap=cap),
        lambda cap: identity_residual_scan(USeries(3, Distance()), 3 * 10**6, (F(1, 3),), cap=cap),
    ],
    ids=["membership", "identity"],
)
def test_library_scans_refuse_a_huge_depth_before_building_its_power(scan):
    # 3^3000000 took 1.25 s (membership) and 1.9 s (identity) to build and count
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="triplets exceeds cap 100"):
        scan(100)
    assert time.perf_counter() - t0 < 0.5


# ------------------------------------------------- sufficient conditions


def test_sufficient_conditions_distance():
    rep = check_sufficient_conditions(USeries(2, Distance()), m=F(1), alpha=F(0))
    assert rep.passed and rep.c == 2
    assert rep.lower_bound_mode == "exact"


def test_sufficient_conditions_psi_zero():
    rep = check_sufficient_conditions(USeries(2, psi_zero(1, 1)), m=F(1), alpha=F(2))
    assert rep.passed and rep.c == 1


def test_sufficient_conditions_theta_fails_near_zero():
    # theta(x) = x^2 < m*x for small x, whatever m > 0
    rep = check_sufficient_conditions(USeries(2, ThetaSplice(2)), m=F(1), alpha=F(2))
    assert not rep.passed
    assert rep.lower_bound_witness is not None and rep.lower_bound_witness < F(1, 100)
    rep2 = check_sufficient_conditions(USeries(2, ThetaSplice(2)), m=F(1, 50), alpha=F(1, 50))
    assert not rep2.passed


def test_sufficient_conditions_refute_a_piece_after_an_undecided_one():
    # the first piece of psi - d is not decided; the second has the exact
    # negative point 1199/2000, which no sample reaches
    rep = check_sufficient_conditions(USeries(2, build_func(SPEC_DIP)), m=F(1), alpha=F(3))
    assert not rep.passed and rep.c is None
    assert rep.lower_bound_mode == "exact" and rep.lower_bound_witness == F(1199, 2000)
    assert eval_exact(build_func(SPEC_DIP), F(1199, 2000)) < eval_exact(Distance(), F(1199, 2000))
    assert rep.semiconcavity.scanned == 7  # (ii) on its depth-0 slice only


def test_sufficient_conditions_refuse_their_samples_before_building_them(monkeypatch):
    import pathfn.series

    def guard(f, Q):
        raise AssertionError(f"built a table of {Q} + 1 sample points before the cap check")

    monkeypatch.setattr(pathfn.series, "grid_values", guard)
    s = USeries(2, Distance())
    with pytest.raises(ResourceLimitError, match=f"scan of {2**18 + 1} sample points exceeds cap 1000"):
        check_sufficient_conditions(s, F(1), F(0), ScanParams(x_depth=18), cap=1000)
    # the library default refuses 2^24 + 1 samples, and a huge depth without its power
    for depth in (24, 10**7):
        with pytest.raises(ResourceLimitError, match="sample points exceeds cap 10000000"):
            check_sufficient_conditions(s, F(1), F(0), ScanParams(x_depth=depth))


@pytest.mark.parametrize(
    "m, triplets", [(F(1), 31 * (2**20 - 1)), (F(2), 31 * (2**20 - 1))], ids=["scan", "condition-i-fails"]
)
def test_sufficient_conditions_refuse_their_y_set_before_building_it(monkeypatch, m, triplets):
    # both paths scan y in radix_y_set(2, 20): the full scan at depths <= 4, or
    # the depth-0 slice after m d <= psi fails; the family at depths <= 4 is
    # refused before either runs.  Building the 2^20 - 1 values first took
    # 23.6 s at y depth 20
    import pathfn.series

    def guard(r, depth):
        raise AssertionError(f"built {r}^{depth} y values before the cap check")

    monkeypatch.setattr(pathfn.series, "radix_y_set", guard)
    with pytest.raises(ResourceLimitError, match=f"scan of {triplets} triplets exceeds cap 1000"):
        check_sufficient_conditions(USeries(2, Distance()), m, F(0), ScanParams(y_depth=20, x_depth=2), cap=1000)


@pytest.mark.parametrize(
    "params, error, message",
    [
        (ScanParams(y_depth=20, x_depth=16), ResourceLimitError, f"scan of {31 * (2**20 - 1)} triplets exceeds cap"),
        (ScanParams(y_depth=0, x_depth=16), ValueError, "depth must be >= 1"),
        (ScanParams(x_depth=-1), ValueError, "depth must be >= 0"),
    ],
    ids=["cap", "empty-y-set", "negative-x-depth"],
)
def test_sufficient_conditions_refuse_before_sampling_condition_i(monkeypatch, params, error, message):
    # the 2^16 + 1 samples of m d <= psi took 0.89 s of exact evaluations
    # before the 31 (2^20 - 1) triplets of condition (ii), or a y depth of 0,
    # were refused
    import pathfn.series

    monkeypatch.setattr(pathfn.series, "grid_values", lambda *a: pytest.fail("sampled condition (i) first"))
    with pytest.raises(error, match=message):
        check_sufficient_conditions(USeries(2, Distance()), F(1), F(0), params, cap=10**6)


def test_sufficient_conditions_precondition():
    with pytest.raises(ValueError, match="2\\*m\\*r > alpha"):
        check_sufficient_conditions(USeries(2, Distance()), m=F(1), alpha=F(4))


def test_lower_chain():
    for r in (2, 3):
        s = USeries(r, psi_zero(1, 1))
        rep = lower_chain_check(s, F(1), radix_x_samples(r, 4))
        assert rep.holds, rep
    # the pure Takagi chain includes its own quadratic lower bound
    s2 = USeries(2, Distance())
    assert lower_chain_check(s2, F(1), radix_x_samples(2, 6)).holds


def test_lower_chain_reports_its_first_failure():
    # m = 2 breaks (m r/(r-1)) x(1-x) <= m tau_2(x) <= tau_2(x) at the first x > 0
    rep = lower_chain_check(USeries(2, Distance()), F(2), radix_x_samples(2, 4))
    assert (rep.holds, rep.checked, rep.first_failure) == (False, 2, F(1, 16))


@pytest.mark.parametrize("r", range(2, 10))
def test_takagi_lies_above_its_parabola(r):
    # tau_r >= (r/(r-1)) x(1-x) for every x: the left half of the chain, which
    # is why a passing bounds run needs no chain check; on the radix grid and
    # on a grid of cycles
    for Q in (r ** max(1, int(math.log(4096, r))), 1000):
        vals, den = grid_values(USeries(r, Distance()), Q)
        assert all((r - 1) * Q * Q * v >= r * den * j * (Q - j) for j, v in enumerate(vals)), (r, Q)


def _first_negative_sample(psi, m, r, depth):
    """Condition (i)'s sampling as one eval_exact per point j/r^depth, in order."""
    gap = Sum((psi, Scale(-m, Distance())))
    return next((x for x in radix_x_samples(r, depth) if eval_exact(gap, x) < 0), None)


@pytest.mark.parametrize("r", [2, 3])
def test_condition_i_table_witness_matches_per_point_evaluation(r):
    rng = random.Random(r)
    cases = [(random_spline(rng), F(rng.randint(1, 6), rng.randint(1, 6)), rng.randint(0, 8 - 2 * r)) for _ in range(40)]
    cases += [(build_func(SPEC_TAKAGI2), m, depth) for m in (F(1), F(3, 2), F(2), F(5, 2)) for depth in (0, 1, 3, 5)]
    found = 0
    for psi, m, depth in cases:
        want = _first_negative_sample(psi, m, r, depth)
        mode, witness = _lower_bound_check(psi, m, r**depth)
        if want is not None:
            assert (mode, witness) == ("sampled", want), (psi, m, depth)
            found += 1
        else:  # no grid witness; the piece certificates may still find one
            assert mode == "exact" or witness is None, (psi, m, depth)
    assert found >= 20


# ------------------------------------------------ derived-constant shortcuts


def test_concave_generator_constant_matches_membership():
    s = USeries(2, Distance())
    c = concave_generator_constant(s)
    assert c == 2
    q = MembershipQuery(f=USeries(2, Distance()), c=c, r=2, n_max=5, y_set=radix_y_set(2, 4))
    assert membership_scan(q).verdict == "no-violation"


def test_transfer_constant_corrected_passes():
    # tau2 satisfies the steep bound at c=2; its transform passes at
    # c' = c*r/(2(r-1)) = 2 (fundamental bound is tight at y=1/2)
    c_prime = steepness_transfer_constant(F(2), 2)
    assert c_prime == 2
    q = MembershipQuery(f=USeries(2, USeries(2, Distance())), c=c_prime, r=2, n_max=4, y_set=radix_y_set(2, 4))
    rep = membership_scan(q)
    assert rep.verdict == "no-violation" and rep.worst_margin == 0


def test_transfer_constant_uncorrected_is_false():
    """The naive transfer c*r/(r-1) = 4 fails: U_{tau2}(1/2) = 1/2 < 4 * (1/4).

    Pinned falsification: the scanner must find the positive margin exactly.
    """
    q = MembershipQuery(f=USeries(2, USeries(2, Distance())), c=F(4), r=2, n_max=2, y_set=radix_y_set(2, 2))
    rep = membership_scan(q)
    assert rep.verdict == "violated"
    assert rep.worst_margin == 4 and rep.worst_triplet == Triplet(0, 0, F(1, 2))


def test_scan_params_sets():
    p = ScanParams(n_max=2, y_depth=2, x_depth=3)
    assert len(p.y_set(2)) == 3
