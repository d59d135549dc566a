from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfn.core.polys import (
    bernstein_coeffs,
    certify_nonneg,
    poly_add,
    poly_compose_affine,
    poly_eval,
    poly_normalize,
    poly_sup_abs,
    solve_linear_system,
)

F = Fraction


def test_poly_eval_and_derivative():
    p = (F(1), F(-2), F(3))  # 1 - 2x + 3x^2
    assert poly_eval(p, F(2)) == 1 - 4 + 12


def test_compose_affine():
    p = (F(0), F(0), F(1))  # x^2
    q = poly_compose_affine(p, F(1), F(-1))  # (1 - s)^2
    assert q == (F(1), F(-2), F(1))
    assert poly_eval(q, F(1, 4)) == F(9, 16)


def test_bernstein_endpoints_are_values():
    p = (F(1), F(2), F(-5), F(3))
    b = bernstein_coeffs(p)
    assert b[0] == poly_eval(p, F(0))
    assert b[-1] == poly_eval(p, F(1))


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=50)


@settings(max_examples=150, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=6))
def test_sup_abs_is_an_upper_bound(cs):
    """Dense sampling can never exceed the certified bound."""
    p = tuple(cs)
    bound = poly_sup_abs(p, F(0), F(1))
    for j in range(0, 65):
        assert abs(poly_eval(p, F(j, 64))) <= bound


def test_sup_abs_exact_for_quadratics():
    # vertex of 1/4 - (x - 1/2)^2 is interior; |p| max is at the endpoints
    p = (F(0), F(1), F(-1))  # x(1-x)
    assert poly_sup_abs(p, F(0), F(1)) == F(1, 4)
    assert poly_sup_abs((F(1), F(-1)), F(0), F(1)) == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(coeff, min_size=1, max_size=6), st.integers(-8, 8), st.integers(1, 8))
def test_certify_nonneg_sound(cs, a, b):
    p = tuple(cs)
    lo, hi = F(a, 8), F(a + b, 8)
    verdict = certify_nonneg(p, lo, hi)
    samples = [poly_eval(p, lo + (hi - lo) * F(j, 128)) for j in range(129)]
    if verdict is True:
        assert min(samples) >= 0
    elif verdict is not None:
        # a refutation is an exact point of [lo, hi] where p < 0
        assert isinstance(verdict, Fraction) and lo <= verdict <= hi
        assert poly_eval(p, verdict) < 0
        if len(poly_normalize(p)) <= 3:  # the exact minimiser
            assert poly_eval(p, verdict) <= min(samples)
    # None (inconclusive) is always permitted


def test_certify_nonneg_known_cases():
    assert certify_nonneg((F(0), F(0), F(1)), F(0), F(1)) is True  # x^2
    assert certify_nonneg((F(-1), F(1)), F(0), F(1)) == 0  # x - 1 < 0 inside; least at 0
    assert certify_nonneg((F(-1), F(0), F(1)), F(-2), F(2)) == 0  # x^2 - 1: the vertex
    # quintic with a boundary zero: (1-x)^5
    q = poly_compose_affine((F(0),) * 5 + (F(1),), F(1), F(-1))
    assert certify_nonneg(q, F(0), F(1)) is True
    # (x - 1/2)^4 - 10^-4 dips below 0 only on (2/5, 3/5): a Bernstein cell end
    dip = poly_add(poly_compose_affine((F(0),) * 4 + (F(1),), F(-1, 2), F(1)), (F(-1, 10**4),))
    x = certify_nonneg(dip, F(0), F(1))
    assert F(2, 5) < x < F(3, 5) and poly_eval(dip, x) < 0


def test_solve_linear_system():
    rows = [[F(2), F(1)], [F(1), F(3)]]
    sol = solve_linear_system(rows, [F(5), F(10)])
    assert sol == (F(1), F(3))
    with pytest.raises(ValueError):
        solve_linear_system([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])
