import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfn.core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    PolySplinePeriodic,
    Scale,
    Sin2Pi,
    Sum,
    ThetaSplice,
    USeries,
    as_piecewise_poly,
    eval_approx,
    eval_exact,
    psi_zero,
    sin_cancellation,
    sup_abs_bound,
    supports_exact,
    theta_upper_poly,
)
from pathfn.core.parse import parse_func_spec, to_spec_dict, build_func
from pathfn.core.polys import certify_nonneg, poly_derivative, poly_eval
from pathfn.errors import FuncSpecError, UnsupportedExactError

F = Fraction

# the tent function as an explicit spline, for cross-checks
D_SPLINE = PolySplinePeriodic(
    knots=(F(0), F(1, 2), F(1)), pieces=((F(0), F(1)), (F(1), F(-1)))
)


# ------------------------------------------------------------------ parsing


def test_parse_takagi():
    # "takagi" is a parser alias: it builds, and serialises back as, the series of d
    for r in (2, 3):
        f = parse_func_spec(f'{{"kind":"takagi","r":{r}}}')
        assert f == USeries(r, Distance())
        assert to_spec_dict(f) == {"kind": "useries", "r": r, "psi": {"kind": "distance"}}


def test_parse_psi_zero_shape():
    doc = (
        '{"kind":"sum","terms":[{"kind":"distance"},'
        '{"kind":"scale","a":"1","child":{"kind":"distance_power","p":2}}]}'
    )
    parsed = parse_func_spec(doc)
    assert isinstance(parsed, Sum) and len(parsed.children) == 2
    # same function as a*d + b*d^2 with a = b = 1
    for j in range(0, 17):
        x = F(j, 16)
        assert eval_exact(parsed, x) == eval_exact(psi_zero(1, 1), x)


def test_parse_rejects_bad_radix():
    with pytest.raises(FuncSpecError, match="r must be"):
        parse_func_spec('{"kind":"takagi","r":1}')


def test_parse_reports_syntax_position():
    with pytest.raises(FuncSpecError, match="line 1 column"):
        parse_func_spec('{"kind": }')


def test_parse_reports_semantic_path():
    doc = '{"kind":"sum","terms":[{"kind":"distance"},{"kind":"takagi","r":"x"}]}'
    with pytest.raises(FuncSpecError, match=r"\$\.terms\[1\]"):
        parse_func_spec(doc)


def test_parse_rejects_unknown_kind_and_extra_fields():
    with pytest.raises(FuncSpecError, match="unknown kind"):
        parse_func_spec('{"kind":"nope"}')
    with pytest.raises(FuncSpecError, match="unexpected fields"):
        parse_func_spec('{"kind":"distance","bogus":1}')


def test_parse_spline_rejects_value_at_zero():
    doc = {
        "kind": "poly_spline",
        "knots": ["0", "1"],
        "pieces": [["1"]],
    }
    with pytest.raises(FuncSpecError, match="f\\(0\\)"):
        build_func(doc)


def test_parse_roundtrip():
    exprs = [
        USeries(3, Distance()),
        psi_zero(2, 3),
        USeries(2, sin_cancellation(2)),
        D_SPLINE,
        Dilate(3, ThetaSplice(2)),
    ]
    for f in exprs:
        assert build_func(to_spec_dict(f)) == f


# ------------------------------------------------------------- exact values


@pytest.mark.parametrize(
    "f,x,expected",
    [
        (Distance(), F(1, 2), F(1, 2)),
        (Distance(), F(1, 4), F(1, 4)),
        (Distance(), F(7, 8), F(1, 8)),
        # finite sums: tau2(1/4) = d(1/4) + d(1/2)/2 = 1/2
        (USeries(2, Distance()), F(1, 4), F(1, 2)),
        # 2-cycle 1/3 <-> 2/3: tau2(1/3) = (d(1/3) + d(2/3)/2) / (1 - 1/4)
        (USeries(2, Distance()), F(1, 3), F(2, 3)),
        (USeries(2, Distance()), F(1, 2), F(1, 2)),
        # 3^j/2 stays at 1/2: geometric sum (1/2) * 3/2
        (USeries(3, Distance()), F(1, 2), F(3, 4)),
        (USeries(3, Distance()), F(1, 3), F(1, 3)),
        (ThetaSplice(2), F(1, 4), F(1, 16)),  # inside the x^2 branch
        (DistancePower(2), F(1, 4), F(1, 16)),
        (psi_zero(1, 1), F(1, 2), F(3, 4)),
    ],
)
def test_eval_exact_catalog(f, x, expected):
    assert eval_exact(f, x) == expected


def test_eval_exact_periodicity_and_negatives():
    for f in (Distance(), USeries(2, Distance()), ThetaSplice(3), psi_zero(1, 2)):
        for x in (F(1, 3), F(5, 7), F(9, 11)):
            assert eval_exact(f, x) == eval_exact(f, x + 1) == eval_exact(f, x - 2)


def test_eval_exact_unsupported():
    with pytest.raises(UnsupportedExactError):
        eval_exact(AbsSin(), F(1, 2))
    with pytest.raises(UnsupportedExactError):
        eval_exact(USeries(2, Sin2Pi()), F(1, 2))
    assert not supports_exact(Sum((Distance(), AbsSin())))
    assert supports_exact(USeries(2, psi_zero(1, 1)))


def test_distance_spline_agreement():
    for j in range(0, 33):
        x = F(j, 32)
        assert eval_exact(D_SPLINE, x) == eval_exact(Distance(), x)


def test_dilate_matches_manual_composition():
    f = Dilate(3, Distance())
    for j in range(0, 28):
        x = F(j, 27)
        assert eval_exact(f, x) == eval_exact(Distance(), 3 * x)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=200), st.integers(2, 4))
def test_takagi_vs_direct_series_oracle(x, r):
    """Independent oracle: sum the series directly until the orbit repeats."""
    seen = {}
    cur = x - (x.numerator // x.denominator)
    prefix = []
    while cur not in seen:
        seen[cur] = len(prefix)
        prefix.append(min(cur, 1 - cur))
        cur = (cur * r) - int(cur * r)
    j = seen[cur]
    length = len(prefix) - j
    s_cycle = sum(F(prefix[j + m], r**m) for m in range(length))
    tail = s_cycle / (1 - F(1, r**length))
    total = tail
    for i in range(j - 1, -1, -1):
        total = prefix[i] + total / r
    assert eval_exact(USeries(r, Distance()), x) == total


def test_zero_at_integers():
    for f in (Distance(), USeries(2, Distance()), ThetaSplice(2), psi_zero(3, 4), Dilate(2, USeries(3, Distance()))):
        assert eval_exact(f, F(0)) == 0
        assert eval_exact(f, F(1)) == 0


def test_distance_symmetry():
    for j in range(1, 64):
        x = F(j, 64)
        assert eval_exact(Distance(), x) == eval_exact(Distance(), 1 - x)


# ------------------------------------------------------------- theta splice


@pytest.mark.parametrize("r", [2, 3, 5])
def test_theta_quintic_c2_junctions(r):
    """Value, slope and curvature match x^2 at 1/r and (0, 0, 2) at 1."""
    q = theta_upper_poly(r)
    a = F(1, r)
    dq = poly_derivative(q)
    ddq = poly_derivative(dq)
    assert poly_eval(q, a) == a * a
    assert poly_eval(dq, a) == 2 * a
    assert poly_eval(ddq, a) == 2
    assert poly_eval(q, F(1)) == 0
    assert poly_eval(dq, F(1)) == 0
    assert poly_eval(ddq, F(1)) == 2


def test_theta_quintic_certified_nonneg():
    for r in range(2, 65):
        assert ThetaSplice(r).r == r
        assert certify_nonneg(theta_upper_poly(r), F(1, r), F(1)) is True


def test_theta_positive_inside():
    for r in (2, 3):
        f = ThetaSplice(r)
        for j in range(1, 256):
            assert eval_exact(f, F(j, 256)) > 0


# ------------------------------------------------------------ float mode


def test_eval_approx_spec_examples():
    v = eval_approx(AbsSin(), 0.5)
    assert abs(v.value - 1.0) <= 1e-12 and v.err <= 1e-12
    v2 = eval_approx(Sin2Pi(), 0.25)
    assert abs(v2.value - 1.0) <= 1e-12 and v2.err <= 1e-12
    v3 = eval_approx(USeries(2, Distance()), F(1, 3))
    assert abs(v3.value - 2 / 3) <= v3.err <= 1e-9


def test_eval_approx_takagi_nested():
    v = eval_approx(USeries(2, USeries(2, Distance())), F(1, 2))
    # exact value is 1/2 (only the j=0 term survives)
    assert abs(v.value - 0.5) <= v.err <= 1e-9


def test_sup_abs_bounds():
    assert sup_abs_bound(Distance()) == F(1, 2)
    assert sup_abs_bound(DistancePower(3)) == F(1, 8)
    assert sup_abs_bound(AbsSin()) == 1
    assert sup_abs_bound(psi_zero(1, 1)) == F(3, 4)  # d + d^2 peaks at 1/2
    for r in (2, 3):  # the Takagi envelope (1/2) * r/(r-1)
        assert sup_abs_bound(USeries(r, Distance())) == F(r, 2 * (r - 1))
    assert sup_abs_bound(Scale(F(-3), Distance())) == F(3, 2)
    # certified: bound dominates dense samples for the quintic splice
    f = ThetaSplice(2)
    bound = sup_abs_bound(f)
    assert all(abs(eval_exact(f, F(j, 512))) <= bound for j in range(513))


def test_as_piecewise_poly_merging():
    pw = as_piecewise_poly(psi_zero(1, 1))
    assert pw is not None
    for lo, hi, cs in pw:
        for k in range(5):
            x = lo + (hi - lo) * F(k, 4)
            assert poly_eval(cs, x) == eval_exact(psi_zero(1, 1), x)
    assert as_piecewise_poly(USeries(2, Distance())) is None
    assert as_piecewise_poly(sin_cancellation(2)) is None


def test_interval_soundness_random_rationals():
    """Float bounds always contain the exact value.

    10^5 draws spread over the exact-capable builtins; series builtins get
    radix-biased denominators (their exact evaluation at arbitrary q has
    orbit length ~ord(r mod q), infeasible for large prime parts).
    """
    rng = random.Random(20240809)
    catalog = [
        Distance(),
        DistancePower(2),
        D_SPLINE,
        ThetaSplice(2),
        psi_zero(1, 1),
        USeries(2, Distance()),
        USeries(3, Distance()),
        USeries(2, psi_zero(1, 1)),
    ]
    per = 100_000 // len(catalog)
    for f in catalog:
        series_like = isinstance(f, USeries)
        r = getattr(f, "r", 2)
        for _ in range(per):
            if series_like:
                depth = rng.randint(1, 18)
                den = r**depth
                x = F(rng.randrange(den + 1), den)
            else:
                den = rng.randint(1, 10_000)
                x = F(rng.randint(0, den), den)
            exact = eval_exact(f, x)
            got = eval_approx(f, x)
            assert abs(float(F(got.value) - exact)) <= got.err
