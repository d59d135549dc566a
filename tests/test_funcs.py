import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfn.audit import psi_zero, sin_cancellation
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
    eval_exact_points,
    sup_abs_bound,
    supports_exact,
    theta_upper_poly,
)
from pathfn.core.parse import parse_func_spec, to_spec_dict, build_func
from pathfn.core.polys import certify_nonneg, poly_eval
from pathfn.core.scalars import Approx, reduce_mod1
from pathfn.errors import FuncSpecError, OrbitLimitError, UnsupportedExactError
from test_grid import random_spline

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


def test_distance_power_at_its_bound():
    assert as_piecewise_poly(DistancePower(16))[0][2] == (0,) * 16 + (1,)
    assert eval_exact(parse_func_spec('{"kind": "distance_power", "p": 16}'), F(1, 4)) == F(1, 4**16)


@pytest.mark.parametrize("p, where, wrap", [(0, "$", "{}"), (17, "$", "{}"),
                                            (10**9, "$.terms[0]", '{{"kind": "sum", "terms": [{}]}}')])
def test_distance_power_is_refused_past_its_bound(p, where, wrap):
    doc = wrap.format(f'{{"kind": "distance_power", "p": {p}}}')
    want = rf"^{re.escape(where)}: distance power must be an integer from 1 to 16, got {p}$"
    with pytest.raises(FuncSpecError, match=want):
        parse_func_spec(doc)


def test_sums_and_dilations_have_pieces_up_to_the_bound():
    # 256 pieces at most; past that the node's own rules evaluate it
    assert len(as_piecewise_poly(Dilate(128, Distance()))) == 256
    assert as_piecewise_poly(Dilate(129, Distance())) is None
    assert len(as_piecewise_poly(Sum((Dilate(128, Distance()), Distance())))) == 256
    assert as_piecewise_poly(Sum((Dilate(128, Distance()), Dilate(3, Distance())))) is None
    def d(x):  # distance to the nearest integer
        x = reduce_mod1(x)
        return min(x, 1 - x)

    xs = [F(j, 997) for j in range(0, 997, 37)] + [F(1, 3), F(5, 8)]
    for m in (128, 129, 10**12):
        f = Sum((Dilate(m, Distance()), Scale(F(1, 2), Dilate(m + 1, DistancePower(2)))))
        want = [d(m * x) + d((m + 1) * x) ** 2 / 2 for x in xs]
        assert eval_exact_points(f, xs) == want
        assert [eval_approx(f, x).value for x in xs] == pytest.approx([float(v) for v in want], abs=1e-12)


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


def test_eval_exact_points_share_orbits():
    # 1/7, 2/7, 4/7 form one cycle; 1/14 and 9/14 fall into it after one step
    xs = [F(1, 7), F(2, 7), F(1, 14), F(4, 7), F(9, 14), F(1, 2), F(15, 7)]
    for f in (USeries(2, Distance()), USeries(2, psi_zero(1, 1)), Sum((Distance(), USeries(3, ThetaSplice(2))))):
        assert eval_exact_points(f, xs) == [eval_exact(f, x) for x in xs]
    # max_orbit counts only the steps a point adds to the walks before it
    tau2 = USeries(2, Distance())
    with pytest.raises(OrbitLimitError):
        eval_exact(tau2, F(1, 14), max_orbit=3)
    pair = [F(1, 7), F(1, 14)]
    assert eval_exact_points(tau2, pair, max_orbit=3) == [eval_exact(tau2, x) for x in pair]


def test_eval_exact_points_refuse_a_later_group_before_computing_any(monkeypatch):
    # 1/7, 1/16001 (an 8000-step cycle) and 1/1000003 fall in different groups;
    # the earlier groups' values used to be computed before the last walk was
    # refused.  The grid of 1/7 is too small to be refused, so it is not walked
    # ahead; the grid of 1/16001 is, and its walk of 8000 entries passes
    import pathfn.core.funcs as funcs

    tau2 = USeries(2, Distance())
    xs = [F(1, 7), F(1, 16001), F(1, 1000003)]
    walked = []
    real_walk = USeries.walk
    monkeypatch.setattr(USeries, "walk", lambda self, Q, *a: walked.append(Q) or real_walk(self, Q, *a))
    monkeypatch.setattr(funcs, "point_values", lambda *a: pytest.fail("computed values before every walk"))
    with pytest.raises(OrbitLimitError, match=r"^series orbit of 1/1000003 exceeded 14000 steps \(radix 2\)$"):
        eval_exact_points(tau2, xs, max_orbit=14000)
    assert walked == [16001, 1000003]
    monkeypatch.undo()
    assert eval_exact_points(tau2, xs[:2], max_orbit=14000) == [eval_exact(tau2, x) for x in xs[:2]]


def orbit_oracle(f, x):
    """f(x) by a plain Fraction walk: each series follows its orbit
    x -> r x mod 1 to the first repeat and closes the cycle with S / (1 - r^-L)."""
    x %= 1
    if isinstance(f, Distance):
        return min(x, 1 - x)
    if isinstance(f, DistancePower):
        return min(x, 1 - x) ** f.power
    if isinstance(f, ThetaSplice):
        return x * x if x * f.r <= 1 else poly_eval(theta_upper_poly(f.r), x)
    if isinstance(f, PolySplinePeriodic):
        return poly_eval(f.pieces[max(i for i, t in enumerate(f.knots[:-1]) if t <= x)], x)
    if isinstance(f, Scale):
        return f.a * orbit_oracle(f.child, x)
    if isinstance(f, Sum):
        return sum(orbit_oracle(c, x) for c in f.children)
    if isinstance(f, Dilate):
        return orbit_oracle(f.child, f.m * x)
    orbit = []
    while x not in orbit:
        orbit.append(x)
        x = x * f.r % 1
    start = orbit.index(x)
    terms = [orbit_oracle(f.psi, y) / f.r**k for k, y in enumerate(orbit)]
    return sum(terms[:start]) + sum(terms[start:]) / (1 - F(1, f.r ** (len(orbit) - start)))


def random_exact_tree(rng, depth):
    spline = PolySplinePeriodic(knots=(F(0), F(1, 3), F(1)), pieces=((F(0), F(3)), (F(3, 2), F(-3, 2))))
    leaves = [Distance(), DistancePower(rng.randint(1, 3)), ThetaSplice(rng.choice([2, 3])), spline]
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)
    kind = rng.randrange(5)
    if kind == 0:
        return Scale(F(rng.randint(-5, 5), rng.randint(1, 6)), random_exact_tree(rng, depth - 1))
    if kind == 1:
        return Sum(tuple(random_exact_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))))
    if kind == 2:
        return Dilate(rng.randint(1, 6), random_exact_tree(rng, depth - 1))
    return USeries(rng.choice([2, 3]), random_exact_tree(rng, depth - 1))


def horner_oracle(pw, x):
    """The piecewise polynomial at x mod 1, by Fraction Horner on the last
    piece that starts at or before it."""
    x -= x.numerator // x.denominator
    acc = F(0)
    for c in reversed([cs for lo, _, cs in pw if lo <= x][-1]):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("seed", range(4))
def test_piecewise_points_match_a_fraction_horner_oracle(seed):
    rng = random.Random(seed)
    leaves = [random_spline(rng), random_spline(rng), DistancePower(rng.randint(1, 4)), ThetaSplice(rng.choice([2, 3]))]
    trees = leaves + [Sum((leaves[0], Scale(F(-2, 3), Dilate(3, leaves[2])))), Dilate(2, leaves[3])]
    for f in trees:
        pw = as_piecewise_poly(f)
        knots = [lo for lo, _, _ in pw] + [F(1)]
        xs = knots + [k + shift for k in knots[1:] for shift in (-1, 2)]  # on the knots, shifted by periods
        xs += [F(rng.randint(-30, 30), rng.randint(1, 40)) for _ in range(20)]
        expected = [horner_oracle(pw, x) for x in xs]
        assert eval_exact_points(f, xs) == expected, f
        assert [eval_exact(f, x) for x in xs] == expected, f
        if f in leaves:  # the leaf rule is its exact value, rounded once
            for x, v in zip(xs, expected):
                assert eval_approx(f, x) == Approx(float(v), math.ulp(float(v))), (f, x)


@pytest.mark.parametrize("seed", range(6))
def test_eval_exact_points_match_orbit_oracle(seed):
    # denominators 2^a 3^b c mix radix-smooth and coprime parts; x ranges over [-2, 3)
    rng = random.Random(seed)
    for _ in range(8):
        f = random_exact_tree(rng, 3)
        xs = []
        for _ in range(10):
            q = 2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 3) * rng.choice([1, 5, 7, 11, 13])
            xs.append(F(rng.randrange(-2 * q, 3 * q), q))
        xs += [xs[0] * 2, xs[1] * 3, xs[0]]  # points on shared orbits, and a repeat
        expected = [orbit_oracle(f, x) for x in xs]
        assert eval_exact_points(f, xs) == expected, f
        assert eval_exact_points(f, xs[::-1]) == expected[::-1], f
        assert [eval_exact(f, x) for x in xs] == expected, f


@pytest.mark.parametrize("f, xs", [
    (USeries(2, Distance()), [F(1, 14), F(3, 28)]),  # tails whose cycle point 1/7 or 3/7 is not requested
    (USeries(2, Distance()), [F(1, 13), F(5, 13), F(10, 13), F(6, 13), F(1, 13)]),  # one 12-cycle
    (USeries(2, psi_zero(1, 1)), [F(15, 28), F(1, 28), F(13, 28), F(9, 28)]),  # a tail into another's tail
    (USeries(3, USeries(2, Distance())), [F(j, 28) for j in (1, 3, 5, 14, 15, 27)]),
], ids=["tails", "one-cycle", "tail-into-tail", "nested-q28"])
def test_sparse_walks_match_orbit_oracle(f, xs):
    assert eval_exact_points(f, xs) == [orbit_oracle(f, x) for x in xs]
    assert [eval_exact(f, x) for x in xs] == [orbit_oracle(f, x) for x in xs]


def test_series_walk_keeps_only_the_requested_and_attach_points():
    # on Q = 28, 1 -> 2 -> 4 -> 8 -> 16 -> 4 attaches at the cycle point 4;
    # 15 -> 30 = 2 attaches inside that tail; 3 -> 6 -> 12 -> 24 -> 20 -> 12 at 12
    for f in (USeries(2, Distance()), USeries(2, USeries(3, ThetaSplice(2)))):
        vals, den = f.walk(28, [1, 15, 3, 2], None)()
        assert set(vals) == {0, 1, 15, 3, 2, 4, 12}
        assert {j: F(v, den) for j, v in vals.items()} == {j: orbit_oracle(f, F(j, 28)) for j in vals}
    vals, _ = USeries(3, Distance()).walk(13, [2, 6], None)()  # the cycle 2 -> 6 -> 5 -> 2: 5 is walked, not kept
    assert set(vals) == {0, 2, 6}


def test_long_cycle_points_keep_few_values():
    # 2 is a primitive root mod 13997: each point's cycle has 13 996 entries of
    # about 14 000 bits, and storing all of them took 27.5 MiB at the peak
    import tracemalloc

    q, L = 13997, 13996
    tau2 = USeries(2, Distance())
    xs = [F(1, q), F(5, q), F(77, q)]
    eval_exact(tau2, F(1, 3))  # warm the caches of pieces
    tracemalloc.start()
    try:
        got = eval_exact_points(tau2, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20

    def horner(p):
        # tau2(p/q) = sum_{k<L} 2^-k d(2^k p/q) / (1 - 2^-L), d(a/q) = min(a, q - a)/q
        h, a = 0, p
        for _ in range(L):
            h, a = 2 * h + min(a, q - a), 2 * a % q
        assert a == p
        return F(2 * h, q * (2**L - 1))

    assert got == [horner(x.numerator) for x in xs]


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


def derivative(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (F(0),)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_theta_quintic_c2_junctions(r):
    """Value, slope and curvature match x^2 at 1/r and (0, 0, 2) at 1."""
    q = theta_upper_poly(r)
    a = F(1, r)
    dq = derivative(q)
    ddq = derivative(dq)
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
