import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfn.core.scalars import (
    Approx,
    RationalFormatError,
    format_rational,
    parse_rational,
    reduce_mod1,
    sin_2pi_bounds,
    sin_pi_abs_bounds,
    to_json,
)
from pathfn.core.points import Triplet
from pathfn.differences import ScanReport
from pathfn.series import SufficientReport


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(" 5/8 ") == Fraction(5, 8)


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/0", "3 / 4", None, 1.5, True])
def test_parse_rational_rejects(bad):
    with pytest.raises((RationalFormatError, TypeError)):
        raise_if = parse_rational(bad)  # noqa: F841


_SIGNS = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=40)


@st.composite
def ratio_literals(draw):
    """An ASCII integer or 'p/q', spaces around it allowed."""
    lit = draw(_SIGNS) + draw(_DIGITS)
    if draw(st.booleans()):
        lit += "/" + draw(_DIGITS.filter(lambda d: d.strip("0")))
    return draw(st.sampled_from(["", " "])) + lit


@st.composite
def decimal_literals(draw):
    """An ASCII finite decimal, with or without a point and an exponent."""
    whole, frac = draw(st.text("0123456789", max_size=40)), draw(st.text("0123456789", max_size=40))
    lit = draw(_SIGNS) + (whole if whole or frac else "0")
    if frac or draw(st.booleans()):
        lit += "." + frac
    if draw(st.booleans()):
        lit += draw(st.sampled_from("eE")) + draw(_SIGNS) + str(draw(st.integers(0, 400)))
    return lit


def _refused_once_a_digit_is_not_ascii(lit, data):
    """ARABIC-INDIC DIGIT ONE and FULLWIDTH DIGIT ONE are decimal digits, not ASCII ones."""
    i = data.draw(st.sampled_from([i for i, c in enumerate(lit) if c in "0123456789"]))
    bad = lit[:i] + data.draw(st.sampled_from("\u0661\uff11")) + lit[i + 1:]
    for decimals in (False, True):
        with pytest.raises(RationalFormatError, match="^not a rational literal: "):
            parse_rational(bad, decimals)


@settings(max_examples=300, deadline=None)
@given(ratio_literals(), st.booleans(), st.data())
def test_parse_rational_reads_ratios_as_fraction_does(lit, decimals, data):
    assert parse_rational(lit, decimals) == Fraction(lit)
    _refused_once_a_digit_is_not_ascii(lit, data)


@settings(max_examples=300, deadline=None)
@given(decimal_literals(), st.data())
def test_parse_rational_reads_decimals_as_decimal_does(lit, data):
    assert parse_rational(lit, decimals=True) == Fraction(Decimal(lit))
    _refused_once_a_digit_is_not_ascii(lit, data)


def test_parse_rational_bounds():
    assert parse_rational("1" * 4215) == int("1" * 4215)
    assert parse_rational(-(2**14000 - 1)) == -(2**14000 - 1)
    cases = [("1" * 4216, False, "its numerator or denominator has more than 4215 digits"),
             ("3/" + "0" * 4216, True, "its numerator or denominator has more than 4215 digits"),
             ("1/" + "9" * 4215, False, "its exact value has more than 14000 bits"),
             (2**14000, False, "its exact value has more than 14000 bits"),
             ("1e-14000", True, "its exact value has more than 14000 bits"),
             ("1e" + "9" * 5000, True, "its exact value has more than 14000 bits"),
             ("-Infinity", True, "not a finite number"),
             ("nan", False, "not a rational literal: 'nan'"),
             ("1_000", True, "not a rational literal: '1_000'"),
             ("\u00a01", False, "not a rational literal: '\\xa01'")]  # NO-BREAK SPACE is not ASCII
    for text, decimals, message in cases:
        with pytest.raises(RationalFormatError, match=f"^{re.escape(message)}$"):
            parse_rational(text, decimals)


def test_format_rational():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-7, 3)) == "-7/3"


def test_reduce_mod1():
    assert reduce_mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert reduce_mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert reduce_mod1(Fraction(2)) == 0


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("+-*/"), rationals), min_size=1, max_size=12), rationals)
def test_approx_ops_stay_certified(ops, start):
    """Random operation chains: the exact value always stays inside the bound."""
    exact = start
    approx = Approx.from_fraction(start)
    for op, q in ops:
        if op == "/" and q == 0:
            continue
        other = Approx.from_fraction(q)
        if op == "+":
            exact, approx = exact + q, approx + other
        elif op == "-":
            exact, approx = exact - q, approx - other
        elif op == "*":
            exact, approx = exact * q, approx * other
        else:
            try:
                candidate = approx / other
            except ZeroDivisionError:
                continue  # interval around q touches zero; rejection is the contract
            exact, approx = exact / q, candidate
        if abs(exact) > 10**12:
            return  # keep magnitudes in a meaningful float range
        assert abs(float(Fraction(approx.value) - exact)) <= approx.err


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=10**6))
def test_sin_primitives_certified(x):
    # libm on the same argument would be circular; compare against a
    # high-precision reference instead
    mpmath = pytest.importorskip("mpmath")
    ref_abs = abs(mpmath.sin(mpmath.pi * mpmath.mpf(x.numerator) / x.denominator))
    xa = Approx.from_fraction(x)
    v, e = sin_pi_abs_bounds(xa.value, xa.err)
    assert abs(float(ref_abs) - v) <= e + 1e-300
    ref2 = mpmath.sin(2 * mpmath.pi * mpmath.mpf(x.numerator) / x.denominator)
    v2, e2 = sin_2pi_bounds(xa.value, xa.err)
    assert abs(float(ref2) - v2) <= e2 + 1e-300


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(0, 1e3))
def test_approx_from_bounds_contains_both_ends(lo, width):
    hi = lo + width
    a = Approx.from_bounds(lo, hi)
    assert a.lo() <= lo and hi <= a.hi()


def test_approx_division_by_zero_interval():
    with pytest.raises(ZeroDivisionError):
        Approx(1.0, 0.0) / Approx(1e-9, 1e-6)


def test_comparisons():
    a, b = Approx(1.0, 0.1), Approx(1.3, 0.1)
    assert not a.overlaps(b)
    assert a.overlaps(Approx(1.05, 0.1))


def test_to_json_encoding_rules():
    assert to_json(Fraction(-3, 4)) == "-3/4"
    assert to_json(Approx(0.5, 0.25)) == {"value": 0.5, "error_bound": 0.25}
    assert to_json({"a": (Fraction(1, 2), [Fraction(2)]), "b": True, "c": None}) == {
        "a": ["1/2", ["2"]], "b": True, "c": None}
    assert to_json(Triplet(1, 2, Fraction(1, 3))) == {"n": 1, "k": 2, "y": "1/3"}


def test_to_json_leaves_out_only_fields_that_default_to_none():
    scan = ScanReport("no-violation", Fraction(-16, 7), Triplet(0, 0, Fraction(1, 8)), 7, "exact")
    assert to_json(scan) == {
        "verdict": "no-violation", "worst_margin": "-16/7", "worst_triplet": {"n": 0, "k": 0, "y": "1/8"},
        "scanned": 7, "mode": "exact",
    }
    floats = ScanReport("inconclusive", Approx(0.0, 1e-15), Triplet(0, 0, Fraction(1, 2)), 7, "float", 0)
    assert to_json(floats)["inconclusive_count"] == 0
    failing = SufficientReport(False, None, "sampled", Fraction(1, 256), scan)
    assert to_json(failing) == {
        "passed": False, "c": None, "lower_bound_mode": "sampled", "lower_bound_witness": "1/256",
        "semiconcavity": to_json(scan),
    }
