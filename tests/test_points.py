import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfn.audit import enumerate_triplets
from pathfn.core.points import (
    Triplet,
    is_radix_rational,
    radix_depth,
    radix_part,
    radix_y_set,
    triplet_count,
    validate_radix,
)


def test_validate_radix():
    assert validate_radix(2) == 2
    for bad in (1, 0, -3, 2.0, True):
        with pytest.raises(ValueError):
            validate_radix(bad)


@pytest.mark.parametrize(
    "x,r,expect",
    [
        (Fraction(3, 8), 2, True),
        (Fraction(1, 3), 2, False),
        (Fraction(5, 9), 3, True),
        (Fraction(1, 6), 6, True),
        (Fraction(1, 6), 2, False),
        (Fraction(7, 12), 6, True),  # 12 = 6^2/3, divides 36
        (Fraction(0), 5, True),
    ],
)
def test_is_radix_rational(x, r, expect):
    assert is_radix_rational(x, r) is expect


def test_radix_depth():
    assert radix_depth(Fraction(3, 8), 2) == 3
    assert radix_depth(Fraction(1, 2), 2) == 1
    assert radix_depth(Fraction(0), 2) == 0
    assert radix_depth(Fraction(7, 12), 6) == 2
    with pytest.raises(ValueError):
        radix_depth(Fraction(1, 3), 2)


def _coprime_part(q, r):
    while gcd(q, r) > 1:
        q //= gcd(q, r)
    return q


def _preperiod(s, Q):
    q1, K = Q // _coprime_part(Q, s), 0
    while s**K % q1:
        K += 1
    return q1, K


def _depth(x, r):
    q, n, power = x.denominator, 0, 1
    while power % q != 0:
        power *= r
        n += 1
    return n


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 10, 12, 30])
def test_radix_part_matches_the_loops_it_replaced(r):
    rng = random.Random(r)
    for _ in range(300):
        q = 1
        for p in rng.sample([2, 3, 5, 7, 11], 3):
            q *= p ** rng.randint(0, 6)
        q1, K = radix_part(q, r)
        assert (q1, K) == _preperiod(r, q)
        assert q // q1 == _coprime_part(q, r)
        x = Fraction(rng.randrange(-q, 2 * q), q)
        on_grid = _coprime_part(x.denominator, r) == 1
        assert is_radix_rational(x, r) is on_grid
        if on_grid:
            assert radix_depth(x, r) == _depth(x, r)
        else:
            with pytest.raises(ValueError):
                radix_depth(x, r)


def test_triplet_validation_and_points():
    t = Triplet(2, 3, Fraction(1, 4))
    assert t.points(2) == (Fraction(3, 4), Fraction(13, 16), Fraction(1))
    with pytest.raises(ValueError):
        Triplet(0, 0, Fraction(1))
    with pytest.raises(ValueError):
        Triplet(0, 0, Fraction(0))
    with pytest.raises(ValueError):
        Triplet(-1, 0, Fraction(1, 2))


def test_enumerate_triplets_examples():
    # count 1 + 2 at r=2, n_max=1
    out = list(enumerate_triplets(2, 1, [Fraction(1, 2)]))
    assert out == [
        Triplet(0, 0, Fraction(1, 2)),
        Triplet(1, 0, Fraction(1, 2)),
        Triplet(1, 1, Fraction(1, 2)),
    ]
    out3 = list(enumerate_triplets(3, 0, [Fraction(1, 3), Fraction(2, 3)]))
    assert out3 == [Triplet(0, 0, Fraction(1, 3)), Triplet(0, 0, Fraction(2, 3))]
    with pytest.raises(ValueError):
        list(enumerate_triplets(2, 0, [Fraction(1)]))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 4), st.integers(1, 5))
def test_enumerate_count_and_order(r, n_max, y_count):
    ys = [Fraction(j, y_count + 1) for j in range(1, y_count + 1)]
    out = list(enumerate_triplets(r, n_max, ys))
    assert len(out) == triplet_count(r, n_max, len(ys))
    assert out == sorted(out)  # lexicographic (n, k, y)
    assert len(set(out)) == len(out)


def test_radix_y_set():
    ys = radix_y_set(2, 3)
    assert len(ys) == 7 and ys[0] == Fraction(1, 8) and ys[-1] == Fraction(7, 8)
    assert all(0 < y < 1 for y in ys)
