"""The record decorator: what the value classes rely on that no other test
pins."""

from fractions import Fraction

import pytest

from pathfn.core.funcs import Distance, DistancePower, Scale, Sum, USeries, as_piecewise_poly
from pathfn.core.points import Triplet
from pathfn.core.scalars import Approx, to_json
from pathfn.differences import ScanReport
from pathfn.series import IdentityReport

F = Fraction


def test_fields_cannot_be_assigned_or_deleted():
    t = Triplet(1, 0, F(1, 2))
    with pytest.raises(AttributeError):
        t.n = 2
    with pytest.raises(AttributeError):
        del t.y
    with pytest.raises(AttributeError):
        Approx(1.0).err = 0.5
    with pytest.raises(AttributeError):
        USeries(2, Distance()).psi = DistancePower(2)
    assert t == Triplet(1, 0, F(1, 2))


def _tree():
    return Sum((Scale(F(1, 2), USeries(2, Distance())), DistancePower(3)))


def test_equal_trees_built_apart_share_a_cache_entry():
    a, b = _tree(), _tree()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Sum((Scale(F(1, 3), USeries(2, Distance())), DistancePower(3)))
    assert Distance() != DistancePower(1) and Distance().__eq__(F(0)) is NotImplemented
    leaf_a, leaf_b = DistancePower(4), DistancePower(4)
    as_piecewise_poly(leaf_a)
    hits = as_piecewise_poly.cache_info().hits
    assert as_piecewise_poly(leaf_b) is as_piecewise_poly(leaf_a)
    assert as_piecewise_poly.cache_info().hits == hits + 2


def test_triplets_sort_by_n_then_k_then_y():
    ts = [Triplet(1, 0, F(1, 2)), Triplet(0, 3, F(1, 3)), Triplet(1, 0, F(1, 4)), Triplet(0, 3, F(1, 5))]
    key = [(t.n, t.k, t.y) for t in ts]
    assert [(t.n, t.k, t.y) for t in sorted(ts)] == sorted(key)
    assert Triplet(0, 9, F(1, 2)) < Triplet(1, 0, F(1, 2)) <= Triplet(1, 0, F(1, 2))
    assert Triplet(1, 1, F(1, 2)) > Triplet(1, 0, F(2, 3)) >= Triplet(1, 0, F(2, 3))


def test_to_json_drops_only_a_none_whose_default_is_none():
    t = Triplet(0, 0, F(1, 2))
    scan = to_json(ScanReport("no-violation", F(-1), t, 3, "exact"))
    assert "inconclusive_count" not in scan and scan["worst_margin"] == "-1"
    assert to_json(ScanReport("inconclusive", F(0), t, 3, "float", 2))["inconclusive_count"] == 2
    assert to_json(IdentityReport(3, None, F(0))) == {"checked": 3, "offender": None, "residual": "0"}


def test_constructor_arguments_and_repr():
    assert Triplet(n=1, k=0, y=F(1, 2)) == Triplet(1, 0, F(1, 2)) == Triplet(1, 0, y="1/2")
    assert repr(Triplet(1, 0, F(1, 2))) == "Triplet(n=1, k=0, y=Fraction(1, 2))"
    assert ScanReport("v", F(0), None, 1, mode="exact").inconclusive_count is None
    with pytest.raises(TypeError):
        ScanReport("v", F(0), None)
    with pytest.raises(TypeError):
        USeries(2, Distance(), 3)
    with pytest.raises(TypeError):
        USeries(2, r=2)
