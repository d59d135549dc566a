"""The Record base class: what the value classes rely on that no other test
pins."""

import inspect
from fractions import Fraction

import pytest

import pathfn.cli  # noqa: F401 -- with the imports below, every layer that defines a record
from pathfn.audit import ChainReport, DominanceReport, SubdiffWitness
from pathfn.core.funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    FuncExpr,
    PolyLeaf,
    PolySplinePeriodic,
    Scale,
    Sin2Pi,
    SineLeaf,
    Sum,
    ThetaSplice,
    USeries,
    as_piecewise_poly,
)
from pathfn.core.points import Triplet
from pathfn.core.scalars import Approx, Record, to_json
from pathfn.differences import MembershipQuery, ProbeRow, ScanReport
from pathfn.flow import FlowQuery, Piece, PiecewiseQuadratic
from pathfn.series import IdentityReport, ScanParams, SufficientReport

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


def _record_classes():
    """Every subclass of Record that the package defines, bases included."""
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("pathfn."):
                found.append(sub)
    return found


_T = Triplet(1, 0, F(1, 2))
_SCAN = ScanReport("no-violation", F(-1), _T, 3, "exact")
_TAU2 = USeries(2, Distance())
SAMPLES = [
    Approx(0.5, 0.25),
    _T,
    Distance(),
    DistancePower(2),
    PolySplinePeriodic((0, F(1, 2), 1), ((0, 1), (1, -1))),
    ThetaSplice(3),
    AbsSin(),
    Sin2Pi(),
    Scale(F(1, 2), _TAU2),
    Sum((Distance(), Sin2Pi())),
    Dilate(3, Distance()),
    _TAU2,
    MembershipQuery(_TAU2, 2, 2, 3, (F(1, 2),)),
    _SCAN,
    ProbeRow(1, 0, F(1, 2), F(1), F(-1), F(2)),
    IdentityReport(3, None, F(0)),
    ScanParams(),
    SufficientReport(True, F(1), "exact", None, _SCAN),
    FlowQuery(_TAU2, 2, 2, F(1, 4)),
    Piece(F(0), F(1, 2), F(0), F(0)),
    PiecewiseQuadratic.from_pieces(F(1, 4), [Piece(F(0), F(1, 2), F(0), F(0)), Piece(F(1, 2), F(1), F(1), F(0))]),
    ChainReport(True, 3, None),
    DominanceReport(True, True, True, F(-8), None),
    SubdiffWitness(F(1, 2), F(-1), F(1)),
]


def test_every_value_class_is_a_record_with_a_sample():
    classes = set(_record_classes())
    assert classes - {type(x) for x in SAMPLES} == {FuncExpr, PolyLeaf, SineLeaf}
    assert len(SAMPLES) == len({type(x) for x in SAMPLES}) == 24


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__qualname__)
def test_fields_are_the_own_annotations_in_order(cls):
    assert cls._fields == tuple(inspect.get_annotations(cls))


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__qualname__)
def test_hash_and_repr_read_the_field_tuple(x):
    values = tuple(getattr(x, name) for name in x._fields)
    assert hash(x) == hash(values)
    body = ", ".join(f"{name}={value!r}" for name, value in zip(x._fields, values))
    assert repr(x) == f"{type(x).__qualname__}({body})"
    with pytest.raises(AttributeError):
        x.extra = 1


def test_only_triplets_are_ordered():
    # an uncertified float comparison must not slip into a verdict
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert [cls for cls in _record_classes() if op in cls.__dict__] == [Triplet]
    with pytest.raises(TypeError):
        Approx(1.0) < Approx(2.0)
    with pytest.raises(TypeError):
        Approx(1.0) >= Approx(2.0)
    with pytest.raises(TypeError):
        Distance() < Distance()


def test_a_subclass_that_annotates_nothing_keeps_its_base_fields():
    class Shifted(USeries):
        """A plain subclass, as code outside the package may define one."""

    s = Shifted(2, Distance())
    assert Shifted._fields == ("r", "psi") and s == Shifted(r=2, psi=Distance()) != _TAU2
    assert hash(s) == hash((2, Distance())) and repr(s).endswith("Shifted(r=2, psi=Distance())")
    with pytest.raises(TypeError):
        Shifted(2)
