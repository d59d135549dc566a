"""The report encoder: ``dump_json`` writes what ``json.dumps(doc,
sort_keys=True, indent=2)`` writes, byte for byte."""

import json
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathfn.cli as cli
import pathfn.core.scalars as scalars
from pathfn.core.scalars import dump_json
from conftest import SPEC_DISTANCE, SPEC_TAKAGI2


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=25,
)


@st.composite
def flat_rows(draw):
    """Lists of dicts that share their keys and hold strings: the shape of an
    envelope's pieces, with the characters a string may need escaped."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    special = draw(st.sampled_from(['"', "\\", "\n", "\x7f", "é", "%", ""]))  # one kind per list
    text = st.text(alphabet=st.sampled_from("0123456789/- " + special), max_size=6) | st.text(max_size=3)
    return draw(st.lists(st.fixed_dictionaries({k: text for k in keys}), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({"a": [], "b": {}, "c": [{}, [], [[]]]})
@example({"q": 'say "hi"\\', "ctl": "\x00\x1f\x7f\n\t", "uni": "é \U0001f600"})
@example([float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e300, 5e-324])
@example([10**50, -(10**50), 0, True, False, None])
@example((1, [2, (3,)]))
def test_dump_json_equals_the_stdlib_indent_encoder(doc):
    assert dump_json(doc) == stdlib(doc)


@settings(max_examples=200, deadline=None)
@given(st.lists(flat_rows(), min_size=1, max_size=3))
@example([[{"x_lo": "0", "x_hi": "1/2", "z": "0", "fz": "0"}, {"x_lo": "1/2", "x_hi": "1", "z": "1", "fz": "0"}]])
@example([[{"%s": "%d", "%%": "%(a)s"}]])
@example([[{"a": 'say "hi"'}], [{"a": "c:\\"}], [{"a": "\x7f"}], [{"a": "\t"}], [{"a": "é"}], [{"é": "1"}]])
@example([[{"a": "1"}, {"b": "2"}], [{"a": "1"}, {"a": 1}], [{"a": "1"}, {"a": "1", "b": "2"}]])
def test_dump_json_equals_the_stdlib_on_lists_of_flat_string_dicts(lists):
    doc = {"pieces": lists[0], "nested": lists}
    assert dump_json(doc) == stdlib(doc)


def test_dump_json_writes_flat_string_rows_without_a_call_per_value(monkeypatch):
    # an envelope's pieces go through one format template, not json.dumps per value
    rows = [{"fz": f"{k}/7", "x_hi": f"{k + 1}/9", "x_lo": f"{k}/9", "z": f"{k}/8"} for k in range(1000)]
    doc = {"detail": {"envelope": {"pieces": rows, "schema": "pathfn/1", "t": "1/4"}, "depth": 3}}
    calls = []
    monkeypatch.setattr(scalars, "json", types.SimpleNamespace(dumps=lambda v: calls.append(v) or json.dumps(v)))
    text = dump_json(doc)
    assert text == stdlib(doc) and len(calls) < 20


SPEC_TAKAGI3 = {"kind": "takagi", "r": 3}
SPEC_USIN = {"kind": "useries", "r": 2, "psi": {"kind": "sum", "terms": [
    {"kind": "abs_sin"},
    {"kind": "scale", "a": "-1/2", "child": {"kind": "dilate", "m": 2, "child": {"kind": "abs_sin"}}},
]}}

# one report of every kind: (argv, exit code); "@name" stands for a spec file
REPORTS = {
    "membership-exact-pass": (["membership", "--func", "@tau3", "--c", "3/2", "--r", "3", "--nmax", "3", "--ydepth", "2"], 0),
    "membership-exact-fail": (["membership", "--func", "@tau3", "--c", "2", "--r", "3", "--nmax", "3", "--ydepth", "2"], 1),
    "membership-float-pass": (["membership", "--func", "@tau2", "--c", "1", "--r", "2", "--nmax", "3", "--ydepth", "2",
                               "--mode", "float"], 0),
    "membership-float-fail": (["membership", "--func", "@usin", "--c", "1", "--r", "2", "--nmax", "3", "--ydepth", "2",
                               "--mode", "float"], 1),
    "membership-float-inconclusive": (["membership", "--func", "@tau2", "--c", "2", "--r", "2", "--nmax", "3",
                                       "--ydepth", "2", "--mode", "float"], 2),
    "identity": (["identity", "--psi", "@dist", "--r", "3", "--nmax", "3", "--ydepth", "2"], 0),
    "bounds-pass": (["bounds", "--psi", "@dist", "--m", "1", "--alpha", "0", "--r", "2", "--nmax", "4"], 0),
    "bounds-fail": (["bounds", "--psi", "@dist", "--m", "2", "--alpha", "0", "--r", "2", "--nmax", "4"], 1),
    "flow-exact": (["flow", "--func", "@tau2", "--c", "2", "--t", "1/1024", "--samples", "9"], 0),
    "flow-float": (["flow", "--func", "@tau2", "--c", "2", "--t", "1/1024", "--mode", "float"], 0),
    "flow-crosscheck-exact": (["flow", "--func", "@tau3", "--c", "3/2", "--t", "1/6", "--crosscheck", "3"], 0),
    "flow-crosscheck-float": (["flow", "--func", "@tau3", "--c", "3/2", "--t", "1/6", "--crosscheck", "3",
                               "--mode", "float"], 0),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_kind_is_the_stdlib_encoding(name, spec_file, monkeypatch, capsys):
    specs = {"tau2": SPEC_TAKAGI2, "tau3": SPEC_TAKAGI3, "dist": SPEC_DISTANCE, "usin": SPEC_USIN}
    argv, code = REPORTS[name]
    argv = [spec_file(specs[a[1:]], a[1:] + ".json") if a.startswith("@") else a for a in argv]
    seen = []
    monkeypatch.setattr(cli, "dump_json", lambda doc: seen.append((doc, dump_json(doc))) or seen[-1][1])
    assert cli.main(argv) == code
    ((doc, text),) = seen
    assert text == stdlib(doc)
    assert capsys.readouterr().out.startswith(text + "\n")
