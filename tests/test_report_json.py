"""The report encoder: ``write_json`` and ``dump_json`` write what
``json.dumps(doc, sort_keys=True, indent=2)`` writes, byte for byte."""

import json
import random
import types
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathfn.cli as cli
import pathfn.core.scalars as scalars
from pathfn.core.funcs import Distance, USeries
from pathfn.core.scalars import _CHUNK_ROWS, Rows, dump_json, write_json
from pathfn.flow import FlowQuery, _envelope_exact, flow_grid
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


def envelopes():
    """Envelopes from flow_grid at random t and n, exact and float, and
    integer envelopes with more pieces than one run of report rows."""
    rng = random.Random(23)
    tau2 = USeries(2, Distance())
    for mode in ("exact", "float"):
        for _ in range(6):
            n = rng.randint(0, 9)
            t = F(1, 2 ** (n + 2)) * F(rng.randint(4, 40), 4)  # admissible at depth n for c = 2
            yield flow_grid(FlowQuery(f=tau2, c=F(2), r=2, t=t, n=n, mode=mode))
    for R in (_CHUNK_ROWS, 2 * _CHUNK_ROWS + 5):
        # values within 4 of each other and (1/R)^2 / 2t = 8 keep every vertex
        den = rng.randint(1, 10**6)
        yield _envelope_exact([rng.randint(0, 4 * den) for _ in range(R + 1)], den, F(1, 16 * R * R))


def test_the_streamed_envelope_is_the_stdlib_encoding_of_as_json():
    sizes = []
    for pq in envelopes():
        writes = []
        write_json({"detail": {"envelope": pq.as_report(), "pieces": len(pq.ks)}}, writes.append)
        assert "".join(writes) == stdlib({"detail": {"envelope": pq.as_json(), "pieces": len(pq.ks)}})
        assert dump_json(pq.as_report()) == stdlib(pq.as_json())
        # a run of pieces per write: no write holds more than _CHUNK_ROWS of them
        assert max(text.count('"x_lo"') for text in writes) == min(len(pq.ks), _CHUNK_ROWS)
        sizes.append(len(pq.ks))
    assert max(sizes) > 2 * _CHUNK_ROWS and min(sizes) <= 2


def test_envelope_rows_are_written_without_a_call_per_value(monkeypatch):
    # an envelope's pieces go through one format template, not json.dumps per value
    pq = _envelope_exact(list(range(3000, -1, -1)), 7, F(1, 10**8))
    calls = []
    monkeypatch.setattr(scalars, "json", types.SimpleNamespace(dumps=lambda v: calls.append(v) or json.dumps(v)))
    text = dump_json({"detail": {"envelope": pq.as_report(), "depth": 3}})
    assert len(pq.ks) == 3001 and len(calls) < 20
    assert text == stdlib({"detail": {"envelope": pq.as_json(), "depth": 3}})


@pytest.mark.parametrize("keys, rows", [
    (("a",), []),
    (("a",), [("1",)]),
    (("%s", 'a"b', "c\\"), [("1", "2", "3"), ("-4/5", "6", "7"), ("8", "9", "0")]),
    (("k",), [(str(i),) for i in range(2 * _CHUNK_ROWS + 1)]),
])
def test_rows_are_written_as_their_list_of_objects(keys, rows):
    objects = [dict(zip(keys, row)) for row in rows]
    table = Rows(keys, len(rows), lambda lo, hi: rows[lo:hi])
    for doc, want in (({"r": table}, {"r": objects}), ([table, 1], [objects, 1])):
        assert dump_json(doc) == stdlib(want)


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


def plain(obj):
    """``obj`` with each Rows as the list of objects it stands for."""
    if isinstance(obj, Rows):
        return [dict(zip(obj.keys, row)) for row in obj.rows(0, obj.count)]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_every_report_kind_is_the_stdlib_encoding(name, spec_file, monkeypatch, capsys):
    specs = {"tau2": SPEC_TAKAGI2, "tau3": SPEC_TAKAGI3, "dist": SPEC_DISTANCE, "usin": SPEC_USIN}
    argv, code = REPORTS[name]
    argv = [spec_file(specs[a[1:]], a[1:] + ".json") if a.startswith("@") else a for a in argv]
    seen = []

    def spy(doc, write):
        parts = []
        write_json(doc, lambda text: parts.append(text) or write(text))
        seen.append((plain(doc), "".join(parts)))

    monkeypatch.setattr(cli, "write_json", spy)
    assert cli.main(argv) == code
    ((doc, text),) = seen
    assert text == stdlib(doc)
    assert capsys.readouterr().out.startswith(text + "\n")
