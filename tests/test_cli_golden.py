"""Golden CLI outputs: a small subset of reports pinned key path by key path.

Every key path of a golden report must appear in today's report with the
same value; keys the golden lacks are allowed, so additive report keys do
not break it.  CSV output (flow samples, probe rows) must match line for
line.  ``timing_ms`` is run-dependent and is not pinned.

``python tests/test_cli_golden.py`` rewrites ``golden/cli_subset.json``
from the current code; do that only for an intended output change.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

import pathfn.cli as cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_subset.json")

SPECS = {
    "tau2": {"kind": "takagi", "r": 2},
    "tau3": {"kind": "takagi", "r": 3},
    "theta2": {"kind": "theta_splice", "r": 2},
    "dist": {"kind": "distance"},
    "usin": {"kind": "useries", "r": 2, "psi": {"kind": "sum", "terms": [
        {"kind": "abs_sin"},
        {"kind": "scale", "a": "-1/2", "child": {"kind": "dilate", "m": 2, "child": {"kind": "abs_sin"}}},
    ]}},
}

# name -> argv; "@spec" stands for the path of that spec document
CASES = {
    "membership-exact-pass": ["membership", "--func", "@tau3", "--c", "3/2", "--r", "3", "--nmax", "3", "--ydepth", "2"],
    "membership-exact-fail": ["membership", "--func", "@tau3", "--c", "2", "--r", "3", "--nmax", "3", "--ydepth", "2"],
    "membership-float-pass": ["membership", "--func", "@tau2", "--c", "1", "--r", "2", "--nmax", "3", "--ydepth", "2",
                              "--mode", "float"],
    "membership-float-inconclusive": ["membership", "--func", "@tau2", "--c", "2", "--r", "2", "--nmax", "3",
                                      "--ydepth", "2", "--mode", "float"],
    "membership-float-fail": ["membership", "--func", "@usin", "--c", "1", "--r", "2", "--nmax", "3", "--ydepth", "2",
                              "--mode", "float"],
    "identity-r2": ["identity", "--psi", "@theta2", "--r", "2", "--nmax", "4", "--ydepth", "3"],
    "identity-r3": ["identity", "--psi", "@dist", "--r", "3", "--nmax", "3", "--ydepth", "2"],
    "bounds-pass": ["bounds", "--psi", "@dist", "--m", "1", "--alpha", "0", "--r", "2", "--nmax", "4"],
    "bounds-fail": ["bounds", "--psi", "@dist", "--m", "2", "--alpha", "0", "--r", "2", "--nmax", "4"],
    "flow-samples": ["flow", "--func", "@tau2", "--c", "2", "--t", "1/4", "--samples", "9", "--crosscheck", "4"],
    "probe-tau2": ["probe", "--func", "@tau2", "--x", "1/3", "--N", "10"],
}


def produce(name: str, spec_dir: str) -> dict:
    """Run one case; split its stdout into the JSON report and the CSV after it."""
    argv = []
    for tok in CASES[name]:
        if tok.startswith("@"):
            path = os.path.join(spec_dir, tok[1:] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(SPECS[tok[1:]]))
            tok = path
        argv.append(tok)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    report, csv = None, out
    if out.startswith("{"):
        report, end = json.JSONDecoder().raw_decode(out)
        report.pop("timing_ms")
        csv = out[end:].lstrip("\n")
    return {"exit": code, "report": report, "csv": csv}


def key_paths(doc, prefix=()):
    """(path, leaf value) pairs; a list contributes its length and its items."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        yield prefix + ("len",), len(doc)
        for i, value in enumerate(doc):
            yield from key_paths(value, prefix + (i,))
    else:
        yield prefix, doc


def lookup(doc, path):
    for key in path:
        if key == "len" and isinstance(doc, list):
            return len(doc)
        doc = doc[key]
    return doc


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want = _golden()[name]
    got = produce(name, str(tmp_path))
    assert got["exit"] == want["exit"]
    assert got["csv"].splitlines() == want["csv"].splitlines()
    assert (got["report"] is None) == (want["report"] is None)
    if want["report"] is not None:
        for path, value in key_paths(want["report"]):
            assert lookup(got["report"], path) == value, path


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as spec_dir:
        docs = {case: produce(case, spec_dir) for case in CASES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(docs)} cases to {GOLDEN}")
