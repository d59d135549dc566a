"""The correctness gate: every operation's exit code and output are checked.

Three kinds of check, chosen per operation in ``workloads.py``:

* pinned fields: named fields of the output (not whole reports, so additive
  report keys do not count as failures) equal the values recorded at the
  seed commit in ``expected.json``;
* oracle checks: values are recomputed by ``oracle.py``, which does not use
  pathfn;
* float rules: a decisive float verdict must not contradict the known truth.
  ``inconclusive`` is allowed; it lowers the decided ratio instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracle
from workloads import Op

EXPECTED_FILE = Path(__file__).with_name("expected.json")

_EXIT_OF_VERDICT = {"no-violation": 0, "violated": 1, "inconclusive": 2}


class OutputError(ValueError):
    pass


@dataclass
class CheckResult:
    errors: List[str] = field(default_factory=list)
    decided: Optional[bool] = None  # float scans only: verdict was not inconclusive


def load_expected() -> Dict[str, dict]:
    return json.loads(EXPECTED_FILE.read_text())["ops"]


def split_output(text: str) -> Tuple[Optional[dict], str]:
    """(JSON report or None, CSV text) of one command's stdout."""
    if text.startswith("{"):
        doc, end = json.JSONDecoder().raw_decode(text)
        return doc, text[end:].lstrip("\n")
    return None, text


def _digest(value) -> str:
    blob = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def observe(op: Op, code: int, stdout: str) -> Dict[str, object]:
    """The pinned fields of one operation's output."""
    doc, csv = split_output(stdout)
    command = op.argv[0]
    if op.truth:  # float scan: verdict and exit code follow the float rules instead
        return {"scanned": doc["detail"]["scanned"]}
    obs: Dict[str, object] = {"exit": code}
    if command in ("eval", "probe"):
        obs["csv_sha256"] = _digest(csv)
        return obs
    if doc is None:
        raise OutputError("missing JSON report")
    detail = doc["detail"]
    obs["verdict"] = doc["verdict"]
    if command == "membership":
        obs["scanned"] = detail["scanned"]
        obs.update(
            scan_verdict=detail["verdict"],
            worst_margin=detail["worst_margin"],
            worst_triplet=detail["worst_triplet"],
        )
    elif command == "identity":
        obs.update(checked=detail["checked"], offender=detail["offender"], residual=detail["residual"])
    elif command == "flow":
        obs.update(depth=detail["depth"], pieces=detail["pieces"], envelope_sha256=_digest(detail["envelope"]))
        if "crosscheck" in detail:
            obs.update(crosscheck_points=detail["crosscheck"]["points"],
                       crosscheck_mismatches=detail["crosscheck"]["mismatches"])
        if csv:
            obs["csv_sha256"] = _digest(csv)
    return obs


def _csv_rows(csv: str, width: int) -> List[List[str]]:
    lines = csv.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise OutputError(f"CSV rows must have {width} fields")
    return rows


def _triplet(doc: dict) -> Tuple[int, int, Fraction]:
    t = doc["detail"]["worst_triplet"]
    return t["n"], t["k"], Fraction(t["y"])


def _oracle_takagi_margin(op: Op, doc: dict, csv: str) -> List[str]:
    """The reported worst margin is the exact margin at the reported triplet
    (exact mode) or its interval contains it (float mode)."""
    r, c = int(op.arg("--r")), Fraction(op.arg("--c"))
    n, k, y = _triplet(doc)
    truth = oracle.takagi_margin(r, c, n, k, y)
    got = doc["detail"]["worst_margin"]
    if isinstance(got, str):
        ok = Fraction(got) == truth
    else:
        ok = abs(Fraction(got["value"]) - truth) <= Fraction(got["error_bound"])
    return [] if ok else [f"worst_margin {got} is not the margin {truth} at ({n}, {k}, {y})"]


def _oracle_abs_sin_margin(op: Op, doc: dict, csv: str) -> List[str]:
    r, c = int(op.arg("--r")), Fraction(op.arg("--c"))
    n, k, y = _triplet(doc)
    truth = oracle.abs_sin_margin(r, c, n, k, y)
    got = doc["detail"]["worst_margin"]
    slack = 1e-9 * max(1.0, abs(truth))  # rounding of the float oracle itself
    if abs(got["value"] - truth) <= got["error_bound"] + slack:
        return []
    return [f"worst_margin {got} excludes the margin {truth!r} at ({n}, {k}, {y})"]


def _oracle_abs_sin_csv(op: Op, doc: dict, csv: str) -> List[str]:
    depth = int(op.arg("--grid"))
    rows = _csv_rows(csv, 3)
    den = 2**depth
    if len(rows) != den + 1:
        return [f"expected {den + 1} rows, got {len(rows)}"]
    errors = []
    for j, (x, value, err) in enumerate(rows):
        xq = Fraction(x)
        if xq != Fraction(j, den):
            errors.append(f"row {j}: x={x}, expected {Fraction(j, den)}")
        elif abs(float(value) - oracle.abs_sin_pi(xq)) > float(err) + 1e-15:
            errors.append(f"row {j}: {value} +- {err} excludes |sin(pi x)| at x={x}")
    return errors[:5]


def _oracle_takagi_pieces(op: Op, doc: dict, csv: str) -> List[str]:
    """Every envelope vertex value fz is tau_r(z), read from the integer grid table."""
    r, depth = doc["inputs"]["r"], doc["detail"]["depth"]
    den = r**depth
    w = oracle.takagi_grid(r, depth)
    for p in doc["detail"]["envelope"]["pieces"]:
        j = Fraction(p["z"]) * den
        if j.denominator != 1 or not 0 <= j <= den:
            return [f"piece vertex z={p['z']} is off the depth-{depth} grid"]
        if Fraction(p["fz"]) != Fraction(w[int(j)], den):
            return [f"piece fz={p['fz']} at z={p['z']} is not tau_{r}(z)"]
    return []


def _oracle_takagi_points(op: Op, doc: dict, csv: str) -> List[str]:
    """Each requested off-grid point comes back, in order, with its exact value."""
    points = [Fraction(tok) for tok in op.arg("--points").split(",")]
    rows = _csv_rows(csv, 2)
    if len(rows) != len(points):
        return [f"expected {len(points)} rows, got {len(rows)}"]
    errors = []
    for x, (xs, value) in zip(points, rows):
        if Fraction(xs) != x:
            errors.append(f"row for {x} reads x={xs}")
        elif Fraction(value) != oracle.takagi_value(2, x):
            errors.append(f"tau_2({x}) = {value[:40]}... disagrees with the cycle sum")
    return errors[:5]


ORACLES: Dict[str, Callable[[Op, Optional[dict], str], List[str]]] = {
    "takagi_margin": _oracle_takagi_margin,
    "abs_sin_margin": _oracle_abs_sin_margin,
    "abs_sin_csv": _oracle_abs_sin_csv,
    "takagi_pieces": _oracle_takagi_pieces,
    "takagi_points": _oracle_takagi_points,
}


def _float_rules(op: Op, code: int, doc: dict) -> CheckResult:
    verdict = doc["detail"]["verdict"]
    out = CheckResult(decided=verdict != "inconclusive")
    if code != _EXIT_OF_VERDICT[verdict]:
        out.errors.append(f"exit code {code} does not match verdict {verdict}")
    if (op.truth, verdict) in (("holds", "violated"), ("violated", "no-violation")):
        out.errors.append(f"float verdict {verdict} contradicts the known answer ({op.truth})")
    return out


def check(op: Op, code: int, stdout: str, expected: Dict[str, dict]) -> CheckResult:
    """Check one operation's exit code and output."""
    try:
        doc, csv = split_output(stdout)
        out = _float_rules(op, code, doc) if op.truth else CheckResult()
        if op.pinned:
            want = expected[op.name]
            got = observe(op, code, stdout)
            out.errors += [f"{key}: got {got.get(key)!r}, recorded {value!r}"
                           for key, value in want.items() if got.get(key) != value]
        elif code != 0:
            out.errors.append(f"exit code {code}")
        if op.oracle:
            out.errors += ORACLES[op.oracle](op, doc, csv)
    except (OutputError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return CheckResult([f"unreadable output: {type(exc).__name__}: {exc}"])
    return out


def check_setup(code: int, stdout: str) -> List[str]:
    """A setup evaluation at 0 prints a header and the row 0,0."""
    rows = stdout.splitlines()
    row_ok = len(rows) == 2 and (rows[1] == "0,0" or rows[1].startswith("0,0.0,"))
    if code != 0 or not row_ok:
        return [f"setup evaluation failed: exit {code}, output {stdout[:80]!r}"]
    return []


def corrupt(op: Op, stdout: str) -> str:
    """A deliberately wrong copy of one operation's output: one report field or
    one CSV value is changed.  The gate must flag it."""
    doc, csv = split_output(stdout)
    if doc is None:
        lines = csv.splitlines()
        i = len(lines) // 2
        cells = lines[i].split(",")
        value = cells[1]
        if "." in value or "e" in value:
            cells[1] = repr(float(value) + 1e-3)
        else:
            cells[1] = str(Fraction(value) + Fraction(1, 1024))
        lines[i] = ",".join(cells)
        return "\n".join(lines) + "\n"
    detail = doc["detail"]
    if op.argv[0] == "membership":
        m = detail["worst_margin"]
        if isinstance(m, str):
            detail["worst_margin"] = str(Fraction(m) + 1)
        else:
            m["value"] += 1.0
    elif op.argv[0] == "identity":
        detail["offender"], detail["residual"] = {"k": 0, "n": 1, "y": "1/2"}, "1"
    else:
        piece = detail["envelope"]["pieces"][0]
        piece["fz"] = str(Fraction(piece["fz"]) + Fraction(1, 2))
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return text + csv if csv else text


def gate_self_test(op: Op, code: int, stdout: str, expected: Dict[str, dict]) -> List[str]:
    """The gate passes this output and flags a corrupted copy of it."""
    if check(op, code, stdout, expected).errors:
        return []  # already reported as a failure
    if not check(op, code, corrupt(op, stdout), expected).errors:
        return [f"gate did not flag a corrupted output of {op.name}"]
    return []
