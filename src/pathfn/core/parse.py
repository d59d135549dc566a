"""The function-spec document format: UTF-8 JSON with a "kind" discriminator.

Rational literals are integers or "p/q" strings.  ``parse_func_spec`` is
total and deterministic on well-formed documents; syntax errors report the
position from the JSON decoder and semantic errors report the offending
path inside the document.

Kinds:

    {"kind": "distance"}
    {"kind": "distance_power", "p": 2}
    {"kind": "takagi", "r": 2}      (alias: useries of radix r over distance)
    {"kind": "theta_splice", "r": 2}
    {"kind": "abs_sin"}
    {"kind": "sin2pi"}
    {"kind": "poly_spline", "knots": ["0", "1/2", "1"], "pieces": [["0", "2"], ["2", "-2"]]}
    {"kind": "scale", "a": "1/2", "child": ...}
    {"kind": "sum", "terms": [...]}
    {"kind": "dilate", "m": 2, "child": ...}
    {"kind": "useries", "r": 2, "psi": ...}
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from ..errors import FuncSpecError
from .scalars import RationalFormatError, format_rational, parse_rational
from .funcs import (
    AbsSin,
    Dilate,
    Distance,
    DistancePower,
    FuncExpr,
    PolySplinePeriodic,
    Scale,
    Sin2Pi,
    Sum,
    ThetaSplice,
    USeries,
)


def parse_func_spec(text: Union[str, bytes]) -> FuncExpr:
    """Parse a function-spec document into an expression tree."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FuncSpecError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return build_func(doc)


def build_func(doc, path: str = "$") -> FuncExpr:
    """Build an expression from an already-decoded JSON object."""
    if not isinstance(doc, dict):
        raise FuncSpecError(f"{path}: expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise FuncSpecError(f"{path}: missing or non-string 'kind'")
    try:
        if kind == "distance":
            _allow_keys(doc, set(), path)
            return Distance()
        if kind == "distance_power":
            _allow_keys(doc, {"p"}, path)
            return DistancePower(_require_int(doc, "p", path))
        if kind == "takagi":
            _allow_keys(doc, {"r"}, path)
            return USeries(_require_int(doc, "r", path), Distance())
        if kind == "theta_splice":
            _allow_keys(doc, {"r"}, path)
            return ThetaSplice(_require_int(doc, "r", path))
        if kind == "abs_sin":
            _allow_keys(doc, set(), path)
            return AbsSin()
        if kind == "sin2pi":
            _allow_keys(doc, set(), path)
            return Sin2Pi()
        if kind == "poly_spline":
            _allow_keys(doc, {"knots", "pieces"}, path)
            knots = tuple(
                _rational(v, f"{path}.knots[{i}]") for i, v in enumerate(_require_list(doc, "knots", path))
            )
            pieces = tuple(
                tuple(_rational(c, f"{path}.pieces[{i}][{j}]") for j, c in enumerate(_as_list(p, f"{path}.pieces[{i}]")))
                for i, p in enumerate(_require_list(doc, "pieces", path))
            )
            return PolySplinePeriodic(knots, pieces)
        if kind == "scale":
            _allow_keys(doc, {"a", "child"}, path)
            a = _rational(_require(doc, "a", path), f"{path}.a")
            return Scale(a, build_func(_require(doc, "child", path), f"{path}.child"))
        if kind == "sum":
            _allow_keys(doc, {"terms"}, path)
            terms = _require_list(doc, "terms", path)
            return Sum(tuple(build_func(t, f"{path}.terms[{i}]") for i, t in enumerate(terms)))
        if kind == "dilate":
            _allow_keys(doc, {"m", "child"}, path)
            return Dilate(
                _require_int(doc, "m", path),
                build_func(_require(doc, "child", path), f"{path}.child"),
            )
        if kind == "useries":
            _allow_keys(doc, {"r", "psi"}, path)
            return USeries(
                _require_int(doc, "r", path),
                build_func(_require(doc, "psi", path), f"{path}.psi"),
            )
    except FuncSpecError as exc:
        if str(exc).startswith("$"):
            raise
        raise FuncSpecError(f"{path}: {exc}") from exc
    raise FuncSpecError(f"{path}: unknown kind {kind!r}")


def to_spec_dict(f: FuncExpr) -> dict:
    """Inverse of :func:`build_func` up to expression equality; the
    ``takagi`` alias comes back in its ``useries`` form."""
    if isinstance(f, Distance):
        return {"kind": "distance"}
    if isinstance(f, DistancePower):
        return {"kind": "distance_power", "p": f.power}
    if isinstance(f, ThetaSplice):
        return {"kind": "theta_splice", "r": f.r}
    if isinstance(f, AbsSin):
        return {"kind": "abs_sin"}
    if isinstance(f, Sin2Pi):
        return {"kind": "sin2pi"}
    if isinstance(f, PolySplinePeriodic):
        return {
            "kind": "poly_spline",
            "knots": [format_rational(t) for t in f.knots],
            "pieces": [[format_rational(c) for c in p] for p in f.pieces],
        }
    if isinstance(f, Scale):
        return {"kind": "scale", "a": format_rational(f.a), "child": to_spec_dict(f.child)}
    if isinstance(f, Sum):
        return {"kind": "sum", "terms": [to_spec_dict(c) for c in f.children]}
    if isinstance(f, Dilate):
        return {"kind": "dilate", "m": f.m, "child": to_spec_dict(f.child)}
    if isinstance(f, USeries):
        return {"kind": "useries", "r": f.r, "psi": to_spec_dict(f.psi)}
    raise TypeError(f"unknown expression {f!r}")


def func_spec_json(f: FuncExpr) -> str:
    return json.dumps(to_spec_dict(f), sort_keys=True)


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise FuncSpecError(f"{path}: missing field '{key}'")
    return doc[key]


def _require_int(doc: dict, key: str, path: str) -> int:
    v = _require(doc, key, path)
    if isinstance(v, bool) or not isinstance(v, int):
        raise FuncSpecError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _require_list(doc: dict, key: str, path: str) -> list:
    v = _require(doc, key, path)
    return _as_list(v, f"{path}.{key}")


def _as_list(v, path: str) -> list:
    if not isinstance(v, list):
        raise FuncSpecError(f"{path}: expected a list, got {type(v).__name__}")
    return v


def _rational(v, path: str) -> Fraction:
    try:
        return parse_rational(v)
    except RationalFormatError as exc:
        raise FuncSpecError(f"{path}: {exc}") from exc


def _allow_keys(doc: dict, allowed: set, path: str) -> None:
    extra = set(doc) - allowed - {"kind"}
    if extra:
        raise FuncSpecError(f"{path}: unexpected fields {sorted(extra)}")
