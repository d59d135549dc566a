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
from typing import Callable, Dict, Tuple, Union

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
        doc = json.loads(text, parse_int=_int_or_text)
    except json.JSONDecodeError as exc:
        raise FuncSpecError(f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return build_func(doc)


def _int_or_text(text: str):
    """A JSON integer, or its text if it is too long to convert, which the
    field's reader then refuses by its path."""
    try:
        return int(text)
    except ValueError:
        return text


def build_func(doc, path: str = "$") -> FuncExpr:
    """Build an expression from an already-decoded JSON object."""
    if not isinstance(doc, dict):
        raise FuncSpecError(f"{path}: expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise FuncSpecError(f"{path}: missing or non-string 'kind'")
    if kind not in _KINDS:
        raise FuncSpecError(f"{path}: unknown kind {kind!r}")
    make, spec = _KINDS[kind]
    try:
        _allow_keys(doc, {key for key, _ in spec}, path)
        return make(*(decode(_require(doc, key, path), f"{path}.{key}") for key, (decode, _) in spec))
    except FuncSpecError as exc:
        if str(exc).startswith("$"):
            raise
        raise FuncSpecError(f"{path}: {exc}") from exc


def to_spec_dict(f: FuncExpr) -> dict:
    """Inverse of :func:`build_func` up to expression equality; the
    ``takagi`` alias comes back in its ``useries`` form."""
    if type(f) not in _KIND_OF:
        raise TypeError(f"unknown expression {f!r}")
    kind = _KIND_OF[type(f)]
    doc = {"kind": kind}
    for (key, (_, encode)), name in zip(_KINDS[kind][1], f._fields):
        doc[key] = encode(getattr(f, name))
    return doc


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise FuncSpecError(f"{path}: missing field '{key}'")
    return doc[key]


def _int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FuncSpecError(f"{path}: expected an integer, got {v!r}")
    return v


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


# A field codec: (decode(value, path), encode(value)).
Codec = Tuple[Callable, Callable]


def _list_of(codec: Codec) -> Codec:
    decode, encode = codec
    return (
        lambda v, path: tuple(decode(item, f"{path}[{i}]") for i, item in enumerate(_as_list(v, path))),
        lambda vs: [encode(item) for item in vs],
    )


_INT: Codec = (_int, lambda v: v)
_RATIONAL: Codec = (_rational, format_rational)
_FUNC: Codec = (build_func, to_spec_dict)

# kind -> (constructor, its (key, codec) fields in constructor order)
_KINDS: Dict[str, Tuple[Callable[..., FuncExpr], Tuple[Tuple[str, Codec], ...]]] = {
    "distance": (Distance, ()),
    "distance_power": (DistancePower, (("p", _INT),)),
    "takagi": (lambda r: USeries(r, Distance()), (("r", _INT),)),
    "theta_splice": (ThetaSplice, (("r", _INT),)),
    "abs_sin": (AbsSin, ()),
    "sin2pi": (Sin2Pi, ()),
    "poly_spline": (PolySplinePeriodic, (("knots", _list_of(_RATIONAL)), ("pieces", _list_of(_list_of(_RATIONAL))))),
    "scale": (Scale, (("a", _RATIONAL), ("child", _FUNC))),
    "sum": (Sum, (("terms", _list_of(_FUNC)),)),
    "dilate": (Dilate, (("m", _INT), ("child", _FUNC))),
    "useries": (USeries, (("r", _INT), ("psi", _FUNC))),
}
_KIND_OF = {make: kind for kind, (make, _) in _KINDS.items() if kind != "takagi"}
