"""Scalar arithmetic in two modes: exact rationals and floats with certified error bounds.

Exact values are ``fractions.Fraction`` (always reduced, positive denominator
-- the stdlib guarantees both).  Float values are :class:`Approx`, a
``(value, err)`` pair whose invariant is ``|true - value| <= err``.  Every
operation rounds the bound outward (one ulp of slack per step), so bounds
only ever grow and a chain of operations stays certified.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter, ge, gt, le, lt
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple, Union

_INF = math.inf

# The size bounds of every rational literal, and of the counts that refusals
# print exactly: 2^14000 has 4215 digits, below Python's default limit of
# 4300 for int-to-string conversion.
_PRINTED_BITS = 14000
_PRINTED_DIGITS = 4215  # an integer of more digits has more than _PRINTED_BITS bits

# The ASCII literals: (numerator, denominator) of an integer or 'p/q'; (whole
# part, fraction part, exponent sign, exponent digits) of a decimal.
_RATIO_RE = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")
_DECIMAL_RE = re.compile(r"[+-]?([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?)0*([0-9]+))?")
_NON_FINITE_RE = re.compile(r"[+-]?(?:inf(?:inity)?|s?nan[0-9]*)", re.IGNORECASE)


class RationalFormatError(ValueError):
    """Raised for a rational literal that is malformed or too long."""


def quote(value) -> str:
    """``repr(value)`` for a message; past 40 characters, the first 40 of its text and its length."""
    text = value if isinstance(value, str) else repr(value)
    return repr(value) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_rational(text: Union[str, int], decimals: bool = False) -> Fraction:
    """The rational that ``text`` writes: an int, or an ASCII string, with
    spaces around it, of an integer, ``"p/q"`` or, if ``decimals``, a finite
    decimal such as ``"-2.5e-3"`` (exactly: ``"0.1"`` is 1/10).  A numerator
    or denominator written with more than ``_PRINTED_DIGITS`` digits is
    refused unbuilt, and so is a value whose numerator or denominator in
    lowest terms has more than ``_PRINTED_BITS`` bits."""
    s = text.strip(" \t\n\r\v\f") if isinstance(text, str) else ""
    if isinstance(text, int) and not isinstance(text, bool):
        x = Fraction(text)
    elif m := _RATIO_RE.fullmatch(s):
        if max(len(m[1]), len(m[2] or "")) > _PRINTED_DIGITS:
            raise RationalFormatError(f"its numerator or denominator has more than {_PRINTED_DIGITS} digits")
        if m[2] and not m[2].strip("0"):
            raise RationalFormatError(f"zero denominator: {quote(text)}")
        x = Fraction(s)
    elif decimals and (m := _DECIMAL_RE.fullmatch(s)) and (m[1] or m[2]):
        whole, frac, exp_sign, exp = m.groups("")
        body = (whole + frac).rstrip("0")
        digits = body.lstrip("0")
        # the value is int(digits) * 10^e: once len(digits) + |e| passes 4 * _PRINTED_BITS,
        # its numerator or denominator in lowest terms is far past the limit
        e = len(whole) - len(body) + int(exp_sign + exp or 0) if len(exp) <= _PRINTED_DIGITS else _INF
        if digits and len(digits) + abs(e) > 4 * _PRINTED_BITS:
            raise RationalFormatError(f"its exact value has more than {_PRINTED_BITS} bits")
        x = Fraction(Decimal(s)) if digits else Fraction(0)  # zero at any exponent
    elif decimals and _NON_FINITE_RE.fullmatch(s):
        raise RationalFormatError("not a finite number")
    else:
        raise RationalFormatError(f"not a rational literal: {quote(text)}")
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > _PRINTED_BITS:
        raise RationalFormatError(f"its exact value has more than {_PRINTED_BITS} bits")
    return x


def format_rational(q: Fraction, key: str = "value") -> str:
    """Canonical string form, ``"p/q"`` or ``"p"`` for integers.  A value
    whose numerator or denominator has more than ``_PRINTED_BITS`` bits is
    refused by a :class:`RationalFormatError` that names ``key``."""
    if max(q.numerator.bit_length(), q.denominator.bit_length()) > _PRINTED_BITS:
        raise RationalFormatError(f"{key}: its exact value has more than {_PRINTED_BITS} bits, too long to print")
    return str(q)


def check_ratios(nums: Sequence[int], den: int, key: str) -> None:
    """Refuse, as :func:`format_rational` does, the first n/den of ``nums``
    (den > 0) too long to print; when den and every |n| fit, all do."""
    if den.bit_length() > _PRINTED_BITS or max(map(abs, nums), default=0).bit_length() > _PRINTED_BITS:
        for n in nums:
            format_rational(Fraction(n, den), key)


def format_ratios(nums: Iterable[int], den: int) -> List[str]:
    """``format_rational(Fraction(n, den))`` for each n of ``nums``, den > 0,
    without building the Fractions or checking their length
    (:func:`check_ratios`)."""
    gcd = math.gcd
    return [str(n // den) if (g := gcd(n, den)) == den else f"{n // g}/{den // g}" for n in nums]


def reduce_mod1(x: Fraction) -> Fraction:
    """x mod 1 as an exact rational in [0, 1)."""
    return x - (x.numerator // x.denominator)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


_ulp = math.ulp
_nextafter = math.nextafter  # called directly in the hot helpers below


def _add_up(*terms: float) -> float:
    """Sum of nonnegative error terms, rounded outward at every step."""
    s = 0.0
    for t in terms:
        s = _nextafter(s + t, _INF)
    return s


def _mul_up(a: float, b: float) -> float:
    return _nextafter(a * b, _INF)


def _bind(what: str, names: Tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call ``what(*args, **kwargs)``, defaults filled in."""
    given = dict(zip(names, args))
    if len(args) > len(names) or not given.keys().isdisjoint(kwargs) or not kwargs.keys() <= set(names):
        raise TypeError(f"{what}() takes the arguments ({', '.join(names)})")
    values = {**defaults, **given, **kwargs}
    missing = [name for name in names if name not in values]
    if missing:
        raise TypeError(f"{what}() is missing {', '.join(missing)}")
    return [values[name] for name in names]


# Sets a field past a record's frozen ``__setattr__``.  Writing to the instance
# ``__dict__`` instead would turn its inline attribute values into a dict: more
# memory per object and slower reads.
_set = object.__setattr__


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"cannot set or delete field {name!r} of a frozen {type(self).__name__}")


@staticmethod
def _field_tuple(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


class Record:
    """Base class of the frozen value classes.  A subclass's fields are its own
    annotated names in order (``_fields``; its base's if it annotates none),
    their defaults its class attributes of those names (``_defaults``).
    ``__init__`` takes positional or keyword arguments, then calls
    ``__post_init__``, which, like an own ``__init__``, sets a field with
    ``object.__setattr__``.  Equality, hash and ``order=True``'s ordering read
    the field tuple ``_key(self)`` of two objects of one class; ``repr`` is
    ``Name(field=value, ...)``; fields are read-only."""

    _fields, _defaults, _key = (), {}, _field_tuple

    def __init_subclass__(cls, order: bool = False) -> None:
        if cls.__annotations__:  # its own; a subclass without any keeps its base's fields
            names = cls._fields = tuple(cls.__annotations__)
            cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
            cls._key = attrgetter(*names) if len(names) > 1 else _field_tuple  # attrgetter builds it in C
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = _ORDER

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _bind(type(self).__name__, names, self._defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({body})"

    __setattr__ = __delattr__ = _frozen


def _ordering(op):
    def compare(self, other):
        return op(self._key(self), other._key(other)) if other.__class__ is self.__class__ else NotImplemented

    return compare


_ORDER = tuple(map(_ordering, (lt, le, gt, ge)))  # <, <=, >, >= of an ordered record, built once


class Approx(Record):
    """A float with a certified absolute error bound: the true value lies in
    ``[value - err, value + err]``.  Arithmetic takes Approx operands only;
    a rational enters through :meth:`from_fraction`."""

    value: float
    err: float = 0.0

    def __init__(self, value: float, err: float = 0.0) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite value: {value}")
        if not (err >= 0.0) or not math.isfinite(err):
            raise ValueError(f"bad error bound: {err}")
        _set(self, "value", value)
        _set(self, "err", err)

    @staticmethod
    def from_fraction(q: Fraction) -> "Approx":
        v = float(q)  # correctly rounded by the stdlib
        return Approx(v, _ulp(v))

    @staticmethod
    def from_bounds(lo: float, hi: float) -> "Approx":
        """An Approx whose interval contains [lo, hi]."""
        v = lo / 2 + hi / 2
        return Approx(v, _up(max(hi - v, v - lo)))

    # interval endpoints (outward-rounded)
    def lo(self) -> float:
        return _down(self.value - self.err)

    def hi(self) -> float:
        return _up(self.value + self.err)

    def __add__(self, o: "Approx") -> "Approx":
        v = self.value + o.value
        return Approx(v, _add_up(self.err, o.err, _ulp(v)))

    def __sub__(self, o: "Approx") -> "Approx":
        v = self.value - o.value
        return Approx(v, _add_up(self.err, o.err, _ulp(v)))

    def __mul__(self, o: "Approx") -> "Approx":
        v = self.value * o.value
        e = _add_up(
            _mul_up(abs(self.value), o.err),
            _mul_up(abs(o.value), self.err),
            _mul_up(self.err, o.err),
            _ulp(v),
        )
        return Approx(v, e)

    def __truediv__(self, o: "Approx") -> "Approx":
        m = _down(abs(o.value) - o.err)
        if m <= 0.0:
            raise ZeroDivisionError("division by an interval containing zero")
        v = self.value / o.value
        num = _add_up(_mul_up(self.err, abs(o.value)), _mul_up(abs(self.value), o.err))
        e = _add_up(_up(num / _down(m * abs(o.value))), _ulp(v))
        return Approx(v, e)

    # certain comparisons
    def overlaps(self, other: "Approx") -> bool:
        return not (self.hi() < other.lo() or other.hi() < self.lo())


# Scalar: the two arithmetic modes of the toolkit.
Scalar = Union[Fraction, Approx]


def to_json(obj, key: str = "$"):
    """JSON form of a report at ``key``: rationals as 'p/q' strings, each
    refused by its key if too long, an Approx as ``{value, error_bound}``, a
    :class:`Record` as the dict of its fields (leaving out a field whose value
    and default are both None), lists, tuples and dicts item by item."""
    if isinstance(obj, Fraction):
        return format_rational(obj, key)
    if isinstance(obj, Approx):
        return {"value": obj.value, "error_bound": obj.err}
    if isinstance(obj, dict):
        return {k: to_json(v, f"{key}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v, f"{key}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, Record):
        return {
            name: to_json(v, f"{key}.{name}")
            for name in obj._fields
            if (v := getattr(obj, name)) is not None or obj._defaults.get(name, ...) is not None
        }
    return obj


# Rows per write of a :class:`Rows` list.
_CHUNK_ROWS = 256


class Rows:
    """A JSON list of ``count`` objects that all have the string keys
    ``keys``, given in sorted order, and only string values that need no
    JSON escape (digits, signs and '/', as :func:`format_ratios` writes
    them).  ``rows(lo, hi)`` gives objects lo..hi-1, each as the tuple of its
    values in key order.  The report encoder writes ``_CHUNK_ROWS`` objects
    per call, each by one format template, without building them."""

    __slots__ = ("keys", "count", "rows")

    def __init__(self, keys: Tuple[str, ...], count: int, rows: Callable[[int, int], Iterable[tuple]]) -> None:
        self.keys, self.count, self.rows = keys, count, rows


def write_json(doc, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2)``, byte for byte, by
    calls ``write(text)``: the one encoder of every report.

    The stdlib runs its pure-Python encoder whenever ``indent`` is set.  Here
    the containers are laid out in Python and every other value goes to
    ``json.dumps``; a :class:`Rows` list is written a run of objects per
    call, so a long one is never held as text."""
    for text in _encode(doc, "\n"):
        write(text)


def dump_json(doc) -> str:
    """:func:`write_json`'s text as one string."""
    out: List[str] = []
    write_json(doc, out.append)
    return "".join(out)


def _encode(obj, nl: str) -> Iterator[str]:
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            yield sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from _encode(value, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            yield sep
            yield from _encode(value, inner)
            sep = "," + inner
        yield nl + "]"
    elif isinstance(obj, Rows):
        if not obj.count:
            yield "[]"
            return
        inner = nl + "  "
        row = "{" + ",".join(f'{inner}  {json.dumps(key).replace("%", "%%")}: "%s"' for key in obj.keys) + inner + "}"
        sep = "[" + inner
        for lo in range(0, obj.count, _CHUNK_ROWS):
            yield sep + ("," + inner).join(map(row.__mod__, obj.rows(lo, lo + _CHUNK_ROWS)))
            sep = "," + inner
        yield nl + "]"
    else:
        yield json.dumps(obj)


# (value, err) forms of the node rules that float evaluation shares between
# one point (``eval_approx``) and a whole grid table (``approx_table``).


def scale_bounds(xv: float, xe: float, af: float) -> Tuple[float, float]:
    """(value, err) form of a * x, af = float(a) and a rational, for hot loops."""
    v = xv * af
    return v, _add_up(_mul_up(xe, abs(af)), _mul_up(abs(xv) + xe, _ulp(af)), _ulp(v))


def sum_bounds(terms: Iterable[Tuple[float, float]]) -> Tuple[float, float]:
    """(value, err) form of the sum of (value, err) terms, for hot loops."""
    v, e = 0.0, 0.0
    for tv, te in terms:
        v += tv
        e = _add_up(e, te, _ulp(v))
    return v, e


# Certified trigonometric primitives.  libm's sin is assumed correct to within
# 2 ulps; the argument-scaling constants below are outward roundings of pi
# and 2*pi, used as Lipschitz factors for input error.
_PI_HI = _up(math.pi)
_TWO_PI_HI = _up(2.0 * math.pi)
_SIN_ULPS = 3.0  # libm slack, in ulps of 1.0


def sin_pi_abs_bounds(xv: float, xe: float) -> Tuple[float, float]:
    """(value, err) form of |sin(pi x)| for hot loops."""
    arg = math.pi * xv
    v = abs(math.sin(arg))
    e = _add_up(
        _mul_up(_PI_HI, xe),               # input uncertainty, Lipschitz pi
        _mul_up(abs(xv), _ulp(math.pi)),   # pi is not exactly representable
        _ulp(arg),                         # rounding of the product
        _SIN_ULPS * _ulp(1.0),             # libm sin
    )
    return v, e


def sin_2pi_bounds(xv: float, xe: float) -> Tuple[float, float]:
    """(value, err) form of sin(2 pi x) for hot loops."""
    arg = 2.0 * math.pi * xv
    v = math.sin(arg)
    e = _add_up(
        _mul_up(_TWO_PI_HI, xe),
        _mul_up(2.0 * abs(xv), _ulp(math.pi)),
        2.0 * _ulp(arg),
        _SIN_ULPS * _ulp(1.0),
    )
    return v, e

