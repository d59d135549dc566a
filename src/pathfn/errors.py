"""Exception taxonomy shared across the toolkit, and the cap rule every
entry point refuses oversized work by.  The rule lives here, beside
:class:`ResourceLimitError`, so that the CLI can apply it without importing
a scan layer."""

from __future__ import annotations

from typing import Optional

from .core.scalars import _PRINTED_BITS


class PathfnError(Exception):
    """Base class for all domain errors."""


class FuncSpecError(PathfnError, ValueError):
    """Malformed or semantically invalid function-spec document."""


class UnsupportedExactError(PathfnError):
    """Exact evaluation requested for a function with no exact branch
    (anything containing |sin pi x| or sin 2 pi x)."""


class OrbitLimitError(PathfnError):
    """Exact series evaluation refused before any value work: the
    multiply-by-r orbit of an argument would add more entries than the cap
    to a series node's table (its cycle is too long)."""


class ResourceLimitError(PathfnError):
    """A scan would exceed the configured cap on its triplet count or on the
    size of its grid table."""


class FlowConditionError(PathfnError):
    """Grid-flow hypothesis violated: t below the admissible threshold for
    the requested depth, or no evidence the initial function satisfies the
    lower-bound inequality at the stated constant."""


class AmbiguousEnvelopeError(PathfnError):
    """Float-mode envelope construction hit a comparison that is undecidable
    within the certified error bounds; exact mode is required."""


DEFAULT_TRIPLET_CAP = 10**7


def cap_depth(depth: int, cap: int) -> int:
    """``depth``, clamped so that r^depth can be built at once for a cap check.

    A clamped depth d still gives r^d >= 2^d > cap, and counts of more than
    ``_PRINTED_BITS`` bits, so a count built from it is refused just as the
    true one, as "at least 2^K"."""
    return min(depth, max(cap.bit_length(), _PRINTED_BITS) + 1)


def _count_text(count: int) -> str:
    bits = count.bit_length()
    return str(count) if bits <= _PRINTED_BITS else f"at least 2^{bits - 1}"


def check_scan_cap(cap: int, count: int, grid: Optional[int] = None, unit: str = "triplets") -> None:
    """Refuse a scan of more than ``cap`` ``unit`` (triplets by default), or
    one whose grid table {j/grid} would hold more than ``cap`` points."""
    if count > cap:
        raise ResourceLimitError(f"scan of {_count_text(count)} {unit} exceeds cap {cap}")
    if grid is not None and grid + 1 > cap:
        raise ResourceLimitError(f"grid table of {_count_text(grid + 1)} points exceeds cap {cap}")
