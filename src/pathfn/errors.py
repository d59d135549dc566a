"""Exception taxonomy shared across the toolkit."""


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
