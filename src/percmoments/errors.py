"""Exception hierarchy shared by all percmoments modules.

Each class also carries a short machine-readable ``name`` used by the CLI
when emitting errors in JSON mode.  The argument checks every module shares,
:func:`_check_integer` and :func:`_check_probability`, live here too, so
that no module imports another only for them.
"""

from __future__ import annotations

import operator

__all__ = [
    "PercmomentsError",
    "GraphConstructionError",
    "NotRegularError",
    "NotConnectedError",
    "NotSimpleError",
    "BadIndexError",
    "BadParameterError",
    "BadProbabilityError",
    "InfeasibleError",
    "RetryLimitError",
    "TooManyEdgesError",
]


class PercmomentsError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def name(self) -> str:
        n = type(self).__name__
        return n[:-5] if n.endswith("Error") else n


class GraphConstructionError(PercmomentsError, ValueError):
    """A graph failed validation at build time."""


class NotRegularError(GraphConstructionError):
    """Vertex degrees are not all equal."""


class NotConnectedError(GraphConstructionError):
    """The graph is not connected."""


class NotSimpleError(GraphConstructionError):
    """Self-loop or duplicate edge."""


class BadIndexError(PercmomentsError, IndexError):
    """Vertex or edge index out of range."""


class BadParameterError(PercmomentsError, ValueError):
    """A numeric or structural parameter violates a precondition."""


class BadProbabilityError(BadParameterError):
    """Probability outside [0, 1]."""


class InfeasibleError(PercmomentsError, ValueError):
    """No graph with the requested parameters exists (e.g. N*D odd)."""


class RetryLimitError(PercmomentsError, RuntimeError):
    """Randomized construction failed after the configured attempts."""


class TooManyEdgesError(PercmomentsError, ValueError):
    """Graph exceeds the exact layer's edge cap or the DP's frontier-width or work cap."""


def _check_integer(name: str, value) -> int:
    """``value`` as an int; a bool, float, string or None is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadParameterError(f"{name} must be an integer, got {value!r}")


def _check_probability(p: float) -> float:
    try:
        value = float(p)
    except (TypeError, ValueError):
        raise BadProbabilityError(f"p must be a number in [0, 1], got {p!r}") from None
    if not 0.0 <= value <= 1.0:
        raise BadProbabilityError(f"p must be in [0, 1], got {value}")
    return value
