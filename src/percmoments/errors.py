"""Exception hierarchy shared by all percmoments modules.

Each class also carries a short machine-readable ``name`` used by the CLI
when emitting errors in JSON mode.
"""

from __future__ import annotations

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
