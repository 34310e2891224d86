"""Closed-form upper bounds on cluster-size moments.

Two bound families for a connected D-regular graph on N vertices with edge
probability p, written in terms of nu = (D-1)p and q = 1-p:

* branching bounds: the first two moments of the total progeny of the
  truncated branching envelope (horizon R = N-1) bound E(S) and E(S^2);
* isolation bounds: N - (N-1) q^D and its second-moment analogue, driven by
  the probability q^D that a vertex has no open incident edge.

Neither family dominates the other, so :func:`best_bounds` takes the
componentwise minimum.  All formulas handle the removable singularity at
nu = 1 by switching to the analytic limit inside a small window.  On large
supercritical graphs the branching terms can exceed the double range; they
are then ``inf`` and :func:`best_bounds` falls back to the isolation family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BadParameterError, _check_integer, _check_probability

__all__ = [
    "BoundParams",
    "MomentPair",
    "MOMENT_KINDS",
    "branching_total_first_moment",
    "branching_total_second_moment",
    "branching_bounds",
    "isolation_bounds",
    "best_bounds",
]

# Width of the removable-singularity window around nu = 1.
NU_WINDOW = 1e-9
# Most steps _variance_kernel sums, some 0.15 s on a 2 vCPU host, before
# it takes the closed form: only nu near 1 sums this long.
_KERNEL_STEPS = 10**6
# Largest degree, vertex count or horizon the formulas take: every such
# count is exact in a double, and no product of up to three of them leaves
# the double range.
_MAX_SIZE = 1 << 53

MOMENT_KINDS = ("branching", "isolation", "combined", "exact", "estimate")


def _check_size(name: str, value, low: int) -> int:
    """``value`` as an int in [low, ``_MAX_SIZE``]; a non-integer is refused."""
    value = _check_integer(name, value)
    if value < low:
        raise BadParameterError(f"{name} must be >= {low}, got {value}")
    if value > _MAX_SIZE:
        raise BadParameterError(
            f"{name} of {value.bit_length()} bits is past the cap of 2^53"
        )
    return value


@dataclass(frozen=True)
class MomentPair:
    """A (first, second) moment value pair tagged with its provenance kind."""

    first: float
    second: float
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in MOMENT_KINDS:
            raise BadParameterError(
                f"kind must be one of {MOMENT_KINDS}, got {self.kind!r}"
            )
        slack = 1e-9 * (1.0 + abs(self.second))
        if self.first < 1.0 - slack:
            raise BadParameterError(f"first moment {self.first} below 1")
        if self.second < self.first - slack:
            raise BadParameterError(
                f"second moment {self.second} below first moment {self.first}"
            )


@dataclass(frozen=True)
class BoundParams:
    """Graph-level inputs for the bound formulas, with derived quantities.

    ``nu = (degree-1)*p`` is the subcritical/supercritical dial of the
    branching envelope, ``q = 1-p``, and ``horizon = n_vertices - 1`` is the
    longest possible open path, hence the truncation depth.  ``degree`` and
    ``n_vertices`` must be integers of at most 2^53.
    """

    degree: int
    n_vertices: int
    p: float
    nu: float = field(init=False)
    q: float = field(init=False)
    horizon: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _check_size("degree", self.degree, 1))
        object.__setattr__(self, "n_vertices", _check_size("n_vertices", self.n_vertices, 2))
        object.__setattr__(self, "p", _check_probability(self.p))
        object.__setattr__(self, "nu", (self.degree - 1) * self.p)
        object.__setattr__(self, "q", 1.0 - self.p)
        object.__setattr__(self, "horizon", self.n_vertices - 1)


def _power(base: float, exponent: int) -> float:
    """``base ** exponent`` for ``base >= 0``, or ``inf`` where a double overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _geometric_sum(nu: float, horizon: int) -> float:
    """sum_{n=0}^{horizon-1} nu^n, with the nu -> 1 limit patched in.

    ``inf`` once nu^horizon overflows, which needs nu > 1.
    """
    if abs(1.0 - nu) < NU_WINDOW:
        return float(horizon)
    return (1.0 - _power(nu, horizon)) / (1.0 - nu)


def _variance_kernel(nu: float, horizon: int) -> float:
    """Covariance kernel sum_{m=1}^{R} nu^(R-m) G_m^2, G_m = 1+nu+...+nu^(m-1).

    Algebraically this equals the collapsed bracket
    ((1-nu^R)(1+nu^(R+1))/(1-nu) - 2R nu^R) / (1-nu)^2, but the bracket
    cancels catastrophically near nu = 1 while this sum has only nonnegative
    terms.  Inside the singular window the exact nu = 1 limit is returned:
    R(R+1)(2R+1)/6, the sum of the first R squares, which is also what the
    sum degenerates to there.  Supercritical terms that overflow a double
    become ``inf``, never an error.  The loop stops at the first step that
    changes neither ``partial`` nor ``acc``, or that makes ``acc`` inf:
    ``power`` only falls, so every later step would repeat it.  A sum
    still running after ``_KERNEL_STEPS`` steps (nu just outside the
    window, R past 10^6) gives way to :func:`_collapsed_kernel`.
    """
    r = horizon
    if abs(1.0 - nu) < NU_WINDOW:
        return r * (r + 1) * (2 * r + 1) / 6.0
    partial = 1.0  # G_m, starting at G_1
    power = 1.0  # nu^(m-1)
    acc = 1.0  # Horner form of sum nu^(R-m) G_m^2
    for _ in range(min(r - 1, _KERNEL_STEPS)):
        power *= nu
        grown = partial + power
        step = acc * nu + grown * grown
        if step == math.inf or (grown == partial and step == acc):
            return step
        partial, acc = grown, step
    if r - 1 > _KERNEL_STEPS:
        return _collapsed_kernel(nu, r)
    return acc


def _collapsed_kernel(nu: float, horizon: int) -> float:
    """The variance kernel's collapsed bracket, for nu near 1 and R |1 - nu| > 10^-3.

    ((nu^R - 1)/d (1 + nu^(R+1)) - 2R nu^R) / d^2 with d = nu - 1, exact
    there, nu^R - 1 from ``expm1``.  The bracket cancels to (R d)^2 of its
    terms: relative error about 2^-53 / (R d)^2, 10^-10 at R d = 1.5e-3
    (the loop's: 10^-14).  ``inf`` once nu^R overflows, as the kernel does.
    """
    d = nu - 1.0
    exponent = horizon * math.log1p(d)
    try:
        power = math.exp(exponent)
    except OverflowError:
        return math.inf
    bracket = math.expm1(exponent) / d * (1.0 + power * nu) - 2.0 * horizon * power
    return bracket / (d * d)


def branching_total_first_moment(degree: int, p: float, horizon: int) -> float:
    """E of the branching total 1 + X_1 + ... + X_horizon.

    Equals 1 + D p (1 + nu + ... + nu^(horizon-1)) since each of the D
    first-generation lines is a geometric cascade with ratio nu.
    """
    degree = _check_size("degree", degree, 1)
    horizon = _check_size("horizon", horizon, 1)
    p = _check_probability(p)
    nu = (degree - 1) * p
    return 1.0 + degree * p * _geometric_sum(nu, horizon)


def branching_total_second_moment(degree: int, p: float, horizon: int) -> float:
    """E of the squared branching total, truncated at the horizon.

    Mean squared plus the variance D p (1-p) * kernel(nu, horizon); the
    kernel collapses the double sum of generation covariances.  ``inf``
    where a supercritical term overflows a double.
    """
    degree = _check_size("degree", degree, 1)
    horizon = _check_size("horizon", horizon, 1)
    mean = branching_total_first_moment(degree, p, horizon)
    scale = degree * p * (1.0 - p)
    if scale == 0.0:  # p in {0, 1}: the total is deterministic
        return _power(mean, 2)
    nu = (degree - 1) * p
    return _power(mean, 2) + scale * _variance_kernel(nu, horizon)


def branching_bounds(params: BoundParams) -> MomentPair:
    """Moment bounds from the truncated branching envelope."""
    return MomentPair(
        first=branching_total_first_moment(params.degree, params.p, params.horizon),
        second=branching_total_second_moment(params.degree, params.p, params.horizon),
        kind="branching",
    )


def isolation_bounds(params: BoundParams) -> MomentPair:
    """Moment bounds from the isolated-vertex probability q^D.

    S <= N minus the number of isolated vertices other than the start, so
    E(S) <= N - (N-1) q^D; squaring before taking expectations gives the
    second-moment form with the pair term q^(2D-1) (two isolated vertices
    share at most one potential edge on a regular graph, none if D >= 2 and
    they are non-adjacent, one if adjacent; 2D-1 closed edges suffice).
    """
    n, d, q = params.n_vertices, params.degree, params.q
    first = n - (n - 1) * q**d
    second = n * n - (n - 1) * (2 * n - 1) * q**d + (n - 1) * (n - 2) * q ** (2 * d - 1)
    return MomentPair(first=first, second=second, kind="isolation")


def _combined(a: MomentPair, b: MomentPair) -> MomentPair:
    """Componentwise minimum of two bound pairs, of kind "combined"."""
    return MomentPair(first=min(a.first, b.first), second=min(a.second, b.second), kind="combined")


def best_bounds(params: BoundParams) -> MomentPair:
    """Componentwise minimum of the two bound families."""
    return _combined(branching_bounds(params), isolation_bounds(params))
