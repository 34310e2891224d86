"""Layered growth of an open cluster and its branching-process envelope.

The *birth process* replays a percolation realization as generations of
particles: generation 0 is the start vertex, and each particle claims the
still-empty neighbors it can reach through open edges.  Generation ``n``
therefore occupies exactly the vertices at open-path distance ``n``, and the
particle count summed over generations equals the cluster size.

The *branching process* is the same growth with the vacancy constraint
dropped: the first individual has ``Binomial(D, p)`` offspring and every
later individual ``Binomial(D-1, p)``.  Its generation sizes stochastically
dominate the birth process; :func:`dominance_report` checks this empirically
via tail probabilities.

:func:`run_birth_process` grows one trace, with per-particle detail.
:func:`dominance_report` needs only the generation counts of many
realizations, so it draws them as Monte Carlo does: birth replicate ``r``
of seed ``s`` is replicate ``r`` of :func:`~percmoments.estimate_moments`
(counter-based streams, see :mod:`percmoments.rng`), and blocks of 8192
replicates advance together in a level-synchronous breadth-first search
over a (vertices x replicates) boolean matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterError
from .graphs import Graph
from .montecarlo import _BLOCK, _block_draws, _edge_plan, _relax_edges
from .percolation import (
    EdgeConfig,
    _check_config,
    _check_integer,
    _check_probability,
    _check_vertex,
)

__all__ = [
    "GenerationTrace",
    "TailRow",
    "DominanceReport",
    "run_birth_process",
    "branching_generation_samples",
    "dominance_report",
]

# Largest generation size that can still be fed to a 64-bit binomial sampler.
_SIZE_LIMIT = 1 << 62
# Largest N x replicates accepted by dominance_report: the birth counts and
# the branching samples are each one int64 matrix of that many cells (1 GiB).
MAX_DOMINANCE_CELLS = 1 << 27


@dataclass(frozen=True)
class GenerationTrace:
    """Per-generation record of one birth process.

    ``layers[n]`` lists the vertices first occupied at generation ``n`` (in
    claim order), ``counts[n]`` its cardinality, and
    ``per_particle_offspring[n][i]`` the number of children of the ``i``-th
    particle of generation ``n``.  All three are padded with empties out to
    generation ``N - 1``, after which nothing can grow.
    """

    start_vertex: int
    layers: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    per_particle_offspring: tuple[tuple[int, ...], ...]

    @property
    def total(self) -> int:
        """Total particle count; equals the cluster size of the start vertex."""
        return sum(self.counts)


def run_birth_process(graph: Graph, config: EdgeConfig, x: int) -> GenerationTrace:
    """Grow the open cluster of ``x`` generation by generation.

    Particles within a generation act sequentially in canonical order
    (parent order, then adjacency order), which makes traces reproducible.
    Layers as sets and counts do not depend on that order; only the
    parent/child attribution would move.
    """
    x = _check_vertex(graph, x)
    _check_config(graph, config)

    open_adj: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for is_open, (u, v) in zip(config.open_flags, graph.edges):
        if is_open:
            open_adj[u].append(v)
            open_adj[v].append(u)
    for lst in open_adj:
        lst.sort()

    occupied = bytearray(graph.n_vertices)
    occupied[x] = 1
    layers = [(x,)]
    offspring: list[tuple[int, ...]] = []
    current = [x]

    while current and len(layers) < graph.n_vertices:
        next_layer: list[int] = []
        counts_here: list[int] = []
        for z in current:
            born = 0
            for y in open_adj[z]:
                if not occupied[y]:
                    occupied[y] = 1
                    next_layer.append(y)
                    born += 1
            counts_here.append(born)
        offspring.append(tuple(counts_here))
        if next_layer:
            layers.append(tuple(next_layer))
        current = next_layer

    n = graph.n_vertices
    while len(layers) < n:
        layers.append(())
    while len(offspring) < n:
        offspring.append(())

    return GenerationTrace(
        start_vertex=x,
        layers=tuple(layers),
        counts=tuple(len(layer) for layer in layers),
        per_particle_offspring=tuple(offspring),
    )


def _check_branching_args(
    degree: int, p: float, horizon: int, replicates: int
) -> tuple[int, float, int, int]:
    degree = _check_integer("degree", degree)
    horizon = _check_integer("horizon", horizon)
    replicates = _check_integer("replicates", replicates)
    if degree < 1:
        raise BadParameterError(f"degree must be >= 1, got {degree}")
    if horizon < 1:
        raise BadParameterError(f"horizon must be >= 1, got {horizon}")
    if replicates < 1:
        raise BadParameterError(f"replicates must be >= 1, got {replicates}")
    if replicates * (horizon + 1) > MAX_DOMINANCE_CELLS:
        raise BadParameterError(
            f"{replicates} replicates x {horizon + 1} generations exceed the "
            f"{MAX_DOMINANCE_CELLS} cells of a branching sample"
        )
    return degree, _check_probability(p), horizon, replicates


def branching_generation_samples(
    degree: int, p: float, horizon: int, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """Generation sizes ``X_0 .. X_horizon`` of independent branching runs.

    Returns a matrix of shape (replicates, horizon+1).  Generation 1 is
    ``Binomial(D, p)``; thereafter each of the ``X_n`` individuals
    contributes ``Binomial(D-1, p)`` offspring, drawn as the aggregate
    ``Binomial(X_n * (D-1), p)`` (same distribution, one draw per run).
    Non-integer arguments, and more than ``MAX_DOMINANCE_CELLS`` cells of
    that matrix, are refused before it is allocated.
    """
    degree, p, horizon, replicates = _check_branching_args(degree, p, horizon, replicates)
    out = np.zeros((replicates, horizon + 1), dtype=np.int64)
    out[:, 0] = 1
    out[:, 1] = rng.binomial(degree, p, size=replicates)
    for n in range(2, horizon + 1):
        trials = out[:, n - 1] * (degree - 1)
        if trials.max(initial=0) > _SIZE_LIMIT:
            raise BadParameterError("branching generation size exceeds 2^62")
        out[:, n] = rng.binomial(trials, p)
    return out


# ---------------------------------------------------------------------------
# tail-probability comparison of birth vs branching generations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailRow:
    """Empirical P(Y_n >= k) vs P(X_n >= k) with standard errors."""

    generation: int
    k: int
    birth_tail: float
    branching_tail: float
    birth_se: float
    branching_se: float
    within_tolerance: bool


@dataclass(frozen=True)
class DominanceReport:
    degree: int
    p: float
    horizon: int
    replicates: int
    seed: int
    rows: tuple[TailRow, ...] = field(repr=False)

    def violations(self) -> tuple[TailRow, ...]:
        return tuple(r for r in self.rows if not r.within_tolerance)


def _tails(values: np.ndarray, k_max: int, replicates: int) -> tuple[np.ndarray, np.ndarray]:
    hist = np.bincount(np.minimum(values, k_max), minlength=k_max + 1)
    above = np.cumsum(hist[::-1])[::-1]  # above[k] = #{v >= k}
    tail = above[1:] / replicates
    se = np.sqrt(tail * (1.0 - tail) / replicates)
    return tail, se


def _birth_counts(graph: Graph, p: float, seed: int, replicates: int) -> np.ndarray:
    """Birth-process generation counts of replicates ``0 .. replicates-1``.

    Entry ``[n, r]`` is the size of generation ``n`` of replicate ``r``, the
    number of vertices at open-path distance ``n`` from its start vertex;
    it equals ``run_birth_process(graph, config, x).counts[n]`` for
    ``(x, config) = replicate_realization(graph, p, seed, r)``.
    """
    n = graph.n_vertices
    plan = _edge_plan(graph)
    counts = np.zeros((n, replicates), dtype=np.int64)
    counts[0] = 1
    for lo in range(0, replicates, _BLOCK):
        hi = min(lo + _BLOCK, replicates)
        b = hi - lo
        starts, open_edges = _block_draws(graph, plan.order, p, seed, lo, hi)
        frontier = np.zeros((n, b), dtype=bool)
        frontier[starts, np.arange(b)] = True
        reach = frontier.copy()
        born = np.empty_like(frontier)
        for gen in range(1, n):
            born.fill(False)
            _relax_edges(plan, open_edges, frontier, born)
            np.greater(born, reach, out=born)  # born and not yet reached
            if not born.any():
                break
            reach |= born
            counts[gen, lo:hi] = born.sum(axis=0)
            frontier, born = born, frontier
    return counts


def dominance_report(graph: Graph, p: float, replicates: int, seed: int) -> DominanceReport:
    """Compare birth-process and branching generation sizes tail by tail.

    Birth sample ``r`` is Monte Carlo replicate ``r`` of ``seed``: the same
    counter-based streams as :func:`~percmoments.estimate_moments`, so
    ``replicate_realization(graph, p, seed, r)`` reconstructs its start
    vertex and edge configuration, and :func:`run_birth_process` on them
    reproduces its generation counts.  Branching samples are independent
    runs with the same degree and probability, drawn from
    ``numpy.random.default_rng(seed)`` and truncated at horizon ``N - 1``
    (both ensembles then span generations ``0 .. N-1``).  A row is flagged
    when the birth tail exceeds the branching tail by more than three
    standard errors of the difference.  Runs of more than
    ``MAX_DOMINANCE_CELLS`` vertex-replicate cells are refused before any
    sampling.
    """
    p = _check_probability(p)
    replicates = _check_integer("replicates", replicates)
    seed = _check_integer("seed", seed)
    if replicates < 1:
        raise BadParameterError(f"replicates must be >= 1, got {replicates}")
    if seed < 0:
        raise BadParameterError(f"seed must be >= 0, got {seed}")
    if graph.n_vertices * replicates > MAX_DOMINANCE_CELLS:
        raise BadParameterError(
            f"{replicates} replicates on {graph.n_vertices} vertices exceed the "
            f"{MAX_DOMINANCE_CELLS} vertex-replicate cells of a dominance run"
        )

    horizon = graph.n_vertices - 1
    birth = _birth_counts(graph, p, seed, replicates)
    branching = branching_generation_samples(
        graph.degree, p, horizon, replicates, np.random.default_rng(seed)
    )

    rows: list[TailRow] = []
    for gen in range(horizon + 1):
        y = birth[gen]
        xg = branching[:, gen]
        k_max = max(1, int(y.max()), int(xg.max()))
        y_tail, y_se = _tails(y, k_max, replicates)
        x_tail, x_se = _tails(xg, k_max, replicates)
        for k in range(1, k_max + 1):
            se_diff = float(np.hypot(y_se[k - 1], x_se[k - 1]))
            rows.append(
                TailRow(
                    generation=gen,
                    k=k,
                    birth_tail=float(y_tail[k - 1]),
                    branching_tail=float(x_tail[k - 1]),
                    birth_se=float(y_se[k - 1]),
                    branching_se=float(x_se[k - 1]),
                    within_tolerance=bool(
                        y_tail[k - 1] <= x_tail[k - 1] + 3.0 * se_diff
                    ),
                )
            )
    return DominanceReport(
        degree=graph.degree,
        p=p,
        horizon=horizon,
        replicates=replicates,
        seed=seed,
        rows=tuple(rows),
    )
