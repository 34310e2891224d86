"""Layered growth of an open cluster and its branching-process envelope.

The *birth process* replays a percolation realization as generations of
particles: generation 0 is the start vertex, and each particle claims the
still-empty neighbors it can reach through open edges.  Generation ``n``
therefore occupies exactly the vertices at open-path distance ``n``, and the
particle count summed over generations equals the cluster size.

The *branching process* is the same growth with the vacancy constraint
dropped: the first individual has ``Binomial(D, p)`` offspring and every
later individual ``Binomial(D-1, p)``.  Its generation sizes stochastically
dominate the birth process; :func:`dominance_report` checks this tail by
tail against the exact branching law.

:func:`run_birth_process` grows one trace, with per-particle detail.
:func:`dominance_report` needs only the generation counts of many
realizations, so it draws them as Monte Carlo does: birth replicate ``r``
of seed ``s`` is replicate ``r`` of :func:`~percmoments.estimate_moments`
(counter-based streams, see :mod:`percmoments.rng`), and blocks of
replicates advance together in a level-synchronous breadth-first search
over (vertices x replicates) matrices bit-packed eight replicates per byte,
one pull step of the Monte Carlo cluster kernel per generation.  A block
is as wide as the Monte Carlo span budget allows and its per-replicate
words fit ``_BIRTH_BYTES``: 32768 replicates on a Platonic solid, fewer
where the span budget binds first (a 3-regular graph of more than 240
vertices).  Each generation of a block is reduced to a histogram of its
sizes as it is born, so no (generations x replicates) matrix is held.
The branching tails are exact: generation ``n`` has the pgf F_1(G^(n-1)(s)),
F_1(s) = (q+ps)^D and G(s) = (q+ps)^(D-1) (Harris 1963; Athreya & Ney
1972).  :func:`branching_generation_samples` samples that law from a
caller's generator and is their independent reference.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import BadParameterError
from .graphs import Graph, _check_integer, _check_vertex
from .montecarlo import (
    _borrowed_workspace,
    _column_counts,
    _edge_plan,
    _packed_starts,
    _relax_edges,
    _span_flags,
    _span_starts,
    _span_width,
)
from .percolation import EdgeConfig, _check_config, _check_probability

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
# Largest N x replicates accepted by dominance_report, generations x
# replicates by branching_generation_samples, and coefficient updates of a
# report's exact branching tails: it bounds the sampling work of a report,
# its pgf iteration, and the int64 matrix (1 GiB) the public sampler returns.
MAX_DOMINANCE_CELLS = 1 << 27
# Most (generation, k) rows a dominance table may have.  A generation has a
# row per k up to its largest birth size, at most N - 1, so long ring-like
# graphs (about 7 * 10^5 vertices and more) pass it; each row's histogram
# slot is allocated first.
MAX_TAIL_ROWS = 1 << 20
# 8-byte words a birth block holds per replicate: stream key, start uniform,
# start vertex (then generation size) and mixing scratch.
_BIRTH_WORDS = 4
# Bytes of those words in one birth block: 32768 replicates.  On a small
# graph they are most of its bytes (dodecahedron: 32 of 43 per replicate)
# and the span budget would let one block take a whole run.  On the
# dominance benchmark (two solids at 60 000 replicates, 2 vCPUs) the birth
# phase took ~30% less time than in 8192-replicate blocks (23 against 32
# ms) at no higher peak RSS (median 44.96 against 45.08 MB); one block of
# 60 000 was no faster and raised it to 46.3-46.7 MB.  On a 3-regular
# graph of more than 240 vertices the span budget binds first.
_BIRTH_BYTES = 1 << 20


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
    that matrix, are refused before it is allocated; a generation whose
    offspring trials would pass 2^62 is refused before it is drawn.
    """
    degree, p, horizon, replicates = _check_branching_args(degree, p, horizon, replicates)
    out = np.zeros((replicates, horizon + 1), dtype=np.int64)
    out[:, 0] = 1
    out[:, 1] = rng.binomial(degree, p, size=replicates)
    limit = _SIZE_LIMIT // max(degree - 1, 1)  # compared before the product can wrap
    for n in range(2, horizon + 1):
        if out[:, n - 1].max() > limit:
            raise BadParameterError("branching generation size exceeds 2^62")
        out[:, n] = rng.binomial(out[:, n - 1] * (degree - 1), p)
    return out


def _branching_tails(degree: int, p: float, k_max: Sequence[int]) -> list[np.ndarray]:
    """Exact ``P(X_n >= k)``, ``k = 1 .. k_max[n]``, of the branching process's generations.

    Iterates the truncated pgf in float64: ``H <- (q + p H)^(D-1)`` from
    ``H = s``, and generation ``n >= 1`` has the pmf ``(q + p H_(n-1))^D``.
    Generation ``n`` is truncated at degree ``K``, the largest ``k_max`` of
    it and every later generation; the maps are polynomials, so its
    coefficients up to ``K`` are exact.  Each tail is ``1 - cumsum(pmf)``,
    clipped to [0, 1] against rounding.  The sum over generations of
    ``D * K^2`` coefficient updates is refused past ``MAX_DOMINANCE_CELLS``
    before any convolution.
    """
    tops = list(accumulate(reversed(k_max), max))[::-1]
    updates = sum(degree * top * top for top in tops[1:])
    if updates > MAX_DOMINANCE_CELLS:
        raise BadParameterError(
            f"exact branching tails take {updates} coefficient updates, over the "
            f"{MAX_DOMINANCE_CELLS} of a dominance run"
        )
    q = 1.0 - p
    h = pmf = np.eye(1, tops[0] + 1, 1)[0]  # s: X_0 = 1
    tails = []
    for n, (k, top) in enumerate(zip(k_max, tops)):
        if n:
            base = p * h[: top + 1]
            base[0] += q
            h = np.eye(1, top + 1)[0]
            for _ in range(degree - 1):
                h = np.convolve(h, base)[: top + 1]
            pmf = np.convolve(h, base)[: top + 1]
        tails.append(np.clip(1.0 - np.cumsum(pmf[:k]), 0.0, 1.0))
    return tails


# ---------------------------------------------------------------------------
# tail-probability comparison of birth vs branching generations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailRow:
    """Sampled P(Y_n >= k) vs exact P(X_n >= k), with the standard errors of samples."""

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


def _tails(hist: np.ndarray, k_max: int, replicates: int) -> np.ndarray:
    """P(v >= k) for k = 1 .. k_max over the replicates counted in ``hist``.

    ``hist[v]`` counts the replicates of size ``v``, none above
    ``hist.size - 1 <= k_max``.  Its entry at 0 does not enter a tail.
    """
    counts = np.zeros(k_max + 1, dtype=np.int64)
    counts[: hist.size] = hist
    above = np.cumsum(counts[::-1])[::-1]  # above[k] = #{v >= k}
    return above[1:] / replicates


def _birth_width(graph: Graph) -> int:
    """Replicates of one birth block: as many as the span budget and ``_BIRTH_BYTES`` allow."""
    return min(_span_width(graph), _BIRTH_BYTES // (8 * _BIRTH_WORDS))


def _birth_counts(
    graph: Graph, p: float, seed: int, replicates: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Birth-process generation counts of replicates ``0 .. replicates-1``, block by block.

    Yields ``(n, lo, sizes)`` for each generation ``n >= 1`` in which some
    replicate of the block ``[lo, lo + sizes.size)`` grows.  ``sizes[i]``
    is the size of generation ``n`` of replicate ``lo + i``, the number of
    vertices at open-path distance ``n`` from its start vertex; it equals
    ``run_birth_process(graph, config, x).counts[n]`` for ``(x, config) =
    replicate_realization(graph, p, seed, lo + i)``.  Generation 0 is 1
    in every replicate, and a generation not yielded is 0 in the block.
    The blocks' buffers, ``sizes`` too, are one workspace's, so ``sizes``
    holds until the next step.
    """
    n = graph.n_vertices
    plan = _edge_plan(graph)
    width = _birth_width(graph)
    with _borrowed_workspace() as work:
        for lo in range(0, replicates, width):
            hi = min(lo + width, replicates)
            keys, starts = _span_starts(graph, seed, lo, hi, work)
            open_slots = _span_flags(graph, plan, p, keys, work)
            frontier = _packed_starts(n, starts, work)
            unreached = np.invert(frontier, out=work("unreached", frontier.shape, np.uint8))
            # padding bits set in unreached never reach born
            born = work("born", frontier.shape, np.uint8)
            sizes = starts  # packed into frontier, so their buffer takes the sizes
            for gen in range(1, n):
                born.fill(0)
                _relax_edges(plan, open_slots, frontier, born, work)
                born &= unreached
                if not born.any():
                    break
                unreached ^= born
                _column_counts(born, sizes, work)
                yield gen, lo, sizes
                frontier, born = born, frontier


def dominance_report(graph: Graph, p: float, replicates: int, seed: int) -> DominanceReport:
    """Compare birth-process generation sizes with the exact branching law, tail by tail.

    Birth sample ``r`` is Monte Carlo replicate ``r`` of ``seed``: the same
    counter-based streams as :func:`~percmoments.estimate_moments`, so
    ``replicate_realization(graph, p, seed, r)`` reconstructs its start
    vertex and edge configuration, and :func:`run_birth_process` on them
    reproduces its generation counts.  Generation ``n`` (``0 .. N-1``) has a
    row per ``k`` up to its largest birth size, at least 1.  Branching
    tails are exact, and ``branching_se`` is the standard error a tail
    sampled from ``replicates`` runs would have at that value.  A row is
    flagged when the birth tail exceeds the branching tail by more than
    three standard errors of the difference.  Runs of more than
    ``MAX_DOMINANCE_CELLS`` vertex-replicate cells are refused before any
    sampling, tables of more than ``MAX_TAIL_ROWS`` rows as soon as a
    generation's largest size shows it, before its histogram or any row,
    and exact tails over their own budget before any is computed.
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
    if graph.n_vertices > MAX_TAIL_ROWS:
        raise BadParameterError(
            f"{graph.n_vertices} generations exceed the {MAX_TAIL_ROWS} rows of a "
            f"dominance table"
        )

    horizon = graph.n_vertices - 1
    k_max = [1] * (horizon + 1)  # rows of each generation: its largest birth size, at least 1
    n_rows = horizon + 1
    birth: dict[int, np.ndarray] = {0: np.array([0, replicates])}
    for gen, _, sizes in _birth_counts(graph, p, seed, replicates):
        top = int(sizes.max())
        if top > k_max[gen]:
            n_rows += top - k_max[gen]
            k_max[gen] = top
            if n_rows > MAX_TAIL_ROWS:
                raise BadParameterError(
                    f"dominance table exceeds {MAX_TAIL_ROWS} rows: generation {gen} "
                    f"reaches size {top}"
                )
        new = np.bincount(sizes)
        old = birth.get(gen)
        if old is None:
            birth[gen] = new
        elif old.size >= new.size:
            old[: new.size] += new
        else:
            new[: old.size] += old
            birth[gen] = new

    rows: list[TailRow] = []
    no_sizes = np.zeros(1, dtype=np.int64)
    branching = _branching_tails(graph.degree, p, k_max)
    for gen, (k_top, x_tail) in enumerate(zip(k_max, branching)):
        y_tail = _tails(birth.get(gen, no_sizes), k_top, replicates)
        y_se, x_se = np.sqrt([t * (1.0 - t) / replicates for t in (y_tail, x_tail)])
        within = y_tail <= x_tail + 3.0 * np.hypot(y_se, x_se)
        columns = (y_tail, x_tail, y_se, x_se, within)
        rows.extend(
            TailRow(gen, k, *values)
            for k, *values in zip(range(1, k_top + 1), *(c.tolist() for c in columns))
        )
    return DominanceReport(
        degree=graph.degree,
        p=p,
        horizon=horizon,
        replicates=replicates,
        seed=seed,
        rows=tuple(rows),
    )
