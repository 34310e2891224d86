"""Reproducible Monte Carlo estimation of cluster-size moments.

Replicate r of a run with seed s is a pure function of (s, r): its uniforms
come from counter-based streams (see :mod:`percmoments.rng`), draw 0 picking
the start vertex and draws 1..|E| the edge states.  Replicates are processed
in fixed blocks whose partial statistics are merged in block order, so
results are bit-identical for any worker count, and any single replicate can
be reconstructed in isolation for auditing.

Cluster sizes are computed for a whole block at once: a boolean membership
matrix (vertices x replicates) is grown by sweeping the edge list until a
fixpoint, which reaches the full open cluster of each start vertex.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundParams, MomentPair, best_bounds, branching_bounds, isolation_bounds
from .errors import BadParameterError
from .graphs import Graph
from .oracle import moment_polynomial
from .percolation import EdgeConfig, _check_probability
from .rng import derive_key, edge_draws, uniform_matrix
from .stats import RunningMoments

__all__ = [
    "MomentEstimate",
    "SweepRow",
    "SweepResult",
    "estimate_moments",
    "replicate_realization",
    "sweep",
]

_BLOCK = 8192


@dataclass(frozen=True)
class MomentEstimate:
    """Sample means of S and S^2 with their standard errors."""

    mean_s: float
    se_s: float
    mean_s2: float
    se_s2: float
    replicates: int
    seed: int


@dataclass(frozen=True)
class SweepRow:
    p: float
    branching: MomentPair
    isolation: MomentPair
    combined: MomentPair
    estimate: MomentEstimate
    exact: MomentPair | None = None


@dataclass(frozen=True)
class SweepResult:
    graph_label: str
    n_vertices: int
    degree: int
    replicates: int
    seed: int
    rows: tuple[SweepRow, ...] = field(repr=False)


def _block_draws(
    graph: Graph, p: float, seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start vertices and edge-major open flags of replicates [lo, hi)."""
    n = graph.n_vertices
    u0, open_edges = edge_draws(seed, lo, hi - lo, graph.n_edges, p)
    starts = np.minimum((u0 * n).astype(np.int64), n - 1)
    return starts, open_edges


def _relax_edges(
    edges: tuple[tuple[int, int], ...], open_edges: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> None:
    """Spread ``src`` one open edge into ``dst``, per replicate column.

    With ``src is dst`` a sweep can cross several edges (the fixpoint's
    in-place pass); with distinct arrays it is one exact BFS step.
    """
    for e, (v0, v1) in enumerate(edges):
        t = open_edges[e]
        dst[v1] |= src[v0] & t
        dst[v0] |= src[v1] & t


def _block_cluster_sizes(
    graph: Graph, p: float, seed: int, lo: int, hi: int
) -> np.ndarray:
    """Cluster sizes of replicates [lo, hi) as an int64 array."""
    n = graph.n_vertices
    b = hi - lo
    starts, open_edges = _block_draws(graph, p, seed, lo, hi)

    member = np.zeros((n, b), dtype=bool)
    member[starts, np.arange(b)] = True
    prev = b
    for _ in range(n - 1):
        _relax_edges(graph.edges, open_edges, member, member)
        cur = int(member.sum())
        if cur == prev:
            break
        prev = cur
    return member.sum(axis=0, dtype=np.int64)


def replicate_realization(
    graph: Graph, p: float, seed: int, index: int
) -> tuple[int, EdgeConfig]:
    """Reconstruct the (start vertex, edge config) of one replicate.

    Uses the same stream layout as :func:`estimate_moments`, so the returned
    realization is exactly what replicate ``index`` of a run saw.
    """
    p = _check_probability(p)
    if index < 0:
        raise BadParameterError(f"replicate index must be >= 0, got {index}")
    u = uniform_matrix(seed, index, 1, graph.n_edges + 1)[0]
    n = graph.n_vertices
    x = min(int(u[0] * n), n - 1)
    flags = tuple(bool(ui < p) for ui in u[1:])
    return x, EdgeConfig(open_flags=flags, p=p)


def _block_stats(
    graph: Graph, p: float, seed: int, lo: int, hi: int
) -> tuple[RunningMoments, RunningMoments]:
    sizes = _block_cluster_sizes(graph, p, seed, lo, hi).astype(np.float64)
    acc_s, acc_s2 = RunningMoments(), RunningMoments()
    acc_s.add_batch(sizes)
    acc_s2.add_batch(sizes * sizes)
    return acc_s, acc_s2


def estimate_moments(
    graph: Graph, p: float, replicates: int, seed: int, workers: int = 1
) -> MomentEstimate:
    """Monte Carlo estimate of E(S) and E(S^2) from i.i.d. realizations.

    Deterministic in (seed, replicates): the worker count changes only how
    blocks are scheduled, never what they compute or the merge order.
    """
    p = _check_probability(p)
    if replicates < 2:
        raise BadParameterError(f"need at least 2 replicates, got {replicates}")
    if workers < 1:
        raise BadParameterError(f"workers must be >= 1, got {workers}")

    bounds_list = [(lo, min(lo + _BLOCK, replicates)) for lo in range(0, replicates, _BLOCK)]
    if workers == 1:
        partials = [_block_stats(graph, p, seed, lo, hi) for lo, hi in bounds_list]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(
                pool.map(lambda span: _block_stats(graph, p, seed, *span), bounds_list)
            )

    acc_s = RunningMoments()
    acc_s2 = RunningMoments()
    for part_s, part_s2 in partials:
        acc_s.merge(part_s)
        acc_s2.merge(part_s2)

    return MomentEstimate(
        mean_s=acc_s.mean,
        se_s=acc_s.standard_error,
        mean_s2=acc_s2.mean,
        se_s2=acc_s2.standard_error,
        replicates=replicates,
        seed=seed,
    )


def sweep(
    graph: Graph,
    p_grid: list[float] | tuple[float, ...] | np.ndarray,
    replicates: int,
    seed: int,
    include_oracle: bool = False,
    workers: int = 1,
    max_oracle_edges: int | None = None,
) -> SweepResult:
    """Bounds, estimates, and optionally exact values over a grid of p.

    Rows come out sorted by p.  Each grid point gets its own derived seed
    from (seed, sorted position), so points are independent and the whole
    sweep is reproducible.  With ``include_oracle`` the configuration
    enumeration runs once, as a polynomial in p evaluated per point.
    """
    grid = sorted(float(p) for p in p_grid)
    if not grid:
        raise BadParameterError("p grid is empty")
    for p in grid:
        _check_probability(p)

    poly = moment_polynomial(graph, max_oracle_edges) if include_oracle else None

    rows = []
    for i, p in enumerate(grid):
        point_seed = derive_key(seed, i)
        params = BoundParams(degree=graph.degree, n_vertices=graph.n_vertices, p=p)
        rows.append(
            SweepRow(
                p=p,
                branching=branching_bounds(params),
                isolation=isolation_bounds(params),
                combined=best_bounds(params),
                estimate=estimate_moments(graph, p, replicates, point_seed, workers),
                exact=poly.evaluate(p) if poly is not None else None,
            )
        )
    return SweepResult(
        graph_label=graph.label,
        n_vertices=graph.n_vertices,
        degree=graph.degree,
        replicates=replicates,
        seed=seed,
        rows=tuple(rows),
    )
