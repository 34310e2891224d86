"""Reproducible Monte Carlo estimation of cluster-size moments.

Replicate r of a run with seed s is a pure function of (s, r): its uniforms
come from counter-based streams (see :mod:`percmoments.rng`), draw 0 picking
the start vertex and draws 1..|E| the edge states.  Replicates are processed
in fixed blocks whose partial statistics are merged in block order, so
results are bit-identical for any worker count, and any single replicate can
be reconstructed in isolation for auditing.

Cluster sizes are computed for a whole block at once: a boolean membership
matrix (vertices x replicates) is grown by passes over the edge list until a
fixpoint, which reaches the full open cluster of each start vertex.  Sizes
are integers fixed by connectivity, so neither the order of the edges within
a pass nor the number of passes can change a result.

* **Matching classes.**  Once per call, the edge list is split by greedy
  edge colouring into at most ``2D - 1`` matchings, in which no vertex
  appears twice.  The block's open flags are drawn with their rows in class
  order (see :func:`percmoments.rng.edge_draws`), and a pass relaxes a
  class in pieces of about ``_PIECE_BYTES`` of gathered rows with a few
  whole-array operations: ``u = (m[a] | m[b]) & open``, then ``m[a] |= u``
  and ``m[b] |= u``.  A pass is some hundred numpy calls on large arrays
  instead of several per edge, and numpy drops the GIL inside each, so
  ``workers`` threads run blocks side by side.
* **Packed columns.**  On graphs with fewer than ``_COMPACT_MIN_EDGES``
  edges, the membership and open-flag matrices are bit-packed along the
  replicate axis, eight columns per byte, before the fixpoint: the same
  operations then move an eighth of the bytes.  A pass that leaves the
  packed membership unchanged ends the fixpoint, and the sizes are read
  once by unpacking.
* **Compaction.**  A replicate column whose member count did not change in
  a full pass is at its fixpoint: no open edge leaves its member set.  Once
  at least half of the live columns are done, their sizes are stored and
  the columns are dropped, in place, from the membership and open-flag
  matrices, so the slow replicates near criticality no longer drag the
  whole block through every pass.  Counting per column and moving memory
  costs more than it saves when passes are cheap and few, so compaction is
  on only for graphs with at least ``_COMPACT_MIN_EDGES`` edges.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundParams, MomentPair, best_bounds, branching_bounds, isolation_bounds
from .errors import BadParameterError
from .graphs import Graph
from .oracle import moment_polynomial
from .percolation import EdgeConfig, _check_integer, _check_probability
from .rng import derive_key, edge_draws
from .stats import RunningMoments

__all__ = [
    "MAX_REPLICATES",
    "MAX_WORKERS",
    "MomentEstimate",
    "SweepRow",
    "SweepResult",
    "estimate_moments",
    "replicate_realization",
    "sweep",
]

_BLOCK = 8192
# Bytes of gathered membership rows per relaxation piece: 32 edge rows at a
# full block, whole classes once few columns are left.
_PIECE_BYTES = 1 << 18
# Graphs with at least this many edges drop converged replicate columns.
# Measured with compaction always on vs never: 7-18% slower on the Platonic
# solids (12-30 edges), even at 60 edges, 16-29% faster from 120 edges on
# (random 3-regular graphs, p from 0.3 to 0.8).
_COMPACT_MIN_EDGES = 100
# Largest replicate count one call may ask for (``sweep``: summed over the
# grid), refused before any block bounds are built.
MAX_REPLICATES = 1 << 30
# Largest thread pool; more threads than cores only adds scheduling.
MAX_WORKERS = 64


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


@dataclass(frozen=True)
class _EdgePlan:
    """The edge list in matching-class order.

    Row ``k`` is edge ``order[k]``, with endpoints ``heads[k]`` and
    ``tails[k]``; ``classes`` holds the ``[start, stop)`` row range of each
    matching.  No vertex occurs twice within one class.
    """

    order: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    classes: tuple[tuple[int, int], ...]


def _edge_plan(graph: Graph) -> _EdgePlan:
    """Greedy edge colouring: each edge takes the lowest class free at both ends."""
    used = [0] * graph.n_vertices  # bit c set: the vertex has an edge in class c
    colour = []
    for a, b in graph.edges:
        free = ~(used[a] | used[b])
        c = (free & -free).bit_length() - 1
        used[a] |= 1 << c
        used[b] |= 1 << c
        colour.append(c)
    colour_arr = np.asarray(colour, dtype=np.intp)
    order = np.argsort(colour_arr, kind="stable")
    stops = np.cumsum(np.bincount(colour_arr)).tolist()
    ends = graph.edge_array()[order]
    return _EdgePlan(
        order=order,
        heads=np.ascontiguousarray(ends[:, 0]),
        tails=np.ascontiguousarray(ends[:, 1]),
        classes=tuple(zip([0] + stops[:-1], stops)),
    )


def _block_draws(
    graph: Graph, order: np.ndarray | None, p: float, seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start vertices and open flags of replicates [lo, hi).

    Row ``k`` of the flags is edge ``order[k]``, or edge ``k`` without an order.
    """
    n = graph.n_vertices
    u0, open_edges = edge_draws(seed, lo, hi - lo, graph.n_edges, p, order=order)
    starts = np.minimum((u0 * n).astype(np.int64), n - 1)
    return starts, open_edges


def _relax_edges(
    plan: _EdgePlan, open_edges: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> None:
    """Spread ``src`` one open edge into ``dst``, per replicate column.

    Rows of ``open_edges`` follow the plan.  With ``src is dst`` a pass can
    cross one edge per class (the fixpoint's in-place pass); with distinct
    arrays it is one exact BFS step.  Within a class the gathered rows are
    distinct, so scattering them back never collides.  The matrices are
    bool, or uint8 with eight replicate columns packed per byte: every
    operation acts on each bit lane alone.
    """
    width = src.shape[1]
    rows = max(1, _PIECE_BYTES // width)
    rows = min(rows, max(stop - start for start, stop in plan.classes))
    scratch = np.empty((3, rows, width), dtype=src.dtype)
    for start, stop in plan.classes:
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            a, b, is_open = plan.heads[lo:hi], plan.tails[lo:hi], open_edges[lo:hi]
            at_a, at_b, u = scratch[:, : hi - lo]
            # indices are in range; mode="clip" spares take a buffered copy
            np.take(src, a, axis=0, out=at_a, mode="clip")
            np.take(src, b, axis=0, out=at_b, mode="clip")
            if src is dst:
                np.bitwise_or(at_a, at_b, out=u)
                u &= is_open
                at_a |= u
                at_b |= u
                dst[a] = at_a
                dst[b] = at_b
            else:
                at_a &= is_open
                at_b &= is_open
                dst[a] |= at_b
                dst[b] |= at_a


def _drop_columns(matrix: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``matrix[:, keep]``, C-contiguous, written over ``matrix``'s own buffer.

    Rows move in pieces in increasing order: new row ``r`` lands at or
    before old row ``r``, so nothing is overwritten before it is read.
    """
    n_rows, width = matrix.shape
    kept = int(np.count_nonzero(keep))
    flat = matrix.reshape(-1)
    rows = max(1, _PIECE_BYTES // max(width, 1))
    for lo in range(0, n_rows, rows):
        part = np.compress(keep, matrix[lo : lo + rows], axis=1)
        flat[lo * kept : lo * kept + part.size] = part.reshape(-1)
    return flat[: n_rows * kept].reshape(n_rows, kept)


def _block_cluster_sizes(
    graph: Graph, p: float, seed: int, lo: int, hi: int, plan: _EdgePlan | None = None
) -> np.ndarray:
    """Cluster sizes of replicates [lo, hi) as an int64 array."""
    if plan is None:
        plan = _edge_plan(graph)
    b = hi - lo
    starts, open_edges = _block_draws(graph, plan.order, p, seed, lo, hi)
    member = np.zeros((graph.n_vertices, b), dtype=bool)
    member[starts, np.arange(b)] = True

    if graph.n_edges < _COMPACT_MIN_EDGES:
        member = np.packbits(member, axis=1, bitorder="little")
        open_edges = np.packbits(open_edges, axis=1, bitorder="little")
        prev = np.empty_like(member)
        while True:
            prev[...] = member
            _relax_edges(plan, open_edges, member, member)
            if np.array_equal(member, prev):
                bits = np.unpackbits(member, axis=1, count=b, bitorder="little")
                return bits.sum(axis=0, dtype=np.int64)

    sizes = np.empty(b, dtype=np.int64)
    live = np.arange(b)  # block column of each column still in the matrices
    prev_counts = np.ones(b, dtype=np.int64)  # the start vertex
    # members per column, summed in the narrowest integer type that holds N
    count_dtype = np.int16 if graph.n_vertices < 1 << 15 else np.int64
    while True:
        _relax_edges(plan, open_edges, member, member)
        counts = np.add.reduce(member.view(np.uint8), axis=0, dtype=count_dtype)
        done = counts == prev_counts
        n_done = int(np.count_nonzero(done))
        if n_done == live.size:
            sizes[live] = counts
            return sizes
        if 2 * n_done >= live.size:
            sizes[live[done]] = counts[done]
            keep = ~done
            member = _drop_columns(member, keep)
            open_edges = _drop_columns(open_edges, keep)
            live, counts = live[keep], counts[keep]
        prev_counts = counts


def replicate_realization(
    graph: Graph, p: float, seed: int, index: int
) -> tuple[int, EdgeConfig]:
    """Reconstruct the (start vertex, edge config) of one replicate.

    Draws it as a one-column block of :func:`estimate_moments`, rows in
    edge-index order, so the returned realization is exactly what replicate
    ``index`` of a run saw.
    """
    p = _check_probability(p)
    seed = _check_integer("seed", seed)
    if _check_integer("replicate index", index) < 0:
        raise BadParameterError(f"replicate index must be >= 0, got {index}")
    starts, open_edges = _block_draws(graph, None, p, seed, index, index + 1)
    return int(starts[0]), EdgeConfig(open_flags=tuple(open_edges[:, 0].tolist()), p=p)


def _block_stats(
    graph: Graph, plan: _EdgePlan, p: float, seed: int, lo: int, hi: int
) -> tuple[RunningMoments, RunningMoments]:
    sizes = _block_cluster_sizes(graph, p, seed, lo, hi, plan).astype(np.float64)
    acc_s, acc_s2 = RunningMoments(), RunningMoments()
    acc_s.add_batch(sizes)
    acc_s2.add_batch(sizes * sizes)
    return acc_s, acc_s2


def _check_workers(workers: int) -> None:
    if not 1 <= _check_integer("workers", workers) <= MAX_WORKERS:
        raise BadParameterError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")


def estimate_moments(
    graph: Graph, p: float, replicates: int, seed: int, workers: int = 1
) -> MomentEstimate:
    """Monte Carlo estimate of E(S) and E(S^2) from i.i.d. realizations.

    Deterministic in (seed, replicates): the worker count changes only how
    blocks are scheduled, never what they compute or the merge order.
    More than ``MAX_REPLICATES`` replicates or ``MAX_WORKERS`` workers are
    refused before any work.
    """
    p = _check_probability(p)
    replicates = _check_integer("replicates", replicates)
    seed = _check_integer("seed", seed)
    if replicates < 2:
        raise BadParameterError(f"need at least 2 replicates, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise BadParameterError(
            f"{replicates} replicates exceeds the cap of {MAX_REPLICATES}"
        )
    _check_workers(workers)

    plan = _edge_plan(graph)
    bounds_list = [(lo, min(lo + _BLOCK, replicates)) for lo in range(0, replicates, _BLOCK)]
    if workers == 1:
        partials = [_block_stats(graph, plan, p, seed, lo, hi) for lo, hi in bounds_list]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(
                pool.map(lambda span: _block_stats(graph, plan, p, seed, *span), bounds_list)
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
    The caps of :func:`estimate_moments` apply, ``MAX_REPLICATES`` to
    replicates times grid points, before the enumeration or any point.
    """
    try:
        points = list(p_grid)
    except TypeError:
        raise BadParameterError(f"p grid must be a sequence, got {p_grid!r}") from None
    grid = sorted(_check_probability(p) for p in points)
    if not grid:
        raise BadParameterError("p grid is empty")
    replicates = _check_integer("replicates", replicates)
    seed = _check_integer("seed", seed)
    if replicates * len(grid) > MAX_REPLICATES:
        raise BadParameterError(
            f"{replicates} replicates x {len(grid)} grid points exceeds the cap "
            f"of {MAX_REPLICATES} replicates"
        )
    _check_workers(workers)

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
