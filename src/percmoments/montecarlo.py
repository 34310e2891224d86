"""Reproducible Monte Carlo estimation of cluster-size moments.

Replicate r of a run with seed s is a pure function of (s, r): its draws
come from counter-based streams (see :mod:`percmoments.rng`), draw 0 picking
the start vertex and draws 1..ceil(|E| / 4) the edge states, four 16-bit
lanes to a word (a lane that ties with the threshold is decided by the
edge's own tail word).  Any single replicate can therefore be reconstructed
in isolation for auditing, and replicates can be grouped in any way without
changing what they draw.

Statistics and work are grouped separately:

* **Merge blocks.**  Replicates ``[8192 k, 8192 (k + 1))`` form merge block
  ``k``.  Each block's sizes give one partial of S and one of S^2, and the
  partials are merged in block order, so results are bit-identical for any
  worker count and any grouping of the work.
* **Spans.**  A span is the replicates whose stream keys and start
  vertices are mixed together, once (``_span_starts``), and whose clusters
  one search, one draw of open flags (``_span_flags``, the bits
  :func:`percmoments.rng.edge_draws` gives) and one fixpoint find
  together, at each grid point.  Its width comes from one byte budget,
  ``_SPAN_BYTES``, counted per replicate column as a byte for each of the
  2 |E| slot flags and N membership flags (eight times their packed size,
  and as much as a sweep's lane store, below, takes with them up to D =
  7) and ``_COLUMN_WORDS`` 8-byte per-replicate words.  A span takes as
  many whole merge blocks as fit, so on small graphs a call of tens of
  thousands of replicates is one draw and one fixpoint; with ``workers >
  1`` spans are narrowed, on block boundaries, until there are at least
  ``workers`` of them.  Where one merge block does not fit, it is drawn
  and relaxed as several sub-spans whose sizes are joined before its
  partials, so no matrix grows past the budget however many edges the
  graph has.  Spans come from a generator and their partials are merged
  as they arrive, so a call holds a few spans' partials, never one per
  block of the run.

Cluster sizes are computed for a whole span at once, in two phases.  Sizes
are integers fixed by connectivity, and each edge flag is a pure function
of (seed, replicate, edge), so neither phase, nor where a replicate passes
from one to the other, nor the order of the edges within a pass, nor the
number of passes, nor the span a replicate shares can change a result.

* **Sparse phase.**  Near criticality almost every cluster is small, and a
  dense pass would draw and relax all |E| edges of every replicate to find
  a dozen vertices.  So a span first runs a generation-synchronous
  breadth-first search of all its replicates together (after the
  top-down phase of direction-optimizing BFS, Beamer, Asanovic & Patterson,
  SC 2012).  The frontier is the flat indices ``column * N + vertex``,
  the visited set a bitset over them (an eighth of a byte per
  vertex-replicate pair), and only the edges at a frontier vertex are
  drawn, one word and lane each, the bit the dense draw would give them
  (:func:`percmoments.rng._pair_flags`).  A replicate whose frontier
  empties has its size: the count of its visited vertices.
* **Switch to dense.**  Before every generation, the first included, a
  span goes dense once ``D * frontier * _DENSE_SWITCH >= |E| * columns``:
  once the generation's words would cost more than a small share of the
  dense kernel on the span.  The replicates still open then go to the
  dense fixpoint below: their keys and start vertices are compacted from
  the span's, not mixed again, and flags are drawn for those columns only
  (:func:`percmoments.rng._edge_flags`); replicates that finished sparse
  are never drawn densely.  At generation 0 the frontier is one vertex
  per column, so the test reads ``D * _DENSE_SWITCH >= |E|``: every
  Platonic solid, and any graph that small, runs the dense kernel alone,
  drawn as a whole span, the bits :func:`percmoments.rng.edge_draws`
  gives.  So does ``p`` of 0 or 1, whose flags are constants.

The dense kernel grows a membership matrix (vertices x replicates) by passes
until a fixpoint, which reaches the full open cluster of each start vertex.

* **Slot pulls.**  Each vertex's edges fill D degree slots (``_EdgePlan``),
  each edge a slot at each end, and the open flags are drawn with a row
  per slot.  A pass pulls ``m[v] |= m[neighbor_d(v)] & open_d(v)`` for
  each slot ``d`` over pieces of about ``_PIECE_BYTES`` of rows: a
  gather, an AND and an OR into contiguous rows, the bottom-up step of
  direction-optimizing BFS to the sparse phase's top-down one.  A pass is
  a few dozen numpy calls on large arrays, and numpy drops the GIL inside
  each, so ``workers`` threads run spans side by side.
* **Packed columns.**  The membership and open-flag matrices are
  bit-packed along the replicate axis, eight columns per byte, on every
  graph (the flags are drawn packed, so their boolean matrix never exists
  whole), and every operation moves an eighth of the bytes.  A pass that
  leaves the packed membership unchanged ends the fixpoint; the columns
  that converged early ride along at a bit each, which costs less than
  finding and dropping them.  The start bits are set straight into the
  packed matrix, and the sizes are read through words of at most
  ``_SCRATCH_BYTES`` (1 MB), so no unpacked (vertices x replicates) matrix
  exists.

A sweep (:func:`sweep`) draws every grid point from the streams of its
seed, so its row at ``p`` is :func:`estimate_moments` at ``p``, bit for
bit.  Spans are the outer loop and the sorted grid the inner one
(``_block_stats`` takes the grid; :func:`estimate_moments` is a grid of
one), so each span's keys and starts are mixed once for the whole grid,
and each point's merge-block partials are merged in block order.

* **Lane store.**  On a span whose generation 0 is dense, a grid of more
  than one point mixes the flag words once, into 16-bit lanes kept
  edge-major, (|E| x replicates) uint16
  (:func:`percmoments.rng._edge_lanes`), 2 bytes per edge and replicate.
  Each point compares them with its lane limit and packs them into the
  slot rows (:func:`percmoments.rng._lane_flags`, ties decided by their
  tail words there).  A span that starts sparse runs the two phases above
  at each point, on its once-mixed keys and starts; a merge block wider
  than a span is relaxed point by point, in sub-spans.
* **Warm start.**  Each edge is monotone in ``p`` on fixed streams, so a
  cluster at ``p`` lies within the cluster at any larger ``p``, and a
  fixpoint started from any membership between the start vertex and that
  cluster ends at it.  So on a lane span each point relaxes the previous
  point's final membership in place, and the start bits are packed once.

Every buffer a span fills, from its stream keys to its sizes, is a named
buffer of a workspace (``_Workspace``) that later spans reuse: a span takes
an idle workspace from a module-wide free list and gives it back when done,
so neither the spans of a call nor later calls allocate, and fault in,
their megabytes again.  The workspace is an argument of every step that
fills it, the draws included.  The list keeps idle workspaces up to
``_KEEP_BYTES`` and drops the rest.  Reuse changes where numbers are
written, never which, so results stay bit-identical.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundParams, MomentPair, _combined, branching_bounds, isolation_bounds
from .errors import BadParameterError, _check_integer, _check_probability
from .graphs import Graph
from .oracle import moment_polynomial
from .percolation import EdgeConfig
from .rng import (
    _edge_flags,
    _edge_lanes,
    _lane_flags,
    _pair_flags,
    _start_uniforms,
    _stream_keys,
)
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

# Replicates per merge block: the unit of the partial statistics.
_BLOCK = 8192
# Bytes one span may hold, counted per replicate column (see _span_width).
# Above the 31.75 MiB that count gives one merge block of a 1500-edge,
# 1000-vertex graph, so graphs of that size still draw one block per span.
_SPAN_BYTES = 1 << 25
# Bytes of idle workspaces the free list keeps for later spans and calls:
# one span budget, six times the 5.4 MB a 1000-vertex 8192-replicate span
# holds.  A workspace given back past it is dropped.
_KEEP_BYTES = _SPAN_BYTES
# 8-byte words a span holds per replicate besides its flags, all in its
# workspace: stream key, start uniform (later the start of a column left
# dense, then the flat index of its start bit) and vertex, the keys and
# sizes of the columns left dense, cluster size and the span's joined
# sizes, and the mixing scratch of the keys and start words.
_COLUMN_WORDS = 8
# Bytes of pulled membership rows per relaxation piece: 256 vertex rows of
# a packed 8192-replicate block, all of them on a Platonic solid's span.
_PIECE_BYTES = 1 << 18
# A span's breadth-first search goes dense before a generation whose
# D x frontier words, times this, reach |E| x its columns (_goes_dense).
# A sparse word costs some 10x a dense (edge, column) pair, draw and pulls
# together, so one sparse generation may cost a few percent of going
# dense.  Fitted on random 3-regular graphs of 1000 and 5000 vertices and
# hypercube(10) at p = 0.3 to 0.95, spans timed with the pull kernel: 192
# and below spent up to a third more on sparse generations at p = 0.6;
# from 384 the 1000-vertex graph at p = 0.45 (D p = 1.35 words per
# replicate after generation 0) goes dense at generation 1 although its
# frontier then shrinks, 39-46 ms a span against 18-24.  Otherwise 256 to
# 512 came within host noise.
_DENSE_SWITCH = 320
# Bit k of a byte, by k.
_BITS = (1 << np.arange(8)).astype(np.uint8)
# Entry b: byte b's bits spread over the bytes of a little-endian word, bit
# k in byte k, as unpackbits(bitorder="little") unpacks them.
_SPREAD = np.array(
    [int.from_bytes(bytes((b >> k) & 1 for k in range(8)), "little") for b in range(256)],
    dtype="<u8",
)
# Bytes of a span's scratch, which its phases take in turn: the words of a
# chunk of its draw and their mixing scratch, the rows its twin slots are
# copied through, the rows a relaxation piece pulls, and the words its
# sizes are read through.
_SCRATCH_BYTES = 1 << 20
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
    """Each vertex's edges, a degree slot per edge end, (D x vertices) tables.

    Slot ``[d, v]`` holds edge ``incident[d, v]``, whose far end is
    ``neighbors[d, v]``.  Edge ``e``'s slots are ``slots[0, e]`` at its
    first end and ``slots[1, e]`` at its second, as flat indices ``d * N +
    v``: its rows in a span's flags (``_span_flags``).
    """

    neighbors: np.ndarray
    incident: np.ndarray
    slots: np.ndarray


def _edge_plan(graph: Graph) -> _EdgePlan:
    """The slot tables of ``graph``; a vertex's slots hold its edges in edge order."""
    edges = graph.edge_array()
    ends = 2 * graph.n_edges
    # end i is edge i % |E| from its end i // |E|; sorted, D ends per vertex
    by_vertex = np.argsort(edges.T.reshape(-1), kind="stable")
    shape = (graph.n_vertices, graph.degree)
    slots = np.empty(ends, dtype=np.intp)
    slots[by_vertex] = np.arange(ends).reshape(shape[::-1]).T.reshape(-1)
    return _EdgePlan(
        neighbors=np.ascontiguousarray(edges[:, ::-1].T.reshape(-1)[by_vertex].reshape(shape).T),
        incident=np.ascontiguousarray((by_vertex % graph.n_edges).reshape(shape).T),
        slots=slots.reshape(2, graph.n_edges),
    )


class _Workspace:
    """Named work buffers that a span fills and the next span reuses.

    ``work(name, shape, dtype)`` is an array over the front of buffer
    ``name``: new, or grown, only when the buffer is too small.  It holds
    whatever its last user left, so users fill it (numpy ``out=``), and
    two names are two buffers, live side by side.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._ramp = np.arange(0)

    def __call__(self, name: str, shape: int | tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = (shape if isinstance(shape, int) else math.prod(shape)) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            # on a cache line: numpy's vector loops ran a chunk of the draw
            # ~10% slower over the 16-byte aligned arrays malloc returns
            raw = np.empty(size + _LINE - 1, dtype=np.uint8)
            skip = -raw.ctypes.data % _LINE
            buffer = self._buffers[name] = raw[skip : skip + size]
        return buffer[:size].view(dtype).reshape(shape)

    def ramp(self, n: int) -> np.ndarray:
        """``np.arange(n)``, kept: the one buffer whose contents last."""
        if self._ramp.size < n:
            self._ramp = np.arange(n)
        return self._ramp[:n]

    @property
    def nbytes(self) -> int:
        return self._ramp.nbytes + sum(buffer.size for buffer in self._buffers.values())


# Bytes of a cache line, the alignment of workspace buffers.
_LINE = 64
# Idle workspaces, the last given back on top.  A pool lives for one call,
# so buffers kept per thread would be faulted in again on every call; a
# module-wide list lets spans of later calls, on any thread, reuse them.
_FREE: list[_Workspace] = []
_FREE_LOCK = threading.Lock()


@contextmanager
def _borrowed_workspace() -> Iterator[_Workspace]:
    """An idle workspace, or a new one; kept afterwards while ``_KEEP_BYTES`` allows."""
    with _FREE_LOCK:
        work = _FREE.pop() if _FREE else _Workspace()
    try:
        yield work
    finally:
        with _FREE_LOCK:
            if work.nbytes + sum(idle.nbytes for idle in _FREE) <= _KEEP_BYTES:
                _FREE.append(work)


def _span_starts(
    graph: Graph, seed: int, lo: int, hi: int, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Stream keys and start vertices of replicates [lo, hi), in the workspace.

    The one place a span's streams are mixed: both phases, and the dense
    draw of the columns the sparse phase leaves open, take them from here.
    A start vertex is its draw 0 as a uniform times N, truncated, as
    ``astype`` does.
    """
    width = hi - lo
    scratch = work("scratch", width, np.uint64)
    keys = _stream_keys(seed, lo, width, work("keys", width, np.uint64), scratch)
    u0 = _start_uniforms(keys, work("uniforms", width, np.float64), scratch)
    # not over u0's own words: numpy would copy them to cast in place
    starts = np.multiply(u0, graph.n_vertices, out=work("starts", width, np.int64),
                         casting="unsafe")
    return keys, np.minimum(starts, graph.n_vertices - 1, out=starts)


def _span_flags(
    graph: Graph, plan: _EdgePlan, p: float, keys: np.ndarray, work: _Workspace
) -> np.ndarray:
    """Packed open flags of the streams ``keys``, (D, vertices, bytes), in the workspace.

    Row ``[d, v]`` holds edge ``plan.incident[d, v]``, the ``r``-th key in
    bit ``r % 8`` of byte ``r // 8``: the bits of
    :func:`~percmoments.rng.edge_draws`, drawn at each edge's first slot
    and copied through the scratch to its second.
    """
    nbytes = -(-keys.size // 8)
    flags = work("flags", (2 * graph.n_edges, nbytes), np.uint8)
    # a chunk's words and their scratch, no more than a draw this small needs
    scratch = work("scratch", min(_SCRATCH_BYTES // 8, 2 * graph.n_edges * keys.size), np.uint64)
    _edge_flags(keys, graph.n_edges, p, plan.slots[0], flags, scratch)
    rows = scratch.nbytes // nbytes
    for lo in range(0, graph.n_edges, rows):
        first, second = plan.slots[:, lo : lo + rows]
        twin = scratch.view(np.uint8)[: first.size * nbytes].reshape(first.size, nbytes)
        flags[second] = np.take(flags, first, axis=0, out=twin, mode="clip")
    return flags.reshape(graph.degree, graph.n_vertices, nbytes)


def _packed_starts(n_vertices: int, starts: np.ndarray, work: _Workspace) -> np.ndarray:
    """Packed (vertices x replicates) membership holding each replicate's start vertex alone.

    The workspace's ``member``.  The flat indices of the start bits are
    written over the spent start uniforms (in place where ``starts`` are
    the compacted ones that buffer holds), so ``starts`` of a span survive
    for its next point.  Bit ``k`` of the bytes is set by one scatter over
    columns ``k, k + 8, ...``, whose bytes are distinct.
    """
    nbytes = -(-starts.size // 8)
    member = work("member", (n_vertices, nbytes), np.uint8)
    member.fill(0)
    bits = member.reshape(-1)
    flat = np.multiply(starts, nbytes, out=work("uniforms", starts.size, np.int64))
    for k in range(8):
        at = flat[k::8]
        at += work.ramp(at.size)
        bits[at] |= _BITS[k]
    return member


def _column_counts(member: np.ndarray, out: np.ndarray, work: _Workspace) -> None:
    """Set bits of each replicate column of the packed ``member``, into int64 ``out``.

    Pieces of rows and whole bytes of columns pass through ``_SCRATCH_BYTES``
    of the workspace's scratch: a table lookup (``np.take`` of ``_SPREAD``)
    unpacks each byte into the eight one-byte lanes of a word, and a sum of
    the words down the piece's rows counts eight columns per add.  A lane
    holds 255, so a piece has at most 255 rows, and its counts are added up
    in ``out``.
    """
    n, width = member.shape
    cols = max(1, min(width, _SCRATCH_BYTES // 8))
    rows = max(1, min(n, 255, _SCRATCH_BYTES // (8 * cols)))
    for c0 in range(0, width, cols):
        c1 = min(c0 + cols, width)
        counts = out[8 * c0 : 8 * c1]
        sums = work("lane sums", c1 - c0, "<u8")
        for r0 in range(0, n, rows):
            piece = member[r0 : r0 + rows, c0:c1]
            words = work("scratch", piece.shape, "<u8")
            np.take(_SPREAD, piece, out=words, mode="clip")  # in range; clip spares a copy
            words.sum(axis=0, out=sums)
            lanes = sums.view(np.uint8)[: counts.size]
            if r0:
                counts += lanes
            else:
                counts[:] = lanes


def _relax_edges(
    plan: _EdgePlan, open_slots: np.ndarray, src: np.ndarray, dst: np.ndarray, work: _Workspace
) -> None:
    """Pull ``src`` across one open edge into ``dst``, per replicate column.

    ``dst[v] |= src[plan.neighbors[d, v]] & open_slots[d, v]`` for every
    vertex and slot, the rows pulled into the workspace's scratch.  With
    ``src is dst`` a pass may cross several edges (the fixpoint's in-place
    pass); with distinct arrays it is one exact BFS step.  The matrices
    are uint8 with eight replicate columns packed per byte; every
    operation acts on each bit lane alone.
    """
    n, width = dst.shape
    rows = max(1, min(n, _PIECE_BYTES // width))
    pulled = work("scratch", (rows, width), np.uint8)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        piece = pulled[: hi - lo]
        for far, is_open in zip(plan.neighbors, open_slots):
            # indices are in range; mode="clip" spares take a buffered copy
            np.take(src, far[lo:hi], axis=0, out=piece, mode="clip")
            piece &= is_open[lo:hi]
            dst[lo:hi] |= piece


def _bit_total(member: np.ndarray) -> int:
    """A sum of the packed matrix that grows whenever a pass sets a bit.

    Passes only set bits, so every word of the matrix only grows, and the
    matrix changed iff the sum of its words did.  The bytes are summed as
    uint32 words (the last few alone) into uint64, which cannot wrap below
    2^32 words and reads the matrix once, where copying it and comparing
    the copy read it three times; a sum of uint64 words could wrap.
    """
    flat = member.reshape(-1)
    cut = flat.size - flat.size % 4
    return int(flat[:cut].view(np.uint32).sum(dtype=np.uint64)) + int(flat[cut:].sum())


def _fixpoint(
    plan: _EdgePlan, open_slots: np.ndarray, member: np.ndarray, work: _Workspace
) -> None:
    """Relax the packed ``member`` in place, by passes, until a pass sets no bit.

    Started from any membership between each column's start vertex and its
    open cluster, it ends at that cluster: a cold start is the start
    vertices alone (``_packed_starts``), a warm one the clusters of a
    smaller ``p`` on the same streams.
    """
    total = _bit_total(member)
    while True:
        _relax_edges(plan, open_slots, member, member, work)
        total, before = _bit_total(member), total
        if total == before:
            return


def _goes_dense(graph: Graph, frontier: int, columns: int) -> bool:
    """Whether a span of ``columns`` replicates whose next generation starts from
    ``frontier`` (replicate, vertex) pairs should leave it to the dense kernel."""
    return graph.degree * frontier * _DENSE_SWITCH >= graph.n_edges * columns


def _sparse_sizes(
    graph: Graph, plan: _EdgePlan, p: float, keys: np.ndarray, starts: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first cluster sizes of the span whose streams are ``keys``, from ``starts``.

    ``keys`` and ``starts`` are the span's from :func:`_span_starts`.
    Returns ``(sizes, dense)``.  ``dense`` holds the columns of the
    replicates whose search was still open when a generation went dense
    (``_goes_dense``), in order; their ``sizes`` are left to the dense
    kernel.  Every other size is final.  ``0 < p < 1``.

    The frontier is the sorted, distinct flat indices ``column * N +
    vertex`` of all replicates together, and the visited set a bitset over
    the same indices.  Only the edges at a frontier vertex are drawn, each
    from its own word and lane (:func:`~percmoments.rng._pair_flags`), the
    bit ``edge_draws`` would give it.

    ``sizes`` is the workspace's.  The bitset takes the buffer of the
    packed membership, which the dense kernel fills only after the search.
    """
    n, width = graph.n_vertices, keys.size
    index = np.int32 if n * width < 1 << 31 else np.int64
    neighbors = plan.neighbors.astype(index)
    incident = plan.incident.astype(np.uint64)
    column = np.arange(width, dtype=index)
    frontier = column * n + starts.astype(index)
    visited = work("member", -(-n * width // 8), np.uint8)
    visited.fill(0)
    np.bitwise_or.at(visited, frontier >> 3, _BITS[frontier & 7])
    sizes = work("sizes", width, np.int64)
    sizes.fill(1)
    while frontier.size:
        if _goes_dense(graph, frontier.size, width):
            return sizes, column[np.diff(column, prepend=-1) != 0]
        base = column * n
        vertex = frontier - base
        reach = base + neighbors[:, vertex]
        grows = (visited[reach >> 3] & _BITS[reach & 7]) == 0
        grows &= _pair_flags(keys[column], incident[:, vertex], p)
        frontier = reach[grows]
        frontier.sort()
        frontier = frontier[np.diff(frontier, prepend=-1) != 0]
        np.bitwise_or.at(visited, frontier >> 3, _BITS[frontier & 7])
        column = frontier // n
        sizes += np.bincount(column, minlength=width)
    return sizes, column


def _point_sizes(
    graph: Graph, plan: _EdgePlan, p: float, keys: np.ndarray, starts: np.ndarray, work: _Workspace
) -> np.ndarray:
    """Cluster sizes at ``p`` of the span whose streams are ``keys``, from ``starts``, cold.

    ``keys`` and ``starts`` are the span's from :func:`_span_starts`, and
    survive for the span's next point.  A sparse breadth-first phase comes
    first, where generation 0 is not already dense, then one draw and
    fixpoint for the replicates it leaves open, from their compacted keys
    and starts.  The sizes are the workspace's.
    """
    columns = None
    if 0.0 < p < 1.0 and not _goes_dense(graph, keys.size, keys.size):
        sizes, columns = _sparse_sizes(graph, plan, p, keys, starts, work)
        if not columns.size:
            return sizes
        keys = np.take(keys, columns, out=work("dense keys", columns.size, np.uint64))
        # the start uniforms are spent, so their buffer takes the open columns' starts
        starts = np.take(starts, columns, out=work("uniforms", columns.size, np.int64))
    open_slots = _span_flags(graph, plan, p, keys, work)
    member = _packed_starts(graph.n_vertices, starts, work)
    _fixpoint(plan, open_slots, member, work)
    if columns is None:
        sizes = work("sizes", starts.size, np.int64)
        _column_counts(member, sizes, work)
        return sizes
    dense = work("dense sizes", starts.size, np.int64)
    _column_counts(member, dense, work)
    sizes[columns] = dense
    return sizes


def _block_cluster_sizes(graph: Graph, p: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Cluster sizes of replicates [lo, hi) at ``p`` as an int64 array, cold.

    The span's streams are mixed once, then :func:`_point_sizes` runs, in
    a new workspace.
    """
    work = _Workspace()
    keys, starts = _span_starts(graph, seed, lo, hi, work)
    return _point_sizes(graph, _edge_plan(graph), p, keys, starts, work)


def _lane_sizes(
    graph: Graph,
    plan: _EdgePlan,
    grid: list[float],
    keys: np.ndarray,
    starts: np.ndarray,
    work: _Workspace,
) -> Iterator[np.ndarray]:
    """Cluster sizes of the span whose streams are ``keys`` at each point of the sorted ``grid``.

    For spans whose generation 0 is dense.  The flag words are mixed once,
    into the workspace's lane store (:func:`percmoments.rng._edge_lanes`),
    and each point's flags come from the store
    (:func:`percmoments.rng._lane_flags`), written at both slots of each
    edge.  Each edge is monotone in ``p``, so a point's clusters hold the
    previous point's, and its fixpoint starts from their membership: the
    start vertices are packed once.  Each point's sizes are the workspace's,
    valid until the next is yielded.
    """
    n_edges, width = graph.n_edges, keys.size
    nbytes = -(-width // 8)
    scratch_words = min(_SCRATCH_BYTES // 8, 2 * n_edges * width)
    lanes = _edge_lanes(keys, n_edges, work("lanes", (n_edges, width), np.uint16),
                        work("scratch", scratch_words, np.uint64))
    member = _packed_starts(graph.n_vertices, starts, work)
    flags = work("flags", (2 * n_edges, nbytes), np.uint8)
    open_slots = flags.reshape(graph.degree, graph.n_vertices, nbytes)
    for p in grid:
        _lane_flags(lanes, keys, p, plan.slots, flags, work("scratch", scratch_words, np.uint64))
        _fixpoint(plan, open_slots, member, work)
        sizes = work("sizes", width, np.int64)
        _column_counts(member, sizes, work)
        yield sizes


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
    index = _check_integer("replicate index", index)
    if not 0 <= index <= 2**64 - 2:  # stream r mixes counter r + 1, a uint64 word
        raise BadParameterError(f"replicate index must be in [0, 2^64 - 2], got {index}")
    work = _Workspace()
    keys, starts = _span_starts(graph, seed, index, index + 1, work)
    # one replicate is bit 0 of each row's only byte, the other bits padding
    flags = _edge_flags(keys, graph.n_edges, p)[:, 0].astype(bool)
    return int(starts[0]), EdgeConfig(open_flags=tuple(flags.tolist()), p=p)


def _span_width(graph: Graph) -> int:
    """Replicates one draw and fixpoint may take: ``_SPAN_BYTES`` over a column's bytes."""
    # A byte per open flag, two per edge for its two slots, and per vertex
    # is eight times what a packed column of the flag and membership
    # matrices (or of the visited bitset that shares the membership's
    # buffer) holds, so the budget bounds them with room to spare: room
    # that a sweep's lane store, 2 bytes per edge, takes up to D = 7.
    # Nothing unpacked grows with the span: the size readout passes through
    # the fixed _SCRATCH_BYTES.
    column = 2 * graph.n_edges + graph.n_vertices + 8 * _COLUMN_WORDS
    return max(1, _SPAN_BYTES // column)


def _spans(graph: Graph, replicates: int, workers: int) -> Iterator[tuple[int, int]]:
    """``[lo, hi)`` of each span of a run, in order, starting on merge-block bounds.

    A span is as many whole merge blocks as ``_span_width`` allows, at least
    one, and few enough that there are at least ``workers`` spans when the
    run has that many blocks.
    """
    blocks = -(-replicates // _BLOCK)
    per_span = max(1, min(_span_width(graph) // _BLOCK, blocks // workers))
    step = per_span * _BLOCK
    return ((lo, min(lo + step, replicates)) for lo in range(0, replicates, step))


def _partials(sizes: np.ndarray) -> list[tuple[RunningMoments, RunningMoments]]:
    """Partials of S and S^2 for each merge block of a span's ``sizes``, in block order."""
    partials = []
    for start in range(0, sizes.size, _BLOCK):
        block = sizes[start : start + _BLOCK].astype(np.float64)
        acc_s, acc_s2 = RunningMoments(), RunningMoments()
        acc_s.add_batch(block)
        acc_s2.add_batch(block * block)
        partials.append((acc_s, acc_s2))
    return partials


def _block_stats(
    graph: Graph, plan: _EdgePlan, grid: list[float], seed: int, lo: int, hi: int
) -> list[list[tuple[RunningMoments, RunningMoments]]]:
    """Partials of S and S^2 for each merge block of the span [lo, hi), at each point of ``grid``.

    The pool's worker body.  ``grid`` is sorted and ``lo`` is a merge-block
    boundary.  Returns, per point in grid order, the blocks' partials in
    block order.  The span's keys and starts are mixed once, for every
    point.  At most ``_span_width`` wide, the span is one draw and one
    fixpoint per point: from its lane store, warm, when generation 0 is
    dense and the grid has more than one point (:func:`_lane_sizes`), and
    cold otherwise (:func:`_point_sizes`; one point, as
    :func:`estimate_moments` has, would mix and read its lanes once).
    Wider, it is a single merge block, relaxed point by point in sub-spans
    of that width whose sizes are joined before the block's partials.  Its
    buffers come from an idle workspace, given back at the end.
    """
    width = _span_width(graph)
    with _borrowed_workspace() as work:
        keys, starts = _span_starts(graph, seed, lo, hi, work)
        if hi - lo > width:
            point_sizes = (_joined_sizes(graph, plan, p, keys, starts, width, work) for p in grid)
        elif len(grid) > 1 and _goes_dense(graph, hi - lo, hi - lo):
            point_sizes = _lane_sizes(graph, plan, grid, keys, starts, work)
        else:
            point_sizes = (_point_sizes(graph, plan, p, keys, starts, work) for p in grid)
        return [_partials(sizes) for sizes in point_sizes]


def _joined_sizes(
    graph: Graph,
    plan: _EdgePlan,
    p: float,
    keys: np.ndarray,
    starts: np.ndarray,
    width: int,
    work: _Workspace,
) -> np.ndarray:
    """Cluster sizes at ``p`` of a merge block too wide for one draw, by sub-spans of ``width``."""
    sizes = work("span sizes", keys.size, np.int64)
    for lo in range(0, keys.size, width):
        cut = slice(lo, lo + width)
        sizes[cut] = _point_sizes(graph, plan, p, keys[cut], starts[cut], work)
    return sizes


def _span_partials(
    graph: Graph, plan: _EdgePlan, grid: list[float], seed: int, replicates: int, workers: int
) -> Iterator[list[list[tuple[RunningMoments, RunningMoments]]]]:
    """``_block_stats`` of every span, in span order.

    With a pool, spans are submitted as results are taken, so at most
    ``2 * workers`` spans are in flight and no list of all spans is built.
    """
    spans = _spans(graph, replicates, workers)
    if workers == 1:
        for lo, hi in spans:
            yield _block_stats(graph, plan, grid, seed, lo, hi)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, hi in spans:
            pending.append(pool.submit(_block_stats, graph, plan, grid, seed, lo, hi))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _check_workers(workers: int) -> None:
    if not 1 <= _check_integer("workers", workers) <= MAX_WORKERS:
        raise BadParameterError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")


def _check_replicates(replicates: int, points: int = 1) -> int:
    """``replicates`` per grid point: an integer of at least 2.

    Over ``points`` grid points, at most ``MAX_REPLICATES`` in all.
    """
    replicates = _check_integer("replicates", replicates)
    if replicates < 2:
        raise BadParameterError(f"need at least 2 replicates, got {replicates}")
    if replicates * points > MAX_REPLICATES:
        grid = f" x {points} grid points" if points > 1 else ""
        raise BadParameterError(
            f"{replicates} replicates{grid} exceeds the cap of {MAX_REPLICATES} replicates"
        )
    return replicates


def estimate_moments(
    graph: Graph, p: float, replicates: int, seed: int, workers: int = 1
) -> MomentEstimate:
    """Monte Carlo estimate of E(S) and E(S^2) from i.i.d. realizations.

    Deterministic in (seed, replicates): the worker count and the span
    budget change only how replicates are drawn and scheduled, in spans of
    whole merge blocks or sub-spans of one, never what a replicate computes,
    the 8192-replicate merge blocks or their merge order.  More than
    ``MAX_REPLICATES`` replicates or ``MAX_WORKERS`` workers are refused
    before any work.
    """
    p = _check_probability(p)
    replicates = _check_replicates(replicates)
    seed = _check_integer("seed", seed)
    _check_workers(workers)
    return _estimates(graph, _edge_plan(graph), [p], replicates, seed, workers)[0]


def _estimates(
    graph: Graph, plan: _EdgePlan, grid: list[float], replicates: int, seed: int, workers: int
) -> list[MomentEstimate]:
    """:func:`estimate_moments` at each point of the sorted ``grid``, from one stream set.

    Checked arguments, on the graph's edge plan.  Each point's block
    partials are merged in block order, span after span.
    """
    accs = [(RunningMoments(), RunningMoments()) for _ in grid]
    for span in _span_partials(graph, plan, grid, seed, replicates, workers):
        for (acc_s, acc_s2), partials in zip(accs, span):
            for part_s, part_s2 in partials:
                acc_s.merge(part_s)
                acc_s2.merge(part_s2)
    return [
        MomentEstimate(
            mean_s=acc_s.mean,
            se_s=acc_s.standard_error,
            mean_s2=acc_s2.mean,
            se_s2=acc_s2.standard_error,
            replicates=replicates,
            seed=seed,
        )
        for acc_s, acc_s2 in accs
    ]


def sweep(
    graph: Graph,
    p_grid: list[float] | tuple[float, ...] | np.ndarray,
    replicates: int,
    seed: int,
    include_oracle: bool = False,
    workers: int = 1,
) -> SweepResult:
    """Bounds, estimates, and optionally exact values over a grid of p.

    Rows come out sorted by p.  Every point draws from the streams of
    ``seed`` itself, so the row at ``p`` is bit for bit
    ``estimate_moments(graph, p, replicates, seed, workers)``, and the rows
    share their realizations (common random numbers): each row's standard
    errors are its own, but rows are not independent, and each replicate's
    cluster only grows along the grid.  Each span's streams are mixed once
    for the whole grid (see the module docstring).  With ``include_oracle`` the frontier DP of
    :func:`~percmoments.oracle.moment_polynomial` runs once, and its
    polynomial in p is evaluated per point.  The edge plan is built once
    and serves every point.  The caps of :func:`estimate_moments` apply,
    ``MAX_REPLICATES`` to replicates times grid points, before the DP or
    any point.
    """
    try:
        points = list(p_grid)
    except TypeError:
        raise BadParameterError(f"p grid must be a sequence, got {p_grid!r}") from None
    grid = sorted(_check_probability(p) for p in points)
    if not grid:
        raise BadParameterError("p grid is empty")
    replicates = _check_replicates(replicates, len(grid))
    seed = _check_integer("seed", seed)
    _check_workers(workers)

    poly = moment_polynomial(graph) if include_oracle else None
    estimates = _estimates(graph, _edge_plan(graph), grid, replicates, seed, workers)
    rows = []
    for p, estimate in zip(grid, estimates):
        params = BoundParams(degree=graph.degree, n_vertices=graph.n_vertices, p=p)
        branching, isolation = branching_bounds(params), isolation_bounds(params)
        rows.append(
            SweepRow(
                p=p,
                branching=branching,
                isolation=isolation,
                combined=_combined(branching, isolation),
                estimate=estimate,
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
