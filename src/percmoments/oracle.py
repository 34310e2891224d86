"""Exact cluster-size moments: a frontier DP and an enumeration reference.

:func:`moment_polynomial` never lists configurations.  A frontier
(transfer-matrix) DP after Sekine, Imai & Tani (ISAAC 1995) and Hardy,
Lucet & Limnios (IEEE Trans. Reliability 2007) adds the edges one at a
time in a greedy order; its states are the partitions of the current
frontier into clusters, each carrying exact integer sums over the
configurations of the edges so far.  Its cost grows with the frontier width,
capped at :data:`MAX_FRONTIER` vertices, not with 2^|E|, so it reaches the
dodecahedron, the icosahedron and ring(N) up to N = 1171; an estimate of its
work from the frontier widths of the edge order, capped at
:data:`MAX_DP_WORK`, bounds long graphs before any step, and a lower bound
on it from |E| alone refuses the longest ones before their edges are
ordered.

:func:`exact_moments` is that polynomial evaluated at p: one call runs one
DP, with the DP's refusals, and the CLI's ``oracle`` row is that call.

The two enumeration routes, :func:`connectivity_moments` and
:func:`pair_connectivity`, walk the full set of 2^|E| open/closed
configurations, so graphs are capped at :data:`DEFAULT_EDGE_CAP` edges, a
cap no caller can raise: at it a call takes seconds (pair_connectivity on
ring(24) 10-17 s on a 2-vCPU host) and holds at most 1.41 MB of
enumeration state.  Enumeration is done in vectorized blocks of
``_BLOCK`` configurations by binary doubling (Newman & Ziff, PRL 85,
4104, 2000): configuration c with bit k set is configuration
c - 2^k with edge k opened, so each configuration's clusters come from an
earlier one by a single merge of two clusters, with no relaxation and no
fixpoint.  Consecutive blocks are doubled together in groups of about
``_GROUP_BYTES`` of state, so each merge is one numpy call per group, not
per block, and labels and sizes are int8 (``_STATE_DTYPE``).  Blocks are
handed out as views into their group, valid until the next group starts.
They share no code with the DP and serve as its reference:

* :func:`connectivity_moments` goes through the start vertex x: E(S_x) =
  sum_y P(x <-> y) is taken as the weighted sum of the cluster size S_x at
  x, E(S_x^2) likewise of S_x^2, and both are averaged over x;
* :func:`pair_connectivity` gives the table of P(x <-> y), which the DP
  does not.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .bounds import MomentPair
from .errors import TooManyEdgesError, _check_probability
from .graphs import Graph

__all__ = [
    "DEFAULT_EDGE_CAP",
    "MAX_FRONTIER",
    "MAX_DP_WORK",
    "MomentPolynomial",
    "ConnectivityTable",
    "exact_moments",
    "moment_polynomial",
    "connectivity_moments",
    "pair_connectivity",
]

DEFAULT_EDGE_CAP = 24
# Widest frontier the DP of :func:`moment_polynomial` accepts.  States are
# partitions of the frontier, so each extra vertex multiplies their number
# by up to ~5 (Bell numbers).  On a 2-vCPU host: complete(8) and
# hypercube(4), width 8, take 0.13 and 0.25 s and 6 and 11 MB; complete(9)
# 0.6 s and 40 MB, complete(10) 3.4 s and 285 MB; and the 96-edge
# circulant C_24(1,2,3,4), width 9, 52 s and 590 MB.
MAX_FRONTIER = 8
# Most work the DP may be estimated to do, in cell updates: per edge, the
# Bell(w) partitions of its w-vertex frontier times the 2 + C(w + 3, 3)
# rows and the open-edge columns of each state's matrix, times 64-bit words
# per count once counts outgrow int64 (see _dp_work).  On a 2-vCPU host
# the DP makes 0.8e8 to 3.4e8 of them a second: ring(1000), 6.3e8, takes
# 2.2 s, ring(1150) 3.1 s (ring(1171) is the longest ring accepted), and
# circulants of frontier width 7 about 7 s per 1e9.
MAX_DP_WORK = 10**9
# Partitions of a frontier of 0 .. MAX_FRONTIER vertices (Bell numbers).
_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
# Configurations per block, a power of two: the low 12 edges vary within it.
_BLOCK = 4096
# State bytes of a group of blocks that are doubled together.  Each merge
# is one numpy call over the whole group, so a wider group spreads the
# per-call overhead over more columns.  Enumerated E(S) and E(S^2) /
# connectivity_moments on ring(20), int8 state, 2-vCPU host, medians of 7:
# one block at a time 100-117 / 134-157 ms, 512 KB 72-84 / 92-117, 1 MB
# 52-58 / 84-87, 2 MB 42-44 / 68-71, 4 MB no faster.  Past 1 MB the group's
# memory grows faster than the gain: at 2 MB connectivity_moments on
# ring(20) peaks at 3.9 MB of allocations, 2.6 MB at 1 MB.
_GROUP_BYTES = 1 << 20
# Labels and sizes are at most N, and int8 holds every N that can be
# enumerated: a D-regular graph has N = 2 |E| / D <= 2 |E| <= 48.
_STATE_DTYPE = np.dtype(np.int8)


def _check_cap(graph: Graph) -> None:
    """Refuse an enumeration past ``DEFAULT_EDGE_CAP`` edges."""
    if graph.n_edges > DEFAULT_EDGE_CAP:
        raise TooManyEdgesError(
            f"{graph.n_edges} edges exceeds enumeration cap {DEFAULT_EDGE_CAP}; "
            f"2^{graph.n_edges} configurations is too many"
        )


def _open_edge(state: tuple[np.ndarray, ...], width: int, u: int, v: int) -> None:
    """Fill columns ``[width, 2 width)`` from ``[0, width)`` with edge (u, v) open.

    ``state`` is ``(n_open, labels, sizes, first, second)``: open-edge
    counts, canonical labels and per-vertex cluster sizes (vertices first),
    and per-column sum_x S_x and sum_x S_x^2.  Columns are the last axis;
    any axes between (the blocks of a group) are carried along.  Opening
    the edge merges the clusters labelled ``a`` and ``b`` into one labelled
    ``min(a, b)`` of size ``sa + sb``, so sum_x S_x gains ``2 sa sb`` and
    sum_x S_x^2 gains ``3 sa sb (sa + sb)``; where ``a == b`` nothing changes.
    """
    n_open, labels, sizes, first, second = state
    lab, siz = labels[..., :width], sizes[..., :width]
    a, b = lab[u], lab[v]
    low, high = np.minimum(a, b), np.maximum(a, b)
    # Where a == b, added and high - low are 0 and the column is copied as is.
    added = siz[v] * (a != b)
    merged = siz[u] + added
    # Masked arithmetic, not np.where: where with broadcast columns is ~3x slower.
    new_lab = lab - (lab == high) * (high - low)
    labels[..., width : 2 * width] = new_lab
    # Members of the merged cluster take its size, at least their old one.
    sizes[..., width : 2 * width] = np.maximum(siz, (new_lab == low) * merged)
    gain = np.multiply(siz[u], added, dtype=np.int64)
    np.add(first[..., :width], 2 * gain, out=first[..., width : 2 * width])
    np.add(second[..., :width], 3 * gain * merged, out=second[..., width : 2 * width])
    np.add(n_open[..., :width], 1, out=n_open[..., width : 2 * width])


def _state(n: int, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Uninitialized ``(n_open, labels, sizes, first, second)`` of ``shape`` columns."""
    labels, sizes = (np.empty((n, *shape), dtype=_STATE_DTYPE) for _ in range(2))
    n_open, first, second = (np.empty(shape, dtype=np.int64) for _ in range(3))
    return n_open, labels, sizes, first, second


def _column_bytes(n: int) -> int:
    """State bytes of one configuration column: labels and sizes, then three int64."""
    return 2 * n * _STATE_DTYPE.itemsize + 3 * 8


def _group_blocks(n: int, width: int) -> int:
    """Blocks of ``width`` columns per group: as many as fit in ``_GROUP_BYTES``, at least one."""
    return max(1, _GROUP_BYTES // (width * _column_bytes(n)))


def _layout(n: int, m: int) -> tuple[int, int, int, int]:
    """``(low, n_blocks, shared, n_group)`` of the enumeration of ``m`` edges (see _config_blocks)."""
    low = min(m, _BLOCK.bit_length() - 1)
    n_blocks = 1 << (m - low)
    shared = max(0, low - (m - low))
    return low, n_blocks, shared, min(n_blocks, _group_blocks(n, 1 << low))


def _double(
    state: tuple[np.ndarray, ...], edges: tuple[tuple[int, int], ...], done: int = 0
) -> None:
    """Fill columns from ``[0, 2^done)``: column c opens ``edges[i]`` for bit done + i of c."""
    for i, (u, v) in enumerate(edges, done):
        _open_edge(state, 1 << i, u, v)


def _config_blocks(graph: Graph) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield ``(n_open, labels, sizes, first, second)`` blocks of all configurations.

    Configuration c opens edge e iff bit e of c is set, and blocks hold
    ``_BLOCK`` consecutive configurations, yielded in order.  Columns are
    configurations: ``n_open`` their open-edge counts, ``labels``
    (n_vertices, block) the smallest vertex id in each vertex's cluster,
    ``sizes`` the cluster size at each vertex, ``first``/``second`` sum_x
    S_x and sum_x S_x^2.  Labels and sizes are int8 (``_STATE_DTYPE``).
    The arrays are views into the state of a group of blocks and are
    overwritten once the next group starts.

    Nothing is relaxed: configuration c with bit k set is configuration
    c - 2^k with edge k opened, one merge of two clusters.  Once per call,
    the block starts are doubled from the all-closed configuration over the
    high edges (those above the block's bits) and then over the first
    ``shared`` low edges, as long as that fits in one block of columns;
    start column ``i * n_blocks + j`` is block j's column i.  Groups of
    consecutive blocks, as many as fit in ``_GROUP_BYTES`` of state, copy
    their starts and are doubled together over the remaining low edges.
    So the many narrow merges at the start of a block run once per call, on
    wide columns, and every later merge is one numpy call per group.
    """
    _check_cap(graph)
    n = graph.n_vertices
    low, n_blocks, shared, n_group = _layout(n, graph.n_edges)
    starts = _state(n, (n_blocks << shared,))
    for a, closed in zip(starts, (0, np.arange(n), 1, n, n)):
        a[..., 0] = closed
    _double(starts, graph.edges[low:] + graph.edges[:shared])
    # block j's starts along the last axis: (..., 2^shared, n_blocks) -> (..., n_blocks, 2^shared)
    starts = [a.reshape(*a.shape[:-1], 1 << shared, n_blocks).swapaxes(-1, -2) for a in starts]
    full = _state(n, (n_group, 1 << low))
    for j in range(0, n_blocks, n_group):
        g = min(n_group, n_blocks - j)
        group = tuple(a[..., :g, :] for a in full)
        for dst, src in zip(group, starts):
            dst[..., : 1 << shared] = src[..., j : j + g, :]
        _double(group, graph.edges[shared:low], shared)
        for k in range(g):
            yield tuple(a[..., k, :] for a in group)


def _same_cluster(labels: np.ndarray) -> np.ndarray:
    """Indicator tensor (N, N, block) of vertices sharing a cluster."""
    return labels[:, None, :] == labels[None, :, :]


def _config_weights(n_edges: int, p: float) -> np.ndarray:
    """p^m (1-p)^(|E|-m) for m = 0..|E|: index it with ``n_open``."""
    m = np.arange(n_edges + 1)
    return p**m * (1.0 - p) ** (n_edges - m)


def _bracket(counts: tuple[int, ...], a: int, d: int, bits: int) -> tuple[int, int]:
    """Integers low <= 2^bits sum_m counts[m] p^m (1-p)^(M-m) <= high, p = a / d.

    ``d`` is a power of two.  The powers of p and of 1 - p are kept in
    fixed point with ``bits`` fraction bits, rounded down for ``low`` and
    up for ``high``; each rounding is off by under one unit and the factors
    are at most 1, so every weight is within M + 2 units of exact.
    """
    shift, m = d.bit_length() - 1, len(counts) - 1

    def powers(x: int, up: bool) -> list[int]:
        out = [1 << bits]
        for _ in range(m):
            out.append(-(-out[-1] * x >> shift) if up else out[-1] * x >> shift)
        return out

    p_low, q_low, p_high, q_high = (powers(x, up) for up in (False, True) for x in (a, d - a))
    low = sum(c * (p_low[k] * q_low[m - k] >> bits) for k, c in enumerate(counts))
    high = sum(c * -(-p_high[k] * q_high[m - k] >> bits) for k, c in enumerate(counts))
    return low, high


def _split_sum(counts: tuple[int, ...], a: int, b: int) -> int:
    """sum_m counts[m] a^m b^(M-m), by binary splitting.

    Each half is summed alone and the two are joined by one power of each
    of a and b, so the big multiplications are few and balanced, unlike
    Horner's rule, which multiplies the growing sum at every count.
    """
    if len(counts) == 1:
        return counts[0]
    half = len(counts) // 2
    left, right = _split_sum(counts[:half], a, b), _split_sum(counts[half:], a, b)
    return left * b ** (len(counts) - half) + a**half * right


@dataclass(frozen=True)
class MomentPolynomial:
    """Exact moments as polynomials in p, via integer configuration counts.

    ``first_counts[m]`` is sum over all configurations with exactly m open
    edges of sum_x S_x, an exact integer; likewise ``second_counts`` with
    S_x^2.  Then N * E(S) = sum_m first_counts[m] p^m (1-p)^(|E|-m).
    """

    n_vertices: int
    n_edges: int
    first_counts: tuple[int, ...]
    second_counts: tuple[int, ...]

    @property
    def first_coeffs(self) -> tuple[Fraction, ...]:
        """Exact rational coefficients of E(S) in the binomial-weight basis."""
        return tuple(Fraction(c, self.n_vertices) for c in self.first_counts)

    @property
    def second_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n_vertices) for c in self.second_counts)

    def evaluate(self, p: float) -> MomentPair:
        p = _check_probability(p)
        weights = _config_weights(self.n_edges, p)
        first, second = (
            self._moment(counts, weights, p) for counts in (self.first_counts, self.second_counts)
        )
        return MomentPair(first=first, second=second, kind="exact")

    def _moment(self, counts: tuple[int, ...], weights: np.ndarray, p: float) -> float:
        """sum_m counts[m] p^m (1-p)^(|E|-m) / N.

        Summed in float64 while every count is below 2^1023.  A larger count
        would overflow float64, so the sum is then rounded correctly from
        integers: p = a / 2^k, and :func:`_bracket` puts it between two
        fixed-point sums with enough fraction bits that they differ by less
        than 2^-62, so both round to the same float unless the moment lies
        within 2^-62 / N of a rounding boundary.  Only then is it summed
        exactly, by :func:`_split_sum`.
        """
        if max(counts) < 1 << 1023:
            return float(weights @ np.array(counts, dtype=np.float64)) / self.n_vertices
        a, d = p.as_integer_ratio()
        bits = sum(counts).bit_length() + self.n_edges.bit_length() + 64
        low, high = _bracket(counts, a, d, bits)
        scale = self.n_vertices << bits
        if low / scale == high / scale:
            return low / scale
        return _split_sum(counts, a, d - a) / (d**self.n_edges * self.n_vertices)

    def to_json_dict(self) -> dict:
        """JSON-ready form; counts as strings so arbitrary ints survive."""
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "denominator": self.n_vertices,
            "first_counts": [str(c) for c in self.first_counts],
            "second_counts": [str(c) for c in self.second_counts],
        }


def _edge_order(graph: Graph) -> tuple[tuple[tuple[int, int], ...], int]:
    """A greedy edge order that keeps the frontier small, and its peak width.

    The frontier after an edge is the set of vertices that have some edges
    in the order up to it and some after it; its width counts the edge's
    own endpoints too.  Each next edge is one at a frontier vertex that
    grows the frontier least (new endpoints minus endpoints it retires),
    the first such in frontier-entry and edge-index order; with none, the
    first edge of the lowest vertex not yet reached starts the order anew.
    The walk stops once the width passes :data:`MAX_FRONTIER`, so the
    returned width is then only a lower bound and the order is partial.
    """
    incident: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for e, (u, v) in enumerate(graph.edges):
        incident[u].append(e)
        incident[v].append(e)
    remaining = [len(es) for es in incident]
    done = [False] * graph.n_edges
    frontier: dict[int, None] = {}  # insertion-ordered set
    order: list[tuple[int, int]] = []
    width = start = 0
    while len(order) < graph.n_edges and width <= MAX_FRONTIER:
        best, growth = -1, 3
        for x in frontier:
            for e in incident[x]:
                if done[e]:
                    continue
                u, v = graph.edges[e]
                g = ((u not in frontier) + (v not in frontier)
                     - (remaining[u] == 1) - (remaining[v] == 1))
                if g < growth:
                    best, growth = e, g
        if best < 0:
            while remaining[start] == 0:
                start += 1
            best = next(e for e in incident[start] if not done[e])
        done[best] = True
        u, v = graph.edges[best]
        order.append((u, v))
        frontier.update({u: None, v: None})
        width = max(width, len(frontier))
        for x in (u, v):
            remaining[x] -= 1
            if remaining[x] == 0:
                del frontier[x]
    return tuple(order), width


def _frozen(values) -> np.ndarray:
    """A read-only int64 array, safe to hand out from a cache."""
    array = np.array(values, dtype=np.int64)
    array.flags.writeable = False
    return array


@functools.cache
def _monomials(b: int) -> dict[tuple[int, ...], int]:
    """Row of each monomial of degree <= 3 in the sizes of blocks 0..b-1.

    A monomial is the sorted tuple of its block labels: () is 1, (0, 0, 2)
    is s_0^2 s_2.  Rows 0 and 1 of a state hold its closed-block sums of
    s^2 and s^3, so monomial rows start at 2, with () first.
    """
    monomials = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(b), d) for d in range(4)
    )
    return {mono: row for row, mono in enumerate(monomials, 2)}


@functools.cache
def _enter_rows(b: int) -> np.ndarray:
    """Source rows when a vertex enters as block b, a singleton: s_b = 1."""
    old = _monomials(b)
    return _frozen([0, 1] + [old[tuple(l for l in mono if l != b)] for mono in _monomials(b + 1)])


@functools.cache
def _leave_rows(b: int, label: int, new: int) -> tuple[np.ndarray, tuple[int, int] | None]:
    """Source rows when a vertex of block ``label`` leaves the frontier.

    The block's first vertex on the frontier is now a later one, ranked
    ``new`` among the blocks' first vertices, and the labels between move
    down one; or, where ``new`` is -1, the vertex was the block's last on
    the frontier and the block closes: its s^2 and s^3 rows, also returned,
    go to the closed-block sums, the monomials holding it are dropped and
    the labels above move down one.
    """
    old = _monomials(b)
    if new < 0:
        source = [l + (l >= label) for l in range(b - 1)]
        closing = (old[(label, label)], old[(label, label, label)])
    else:
        source = list(range(b))
        source.insert(new, source.pop(label))
        closing = None
    new_monomials = _monomials(len(source))
    rows = [0, 1] + [old[tuple(sorted(source[l] for l in mono))] for mono in new_monomials]
    return _frozen(rows), closing


@functools.cache
def _merge_terms(b: int, i: int, j: int) -> tuple[np.ndarray, ...]:
    """Block j joins block i < j; blocks above j move down one label.

    Old monomial s_i^a s_j^c r adds C(a + c, a) times itself to exactly one
    new monomial, s_i^(a + c) r, by the binomial expansion of
    (s_i + s_j)^(a + c).  Returned for ``np.add.reduceat``: the old rows
    sorted by their new row, the positions in that order whose coefficient
    is not 1 with those coefficients, and where each new row's run starts.
    """
    new = _monomials(b - 1)
    targets, coefs = [0, 1], [1, 1]
    for mono in _monomials(b):
        targets.append(new[tuple(sorted(i if l == j else l - (l > j) for l in mono))])
        coefs.append(math.comb(mono.count(i) + mono.count(j), mono.count(i)))
    order = np.argsort(targets, kind="stable")
    coef = np.array(coefs)[order]
    scaled = np.flatnonzero(coef > 1)
    starts = np.flatnonzero(np.diff(np.array(targets)[order], prepend=-1))
    return _frozen(order), _frozen(scaled), _frozen(coef[scaled, None]), _frozen(starts)


def _canonical(labels: bytes) -> tuple[bytes, dict[int, int]]:
    """Block labels renumbered by first appearance, and the renumbering."""
    renumber: dict[int, int] = {}
    return bytes(renumber.setdefault(l, len(renumber)) for l in labels), renumber


def _int64_counts(graph: Graph) -> bool:
    """Whether every count of the DP fits int64: at most 2^|E| configurations times N^3."""
    return (1 << graph.n_edges) * graph.n_vertices**3 < 1 << 63


def _dp_work(graph: Graph, order: tuple[tuple[int, int], ...]) -> int:
    """Estimated cell updates of :func:`_frontier_counts` over ``order`` (see MAX_DP_WORK).

    ``order`` must keep the frontier within :data:`MAX_FRONTIER` vertices.
    """
    small = _int64_counts(graph)
    size_bits = 3 * graph.n_vertices.bit_length()
    left = [0] * graph.n_vertices
    for u, v in order:
        left[u] += 1
        left[v] += 1
    frontier: set[int] = set()
    work = 0
    for cols, (u, v) in enumerate(order, 2):
        frontier.update((u, v))
        w = len(frontier)
        words = 1 if small else 1 + (cols + size_bits) // 64
        work += _BELL[w] * (2 + math.comb(w + 3, 3)) * cols * words
        for x in (u, v):
            left[x] -= 1
            if not left[x]:
                frontier.discard(x)
    return work


def _frontier_counts(
    graph: Graph, order: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-m sums of sum_x S_x and sum_x S_x^2, by a frontier DP over ``order``.

    A state is a partition of the frontier into blocks, keyed by the bytes
    of each frontier vertex's block label (labels in order of first
    appearance; bytes, as tuples would crowd the interpreter's tuple free
    lists and raise later memory peaks).
    It carries an integer matrix: column m sums, over the configurations
    of the edges so far with m open that reach the state, each monomial of
    degree <= 3 in the sizes of its blocks (rows of :func:`_monomials`),
    and the s^2 and s^3 of every block already closed.  Monomials are
    enough because opening an edge replaces two sizes by their sum, a
    binomial expansion that keeps the degree.  At the end no block is
    open, and rows 0 and 1 are the counts.  See Sekine, Imai & Tani, ISAAC
    1995, for the frontier method.
    """
    n = graph.n_vertices
    dtype = np.int64 if _int64_counts(graph) else object
    left = [0] * n
    for u, v in order:
        left[u] += 1
        left[v] += 1
    frontier: list[int] = []
    start = np.zeros((3, 1), dtype=dtype)
    start[2, 0] = 1
    states = {b"": start}
    for cols, (u, v) in enumerate(order, 1):
        for x in (u, v):
            if x not in frontier:
                frontier.append(x)
                entered = {}
                for key, mat in states.items():
                    b = max(key, default=-1) + 1
                    entered[key + bytes((b,))] = mat[_enter_rows(b)]
                states = entered
        at_u, at_v = frontier.index(u), frontier.index(v)
        children: dict[bytes, np.ndarray] = {}

        def add(key: bytes, mat: np.ndarray, n_open: int) -> None:
            # closed edge: columns as they were; open edge: one column up
            total = children.get(key)
            if total is None:
                total = children[key] = np.zeros((len(mat), cols + 1), dtype=dtype)
                total[:, n_open : n_open + cols] = mat
            else:
                total[:, n_open : n_open + cols] += mat

        while states:  # popping frees each state once its children exist
            key, mat = states.popitem()
            add(key, mat, 0)
            i, j = key[at_u], key[at_v]
            if i > j:
                i, j = j, i
            if i == j:
                add(key, mat, 1)
                continue
            sources, scaled, coef, starts = _merge_terms(max(key) + 1, i, j)
            terms = mat[sources]
            terms[scaled] *= coef
            merged = np.add.reduceat(terms, starts, axis=0)
            add(bytes(i if l == j else l - (l > j) for l in key), merged, 1)
        states = children
        for x in (u, v):
            left[x] -= 1
            if left[x]:
                continue
            q = frontier.index(x)
            del frontier[q]
            children = {}
            while states:
                key, mat = states.popitem()
                rest, renumber = _canonical(key[:q] + key[q + 1 :])
                rows, closing = _leave_rows(max(key) + 1, key[q], renumber.get(key[q], -1))
                out = mat[rows]
                if closing is not None:
                    out[:2] += mat[list(closing)]
                if rest in children:
                    children[rest] += out
                else:
                    children[rest] = out
            states = children
    (mat,) = states.values()
    return tuple(int(c) for c in mat[0]), tuple(int(c) for c in mat[1])


def _check_dp_work(graph: Graph, work: int) -> None:
    if work > MAX_DP_WORK:
        raise TooManyEdgesError(
            f"the exact DP on {graph.n_edges} edges would take an estimated "
            f"{work:.2e} cell updates, above its cap of {MAX_DP_WORK:.0e}"
        )


def moment_polynomial(graph: Graph) -> MomentPolynomial:
    """Integer configuration counts per number of open edges, by a frontier DP.

    No configuration is enumerated, so the cost depends on the frontier
    width of :func:`_edge_order` rather than on 2^|E|.  A graph whose
    frontier passes :data:`MAX_FRONTIER` vertices, or whose estimated work
    passes :data:`MAX_DP_WORK` (ring(N) above N = 1171), is refused with
    :class:`TooManyEdgesError` before any DP step.
    """
    # every step's frontier holds its edge's two endpoints, so the work is
    # at least 2 x (2 + 10) rows x its columns: refused before any ordering
    _check_dp_work(graph, 12 * (graph.n_edges + 1) * (graph.n_edges + 2) - 24)
    order, width = _edge_order(graph)
    if width > MAX_FRONTIER:
        raise TooManyEdgesError(
            f"frontier width reaches {width} on {graph.n_edges} edges, above the "
            f"exact DP's cap of {MAX_FRONTIER}"
        )
    _check_dp_work(graph, _dp_work(graph, order))
    first_counts, second_counts = _frontier_counts(graph, order)
    return MomentPolynomial(
        n_vertices=graph.n_vertices,
        n_edges=graph.n_edges,
        first_counts=first_counts,
        second_counts=second_counts,
    )


def exact_moments(graph: Graph, p: float) -> MomentPair:
    """E(S) and E(S^2) at ``p``: :func:`moment_polynomial` evaluated at ``p``.

    ``p`` is checked first, and the DP's refusals apply before any DP step.
    """
    p = _check_probability(p)
    return moment_polynomial(graph).evaluate(p)


@dataclass(frozen=True)
class ConnectivityTable:
    """Pairwise connection probabilities."""

    p: float
    pair_probs: np.ndarray = field(repr=False)


def pair_connectivity(graph: Graph, p: float) -> ConnectivityTable:
    """P(x <-> y) for all pairs of vertices."""
    p = _check_probability(p)
    n = graph.n_vertices
    pair = np.zeros((n, n))
    weights = _config_weights(graph.n_edges, p)
    for n_open, labels, _, _, _ in _config_blocks(graph):
        pair += np.tensordot(_same_cluster(labels), weights[n_open], axes=([2], [0]))
    return ConnectivityTable(p=p, pair_probs=pair)


def connectivity_moments(graph: Graph, p: float) -> MomentPair:
    """Moments per start vertex rather than per configuration.

    E(S_x) = sum_y P(x <-> y) is the weighted sum of the cluster size S_x
    at x over all configurations, since sum_y [x <-> y] = S_x; E(S_x^2) =
    sum_{y,z} P(x <-> y, x <-> z) likewise of S_x^2.  Both are averaged
    over x.  Same answers as :func:`exact_moments` by enumeration, with no
    code shared with its DP.
    """
    p = _check_probability(p)
    n = graph.n_vertices
    first_per_x = np.zeros(n)
    second_per_x = np.zeros(n)
    weights = _config_weights(graph.n_edges, p)
    s = None  # one float64 buffer for every block's sizes, then their squares
    for n_open, _, sizes, _, _ in _config_blocks(graph):
        w = weights[n_open]
        if s is None:
            s = np.empty(sizes.shape)
        np.copyto(s, sizes)
        first_per_x += s @ w
        np.square(s, out=s)
        second_per_x += s @ w
    first = float(first_per_x.mean())
    second = float(second_per_x.mean())
    return MomentPair(first=first, second=second, kind="exact")
