"""Exact cluster-size moments by enumeration of all edge configurations.

Every function here walks the full set of 2^|E| open/closed configurations,
so graphs are capped at :data:`DEFAULT_EDGE_CAP` edges unless the caller
raises the cap explicitly.  Enumeration is done in vectorized blocks of
``_BLOCK`` configurations by binary doubling (Newman & Ziff, PRL 85, 4104,
2000): configuration c with bit k set is configuration c - 2^k with edge k
opened, so each configuration's clusters come from an earlier one by a
single merge of two clusters, with no relaxation and no fixpoint.

Three independent routes to the moments are exposed:

* :func:`exact_moments` weights per-configuration size sums directly;
* :func:`moment_polynomial` collects exact integer counts per number of open
  edges and evaluates the resulting polynomial in p (exact rationals via
  :mod:`fractions` are available on the result);
* :func:`connectivity_moments` goes through pairwise connection
  probabilities, E(S) = mean_x sum_y P(x <-> y).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .bounds import MomentPair
from .errors import TooManyEdgesError
from .graphs import Graph, _check_integer
from .percolation import _check_probability

__all__ = [
    "DEFAULT_EDGE_CAP",
    "MomentPolynomial",
    "ConnectivityTable",
    "exact_moments",
    "moment_polynomial",
    "connectivity_moments",
    "pair_connectivity",
]

DEFAULT_EDGE_CAP = 24
# Configurations per block, a power of two: the low 12 edges vary within it.
_BLOCK = 4096


def _check_cap(graph: Graph, max_edges: int | None) -> None:
    cap = DEFAULT_EDGE_CAP if max_edges is None else _check_integer("max_edges", max_edges)
    if graph.n_edges > cap:
        raise TooManyEdgesError(
            f"{graph.n_edges} edges exceeds enumeration cap {cap}; "
            f"2^{graph.n_edges} configurations is too many"
        )


def _open_edge(state: tuple[np.ndarray, ...], width: int, u: int, v: int) -> None:
    """Fill columns ``[width, 2 width)`` from ``[0, width)`` with edge (u, v) open.

    ``state`` is ``(n_open, labels, sizes, first, second)``: open-edge
    counts, canonical labels and per-vertex cluster sizes (both vertices x
    columns), and per-column sum_x S_x and sum_x S_x^2.  Opening the edge
    merges the clusters labelled ``a`` and ``b`` into one labelled
    ``min(a, b)`` of size ``sa + sb``, so sum_x S_x gains ``2 sa sb`` and
    sum_x S_x^2 gains ``3 sa sb (sa + sb)``; where ``a == b`` nothing changes.
    """
    n_open, labels, sizes, first, second = state
    lab, siz = labels[:, :width], sizes[:, :width]
    a, b = lab[u], lab[v]
    low, high = np.minimum(a, b), np.maximum(a, b)
    # Where a == b, added and high - low are 0 and the column is copied as is.
    added = siz[v] * (a != b)
    merged = siz[u] + added
    # Masked arithmetic, not np.where: where with broadcast columns is ~3x slower.
    new_lab = lab - (lab == high) * (high - low)
    labels[:, width : 2 * width] = new_lab
    # Members of the merged cluster take its size, at least their old one.
    sizes[:, width : 2 * width] = np.maximum(siz, (new_lab == low) * merged)
    gain = np.multiply(siz[u], added, dtype=np.int64)
    np.add(first[:width], 2 * gain, out=first[width : 2 * width])
    np.add(second[:width], 3 * gain * merged, out=second[width : 2 * width])
    np.add(n_open[:width], 1, out=n_open[width : 2 * width])


def _empty_state(n: int, width: int) -> tuple[np.ndarray, ...]:
    """State arrays for ``width`` columns, column 0 set to all edges closed."""
    labels = np.empty((n, width), dtype=np.int16)
    labels[:, 0] = np.arange(n)
    sizes = np.empty((n, width), dtype=np.int16)
    sizes[:, 0] = 1
    n_open, first, second = (np.empty(width, dtype=np.int64) for _ in range(3))
    n_open[0], first[0], second[0] = 0, n, n
    return n_open, labels, sizes, first, second


def _double(
    state: tuple[np.ndarray, ...], edges: tuple[tuple[int, int], ...], done: int = 0
) -> None:
    """Fill columns from ``[0, 2^done)``: column c opens ``edges[i]`` for bit done + i of c."""
    for i, (u, v) in enumerate(edges, done):
        _open_edge(state, 1 << i, u, v)


def _config_blocks(
    graph: Graph, max_edges: int | None
) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield ``(n_open, labels, sizes, first, second)`` blocks of all configurations.

    Configuration c opens edge e iff bit e of c is set, and blocks hold
    ``_BLOCK`` consecutive configurations.  Columns are configurations:
    ``n_open`` their open-edge counts, ``labels`` (n_vertices, block) the
    smallest vertex id in each vertex's cluster, ``sizes`` the cluster size
    at each vertex, ``first``/``second`` sum_x S_x and sum_x S_x^2.  The
    arrays are overwritten by the next block.

    Nothing is relaxed: configuration c with bit k set is configuration
    c - 2^k with edge k opened, one merge of two clusters.  Once per call,
    the block starts are doubled from the all-closed configuration over the
    high edges (those above the block's bits) and then over the first
    ``shared`` low edges, as long as that fits in one block of columns;
    start column ``i * n_blocks + j`` is block j's column i.  Each block
    copies its starts and doubles them over the remaining low edges, so the
    many narrow merges at the start of a block run once, on wide columns.
    """
    _check_cap(graph, max_edges)
    n, m = graph.n_vertices, graph.n_edges
    low = min(m, _BLOCK.bit_length() - 1)
    n_blocks = 1 << (m - low)
    shared = max(0, low - (m - low))
    starts = _empty_state(n, n_blocks << shared)
    _double(starts, graph.edges[low:] + graph.edges[:shared])
    block = _empty_state(n, 1 << low)
    for j in range(n_blocks):
        for dst, src in zip(block, starts):
            dst[..., : 1 << shared] = src[..., j::n_blocks]
        _double(block, graph.edges[shared:low], shared)
        yield block


def _same_cluster(labels: np.ndarray) -> np.ndarray:
    """Indicator tensor (N, N, block) of vertices sharing a cluster."""
    return labels[:, None, :] == labels[None, :, :]


def _config_weights(n_open: np.ndarray, n_edges: int, p: float) -> np.ndarray:
    return p**n_open * (1.0 - p) ** (n_edges - n_open)


def exact_moments(graph: Graph, p: float, max_edges: int | None = None) -> MomentPair:
    """E(S) and E(S^2) by direct probability-weighted enumeration."""
    p = _check_probability(p)
    first_acc = 0.0
    second_acc = 0.0
    m = graph.n_edges
    for n_open, _, _, first, second in _config_blocks(graph, max_edges):
        w = _config_weights(n_open, m, p)
        first_acc += float(w @ first)
        second_acc += float(w @ second)
    n = graph.n_vertices
    return MomentPair(first=first_acc / n, second=second_acc / n, kind="exact")


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
        weights = _config_weights(np.arange(self.n_edges + 1), self.n_edges, p)
        first, second = (
            self._moment(counts, weights, p) for counts in (self.first_counts, self.second_counts)
        )
        return MomentPair(first=first, second=second, kind="exact")

    def _moment(self, counts: tuple[int, ...], weights: np.ndarray, p: float) -> float:
        """sum_m counts[m] p^m (1-p)^(|E|-m) / N.

        Summed in float64 while every count is below 2^1023.  A larger count
        would overflow float64, so the sum is then taken exactly: p = a / d
        with d a power of two, so the sum times d^|E| is the integer
        sum_m counts[m] a^m (d-a)^(|E|-m), built by Horner's rule in a, and
        one int / int division rounds it.
        """
        if max(counts) < 1 << 1023:
            return float(weights @ np.array(counts, dtype=np.float64)) / self.n_vertices
        a, d = p.as_integer_ratio()
        acc, b_pow = counts[-1], 1
        for c in reversed(counts[:-1]):
            b_pow *= d - a
            acc = acc * a + c * b_pow
        return acc / (d**self.n_edges * self.n_vertices)

    def to_json_dict(self) -> dict:
        """JSON-ready form; counts as strings so arbitrary ints survive."""
        return {
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "denominator": self.n_vertices,
            "first_counts": [str(c) for c in self.first_counts],
            "second_counts": [str(c) for c in self.second_counts],
        }


def moment_polynomial(graph: Graph, max_edges: int | None = None) -> MomentPolynomial:
    """Integer configuration counts per number of open edges.

    Per-block partial counts stay far below 2^53 (at most 4096
    configurations, each contributing at most N^3), so accumulating through
    float64 bincount weights is exact before conversion to int64.
    """
    m = graph.n_edges
    first_counts = np.zeros(m + 1, dtype=np.int64)
    second_counts = np.zeros(m + 1, dtype=np.int64)
    for n_open, _, _, first, second in _config_blocks(graph, max_edges):
        first_counts += np.bincount(n_open, weights=first, minlength=m + 1).astype(np.int64)
        second_counts += np.bincount(n_open, weights=second, minlength=m + 1).astype(np.int64)
    return MomentPolynomial(
        n_vertices=graph.n_vertices,
        n_edges=m,
        first_counts=tuple(int(c) for c in first_counts),
        second_counts=tuple(int(c) for c in second_counts),
    )


@dataclass(frozen=True)
class ConnectivityTable:
    """Pairwise connection probabilities."""

    p: float
    pair_probs: np.ndarray = field(repr=False)


def pair_connectivity(
    graph: Graph, p: float, max_edges: int | None = None
) -> ConnectivityTable:
    """P(x <-> y) for all pairs of vertices."""
    p = _check_probability(p)
    n = graph.n_vertices
    pair = np.zeros((n, n))
    for n_open, labels, _, _, _ in _config_blocks(graph, max_edges):
        w = _config_weights(n_open, graph.n_edges, p)
        pair += np.tensordot(_same_cluster(labels), w, axes=([2], [0]))
    return ConnectivityTable(p=p, pair_probs=pair)


def connectivity_moments(
    graph: Graph, p: float, max_edges: int | None = None
) -> MomentPair:
    """Moments through connection probabilities rather than size sums.

    E(S) is the mean over x of sum_y P(x <-> y); E(S^2) the mean over x of
    sum_{y,z} P(x <-> y, x <-> z), accumulated per start vertex.  Same
    answers as :func:`exact_moments` through a different reduction.
    """
    p = _check_probability(p)
    n = graph.n_vertices
    pair = np.zeros((n, n))
    second_per_x = np.zeros(n)
    for n_open, labels, sizes, _, _ in _config_blocks(graph, max_edges):
        w = _config_weights(n_open, graph.n_edges, p)
        pair += np.tensordot(_same_cluster(labels), w, axes=([2], [0]))
        second_per_x += (sizes.astype(np.float64) ** 2) @ w
    first = float(pair.sum(axis=1).mean())
    second = float(second_per_x.mean())
    return MomentPair(first=first, second=second, kind="exact")
