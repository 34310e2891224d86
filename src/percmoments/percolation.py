"""Bond-percolation realizations and open-cluster extraction.

A realization keeps one open/closed flag per edge index.  Realizations have
one source: replicate ``r`` of seed ``s``, drawn from the counter-based
streams of :mod:`percmoments.rng` (:func:`~percmoments.rng.edge_draws` for
whole blocks, :func:`~percmoments.replicate_realization` for one replicate).
An edge is open iff its uniform ``u`` satisfies ``u < p``, so realizations
at different ``p`` on the same draws are coupled and cluster growth is
monotone in ``p`` per realization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameterError
from .graphs import Graph, _check_vertex

__all__ = [
    "EdgeConfig",
    "ClusterResult",
    "cluster_of",
]


@dataclass(frozen=True)
class EdgeConfig:
    """One percolation realization: open flag per edge index."""

    open_flags: tuple[bool, ...]
    p: float


@dataclass(frozen=True)
class ClusterResult:
    """Open cluster of a start vertex."""

    start_vertex: int
    members: frozenset[int]
    size: int


def _check_config(graph: Graph, config: EdgeConfig) -> None:
    if len(config.open_flags) != graph.n_edges:
        raise BadParameterError(
            f"config has {len(config.open_flags)} flags for a graph with "
            f"{graph.n_edges} edges"
        )


def cluster_of(graph: Graph, config: EdgeConfig, x: int) -> ClusterResult:
    """Open cluster of ``x`` via union-find over the open edges."""
    x = _check_vertex(graph, x)
    _check_config(graph, config)

    parent = list(range(graph.n_vertices))

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:  # path compression
            parent[v], v = root, parent[v]
        return root

    for is_open, (u, v) in zip(config.open_flags, graph.edges):
        if is_open:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru

    rx = find(x)
    members = frozenset(v for v in range(graph.n_vertices) if find(v) == rx)
    return ClusterResult(start_vertex=x, members=members, size=len(members))
