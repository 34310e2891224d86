"""Finite simple connected D-regular graphs.

Vertices are ``0..N-1``.  Edges are stored as ``(min, max)`` pairs sorted
lexicographically; the position of an edge in that order is its *edge index*,
which is how percolation configurations refer to edges.  Adjacency lists are
sorted ascending.  Both orderings are load-bearing: they fix the iteration
order of the birth process and of the enumeration oracle, so that seeded runs
are reproducible.

Canonical vertex labelings of the named graphs
----------------------------------------------
tetrahedron   K4.
cube          vertices are the 3-bit words 0..7, edges join words differing
              in exactly one bit (identical to ``hypercube(3)``).
octahedron    K6 minus the perfect matching {(0,1), (2,3), (4,5)}; each pair
              is a pair of opposite poles.
dodecahedron  outer 10-cycle on 0..9, spokes i -- 10+i, inner vertices
              10..19 joined as 10+i -- 10+((i+2) mod 10) (two inner
              pentagons).
icosahedron   apex 0 over upper pentagon 1..5, apex 11 under lower pentagon
              6..10, antiprism edges i -- 5+i and i -- 6+(i mod 5) for
              i = 1..5.
ring(N)       cycle 0 -- 1 -- ... -- N-1 -- 0.
complete(N)   K_N.
hypercube(d)  vertices are d-bit words, edges join words at Hamming
              distance 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadIndexError,
    BadParameterError,
    GraphConstructionError,
    InfeasibleError,
    NotConnectedError,
    NotRegularError,
    NotSimpleError,
    RetryLimitError,
    _check_integer,
)
from .rng import derive_key, stream_uniforms

__all__ = [
    "Graph",
    "build_from_edge_list",
    "generate_builtin",
    "generate_random_regular",
    "load_edge_file",
    "format_edge_file",
    "BUILTIN_NAMES",
]

BUILTIN_NAMES = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
# Most edges a ring(N), complete(N), hypercube(d) or random regular graph
# may have; building one costs ~0.5 KB of Python objects per edge, so this
# is ~0.5 GB.
MAX_FAMILY_EDGES = 1 << 20
# Pairings generate_random_regular draws before it gives up.  A pairing is
# simple with probability about exp(-(D^2 - 1) / 4) (Bollobas 1980), so D = 6
# needs some 6300 attempts on average; about 50 us each at N = 60.
_MAX_ATTEMPTS = 100_000
# The stream index whose child key seeds the pairings: replicate streams stop
# at 2^64 - 2 (see rng.edge_draws), so no replicate of a seed draws from it.
_GRAPH_STREAM = (1 << 64) - 1


@dataclass(frozen=True)
class Graph:
    """Validated simple connected D-regular graph; immutable and shareable."""

    n_vertices: int
    degree: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    label: str = "custom"

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[_check_vertex(self, v)]

    def edge_array(self) -> np.ndarray:
        """Edges as an (|E|, 2) int array, in edge-index order."""
        return np.asarray(self.edges, dtype=np.int64)


def _vertex_id(x) -> int:
    """``x`` as an int; a non-integer vertex id is refused."""
    try:
        return _check_integer("vertex", x)
    except BadParameterError:
        raise BadIndexError(f"vertex must be an integer, got {x!r}") from None


def _check_vertex(graph: Graph, x) -> int:
    """``x`` as a vertex of ``graph``; a non-integer or one out of range is refused."""
    vertex = _vertex_id(x)
    if not 0 <= vertex < graph.n_vertices:
        raise BadIndexError(f"vertex {x} out of range [0, {graph.n_vertices})")
    return vertex


def _connected(n: int, adjacency: Sequence[Sequence[int]]) -> bool:
    seen = bytearray(n)
    stack = [0]
    seen[0] = 1
    count = 1
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == n


def build_from_edge_list(
    n_vertices: int, edges: Iterable[tuple[int, int]], label: str = "custom"
) -> Graph:
    """Validate and canonicalize an edge list into a :class:`Graph`.

    Raises ``NotSimpleError`` on loops/duplicates, ``NotRegularError`` if
    degrees differ, ``NotConnectedError`` if disconnected, ``BadIndexError``
    on non-integer or out-of-range vertices, ``GraphConstructionError`` on
    an edge that is not a pair of vertices, ``BadParameterError`` on a
    non-integer vertex count or an ``edges`` that is not iterable.  More
    vertices than edge ends are refused before anything of the vertex
    count's size is built.
    """
    n_vertices = _check_integer("n_vertices", n_vertices)
    if n_vertices < 2:
        raise BadParameterError(f"need at least 2 vertices, got {n_vertices}")
    try:
        edge_iter = iter(edges)
    except TypeError:
        raise BadParameterError(
            f"edges must be an iterable of vertex pairs, got {type(edges).__name__}"
        ) from None
    edge_list = list(edge_iter)
    if not edge_list:
        raise BadParameterError("edge list is empty")
    if n_vertices > 2 * len(edge_list):
        raise NotRegularError(
            f"{n_vertices} vertices but {len(edge_list)} edges: some vertex has no edge"
        )

    seen: set[tuple[int, int]] = set()
    canonical: list[tuple[int, int]] = []
    for edge in edge_list:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphConstructionError(f"edge {edge!r} is not a pair of vertices") from None
        u, v = _vertex_id(u), _vertex_id(v)
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise BadIndexError(f"edge ({u}, {v}) out of range [0, {n_vertices})")
        if u == v:
            raise NotSimpleError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise NotSimpleError(f"duplicate edge {e}")
        seen.add(e)
        canonical.append(e)
    canonical.sort()

    adjacency: list[list[int]] = [[] for _ in range(n_vertices)]
    for u, v in canonical:
        adjacency[u].append(v)
        adjacency[v].append(u)
    degrees = {len(a) for a in adjacency}
    if len(degrees) != 1:
        raise NotRegularError(f"vertex degrees vary: {sorted(degrees)}")
    degree = degrees.pop()
    if not _connected(n_vertices, adjacency):
        raise NotConnectedError("graph is not connected")

    return Graph(
        n_vertices=n_vertices,
        degree=degree,
        edges=tuple(canonical),
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
        label=label,
    )


# ---------------------------------------------------------------------------
# named graphs
# ---------------------------------------------------------------------------


def _ring_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u ^ (1 << b)) for u in range(1 << d) for b in range(d) if u < u ^ (1 << b)]


def _octahedron_edges() -> list[tuple[int, int]]:
    poles = {(0, 1), (2, 3), (4, 5)}
    return [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in poles]


def _dodecahedron_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 10) for i in range(10)]
    spokes = [(i, 10 + i) for i in range(10)]
    inner = [(10 + i, 10 + ((i + 2) % 10)) for i in range(10)]
    return outer + spokes + inner


def _icosahedron_edges() -> list[tuple[int, int]]:
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]          # upper pentagon
    edges += [(11, i) for i in range(6, 11)]
    edges += [(i, (i - 5) % 5 + 6) for i in range(6, 11)]   # lower pentagon
    for i in range(1, 6):                                   # antiprism band
        edges.append((i, 5 + i))
        edges.append((i, 6 + i % 5))
    return edges


_NAME_RE = re.compile(r"^([a-z]+)(?:\((\d+)\))?$")


def generate_builtin(name: str) -> Graph:
    """Build a named graph: one of the five Platonic solids, or the
    parameterized families ``ring(N)``, ``complete(N)``, ``hypercube(d)``.

    A family member with more than ``MAX_FAMILY_EDGES`` edges is refused
    before any edge is built."""
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise BadParameterError(f"cannot parse graph name {name!r}")
    base, arg = m.group(1), m.group(2)

    fixed = {
        "tetrahedron": (4, _complete_edges(4)),
        "cube": (8, _hypercube_edges(3)),
        "octahedron": (6, _octahedron_edges()),
        "dodecahedron": (20, _dodecahedron_edges()),
        "icosahedron": (12, _icosahedron_edges()),
    }
    if base in fixed:
        if arg is not None:
            raise BadParameterError(f"{base} takes no parameter")
        n, edges = fixed[base]
        return build_from_edge_list(n, edges, label=base)

    if base in ("ring", "complete", "hypercube"):
        if arg is None:
            raise BadParameterError(f"{base} needs a parameter, e.g. {base}(8)")
        # every family has at least k edges; int() of a long digit run is slow or refused
        if len(arg.lstrip("0")) > len(str(MAX_FAMILY_EDGES)):
            raise BadParameterError(
                f"{base} parameter of {len(arg)} digits is past the cap of "
                f"{MAX_FAMILY_EDGES} edges for builtin families"
            )
        k = int(arg)
        if base == "ring":
            if k < 3:
                raise BadParameterError("ring needs N >= 3")
            n, n_edges, edges_of = k, k, _ring_edges
        elif base == "complete":
            if k < 2:
                raise BadParameterError("complete needs N >= 2")
            n, n_edges, edges_of = k, k * (k - 1) // 2, _complete_edges
        else:
            if k < 1:
                raise BadParameterError("hypercube needs d >= 1")
            n, n_edges, edges_of = 1 << k, k << (k - 1), _hypercube_edges
        if n_edges > MAX_FAMILY_EDGES:
            raise BadParameterError(
                f"{base}({k}) has more than {MAX_FAMILY_EDGES} edges, the cap for "
                "builtin families"
            )
        return build_from_edge_list(n, edges_of(k), label=f"{base}({k})")

    raise BadParameterError(f"unknown graph name {name!r}")


def generate_random_regular(n_vertices: int, degree: int, seed: int) -> Graph:
    """Random simple connected regular graph via the pairing model.

    Stub ``i`` is an end of vertex ``i // degree``.  Attempt ``a`` orders
    the N*D stubs by a stable argsort of the first N*D uniforms of the
    counter stream with key ``derive_key(derive_key(seed, 2^64 - 1), a)``
    and pairs them in that order; an attempt producing a loop, a duplicate
    edge, or a disconnected graph is discarded, and after
    ``_MAX_ATTEMPTS`` a ``RetryLimitError`` is raised.  Replicates of
    ``seed`` draw from streams 0 .. 2^64 - 2, so the graph's keys, children
    of stream 2^64 - 1, are apart from theirs: a graph and its replicates
    may share a seed.  The graph is a pure function of the arguments.
    Arguments that are not integers, a negative seed and more than
    ``MAX_FAMILY_EDGES`` edges (N*D/2) are refused before any draw.
    """
    n_vertices = _check_integer("n_vertices", n_vertices)
    degree = _check_integer("degree", degree)
    seed = _check_integer("seed", seed)
    if seed < 0:
        raise BadParameterError(f"seed must be >= 0, got {seed}")
    if n_vertices * degree % 2 != 0:
        raise InfeasibleError(f"N*D must be even, got N={n_vertices}, D={degree}")
    if not 1 <= degree < n_vertices:
        raise InfeasibleError(f"need 1 <= D < N, got N={n_vertices}, D={degree}")
    if degree == 1 and n_vertices != 2:
        raise InfeasibleError("a connected 1-regular graph must have exactly 2 vertices")
    n_stubs = n_vertices * degree
    if n_stubs // 2 > MAX_FAMILY_EDGES:
        raise BadParameterError(
            f"random({n_vertices},{degree}) has more than {MAX_FAMILY_EDGES} edges, "
            "the cap for generated graphs"
        )

    graph_key = derive_key(seed, _GRAPH_STREAM)
    for attempt in range(_MAX_ATTEMPTS):
        order = np.argsort(stream_uniforms(derive_key(graph_key, attempt), 0, n_stubs),
                           kind="stable")
        ends = (order // degree).reshape(-1, 2)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        if (lo == hi).any():
            continue
        pair_ids = np.sort(lo * n_vertices + hi)
        if (pair_ids[1:] == pair_ids[:-1]).any():
            continue
        try:
            return build_from_edge_list(
                n_vertices,
                zip(lo.tolist(), hi.tolist()),
                label=f"random({n_vertices},{degree},{seed})",
            )
        except NotConnectedError:
            continue
    raise RetryLimitError(
        f"no simple connected {degree}-regular graph on {n_vertices} vertices "
        f"found in {_MAX_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# edge-list text files: first line "N D", one "u v" per line, '#' comments
# ---------------------------------------------------------------------------


def _int_pair(path: Path, line: str, what: str) -> tuple[int, int]:
    parts = line.split()
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise BadParameterError(f"{path}: {what} must be two integers, got {line!r}")


def load_edge_file(path: str | Path) -> Graph:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise BadParameterError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise BadParameterError(f"{path}: no content")
    n, declared_degree = _int_pair(path, lines[0], "first line 'N D'")
    edges = [_int_pair(path, ln, "edge line 'u v'") for ln in lines[1:]]
    graph = build_from_edge_list(n, edges, label=path.stem)
    if graph.degree != declared_degree:
        raise BadParameterError(
            f"{path}: header declares D={declared_degree} but edges are {graph.degree}-regular"
        )
    return graph


def format_edge_file(graph: Graph) -> str:
    lines = [f"{graph.n_vertices} {graph.degree}"]
    lines += [f"{u} {v}" for u, v in graph.edges]
    return "\n".join(lines) + "\n"
