from collections import deque

import pytest

from percmoments import EdgeConfig, generate_builtin


def generator_config(graph, p, rng):
    """A realization from a ``numpy`` Generator: one uniform per edge, open iff ``u < p``."""
    return EdgeConfig(tuple(bool(b) for b in rng.random(graph.n_edges) < p), p)


def open_distances(graph, config, x):
    """BFS distances in the open subgraph, the reference for layer membership."""
    adj = [[] for _ in range(graph.n_vertices)]
    for flag, (u, v) in zip(config.open_flags, graph.edges):
        if flag:
            adj[u].append(v)
            adj[v].append(u)
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.fixture(scope="session")
def k2():
    return generate_builtin("complete(2)")


@pytest.fixture(scope="session")
def k3():
    return generate_builtin("complete(3)")


@pytest.fixture(scope="session")
def tetrahedron():
    return generate_builtin("tetrahedron")


@pytest.fixture(scope="session")
def cube():
    return generate_builtin("cube")


@pytest.fixture(scope="session")
def octahedron():
    return generate_builtin("octahedron")


@pytest.fixture(scope="session")
def dodecahedron():
    return generate_builtin("dodecahedron")
