import math
from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from percmoments import EdgeConfig, generate_builtin, rng


def generator_config(graph, p, rng):
    """A realization from a ``numpy`` Generator: one uniform per edge, open iff ``u < p``."""
    return EdgeConfig(tuple(bool(b) for b in rng.random(graph.n_edges) < p), p)


def edge_uniforms(seed, first, n_streams, n_edges):
    """The 53-bit uniform of each (stream, edge), as the ``rng`` docstring defines it.

    Edge ``e``: lane ``e % 4`` (bits ``16 l .. 16 l + 15``) of the word at
    counter ``e // 4 + 2``, above the top 37 bits of its tail word at
    counter ``2^64 - 1 - e``, times ``2^-53``.  Every word is mixed whole,
    tails too, with none of the lane, packing or tie code of ``rng``; edge
    ``e`` is open iff its uniform is below ``p``.  (streams x edges).
    """
    keys = rng._stream_keys(seed, first, n_streams)[:, None]
    e = np.arange(n_edges, dtype=np.uint64)
    golden = np.uint64(rng._GOLDEN)
    words = rng._mix64_array(keys + golden * (e // np.uint64(4) + np.uint64(2)))
    lanes = (words >> (np.uint64(16) * (e % np.uint64(4)))) & np.uint64(0xFFFF)
    tails = rng._mix64_array(keys + golden * (np.uint64(2**64 - 1) - e))
    top = (lanes << np.uint64(37)) | (tails >> np.uint64(27))
    return top.astype(np.float64) * 2.0**-53


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


def assert_exact_estimate(estimate, sizes):
    """``estimate``'s moments are those of the integer ``sizes``, from exact rationals.

    Each mean is its exact rational mean correctly rounded, and each standard
    error lies within 1 ulp of the square root of its exact rational
    variance over n, taken to 50 digits.
    """
    n, values = len(sizes), [int(v) for v in sizes]
    for mean, se, xs in ((estimate.mean_s, estimate.se_s, values),
                         (estimate.mean_s2, estimate.se_s2, [v * v for v in values])):
        total, squares = sum(xs), sum(x * x for x in xs)
        assert mean == float(Fraction(total, n))
        var = Fraction(n * squares - total * total, n * n * (n - 1))
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
        assert abs(Fraction(se) - Fraction(exact)) <= Fraction(math.ulp(se))


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
