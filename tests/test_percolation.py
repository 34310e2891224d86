import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import edge_uniforms, generator_config, open_distances
from percmoments import (
    BadIndexError,
    BadParameterError,
    BadProbabilityError,
    EdgeConfig,
    cluster_of,
    generate_builtin,
    replicate_realization,
)


def test_endpoint_configs(tetrahedron):
    rng = np.random.default_rng(0)
    closed = generator_config(tetrahedron, 0.0, rng)
    assert not any(closed.open_flags)
    opened = generator_config(tetrahedron, 1.0, rng)
    assert all(opened.open_flags)


def test_threshold_is_strict(k3):
    # an edge opens iff its uniform is strictly below p: at p equal to the
    # uniform of edge e it is closed, one ulp above it is open
    seed, index = 4, 9
    u = edge_uniforms(seed, index, 1, k3.n_edges)[0]
    for e, ue in enumerate(u):
        _, at = replicate_realization(k3, float(ue), seed, index)
        _, above = replicate_realization(k3, float(np.nextafter(ue, 1.0)), seed, index)
        assert not at.open_flags[e] and above.open_flags[e]


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), "0.3x", None])
def test_bad_probability(k3, p):
    with pytest.raises(BadProbabilityError):
        replicate_realization(k3, p, 0, 0)


def test_cluster_extremes(cube):
    rng = np.random.default_rng(1)
    closed = generator_config(cube, 0.0, rng)
    res = cluster_of(cube, closed, 3)
    assert res.size == 1 and res.members == frozenset({3})
    opened = generator_config(cube, 1.0, rng)
    res = cluster_of(cube, opened, 3)
    assert res.size == 8


def test_union_find_agrees_with_bfs():
    rng = np.random.default_rng(7)
    graphs = [generate_builtin(n) for n in ("tetrahedron", "cube", "octahedron", "dodecahedron")]
    for _ in range(100):
        g = graphs[rng.integers(len(graphs))]
        p = float(rng.uniform(0, 1))
        cfg = generator_config(g, p, rng)
        x = int(rng.integers(g.n_vertices))
        a = cluster_of(g, cfg, x)
        assert a.members == set(open_distances(g, cfg, x))
        assert a.size == len(a.members)
        assert x in a.members


@settings(max_examples=60)
@given(bits=st.integers(min_value=0, max_value=63), x=st.integers(min_value=0, max_value=3))
def test_union_find_agrees_with_bfs_exhaustive_k4(bits, x):
    g = generate_builtin("tetrahedron")
    flags = tuple(bool((bits >> i) & 1) for i in range(6))
    cfg = EdgeConfig(open_flags=flags, p=0.5)
    assert cluster_of(g, cfg, x).members == set(open_distances(g, cfg, x))


def test_cluster_rejects_bad_inputs(k3):
    cfg = generator_config(k3, 0.5, np.random.default_rng(0))
    with pytest.raises(BadIndexError):
        cluster_of(k3, cfg, 5)
    short = EdgeConfig(open_flags=(True,), p=0.5)
    with pytest.raises(BadParameterError):
        cluster_of(k3, short, 0)


@pytest.mark.parametrize("x", ["1", 1.5, None, True])
def test_cluster_rejects_non_integer_vertex(k3, x):
    cfg = generator_config(k3, 0.5, np.random.default_rng(0))
    with pytest.raises(BadIndexError):
        cluster_of(k3, cfg, x)
    assert cluster_of(k3, cfg, np.int64(1)) == cluster_of(k3, cfg, 1)
