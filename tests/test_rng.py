import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from percmoments import rng
from percmoments.rng import derive_key, edge_draws, stream_uniforms, uniform_matrix


def test_stream_is_deterministic():
    key = derive_key(42, 7)
    a = stream_uniforms(key, 0, 100)
    b = stream_uniforms(key, 0, 100)
    np.testing.assert_array_equal(a, b)


def test_stream_supports_random_access():
    # counter-based: draws [5, 12) equal the tail of draws [0, 12)
    key = derive_key(1, 0)
    whole = stream_uniforms(key, 0, 12)
    part = stream_uniforms(key, 5, 7)
    np.testing.assert_array_equal(whole[5:], part)


def test_uniform_matrix_rows_match_scalar_streams():
    seed, first, n_streams, n_draws = 9, 3, 5, 17
    mat = uniform_matrix(seed, first, n_streams, n_draws)
    assert mat.shape == (n_streams, n_draws)
    for i in range(n_streams):
        row = stream_uniforms(derive_key(seed, first + i), 0, n_draws)
        np.testing.assert_array_equal(mat[i], row)


def test_values_live_in_unit_interval():
    u = uniform_matrix(0, 0, 64, 64)
    assert float(u.min()) >= 0.0
    assert float(u.max()) < 1.0


def test_distinct_streams_and_seeds_differ():
    a = stream_uniforms(derive_key(0, 0), 0, 32)
    b = stream_uniforms(derive_key(0, 1), 0, 32)
    c = stream_uniforms(derive_key(1, 0), 0, 32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_key_mixes_small_inputs():
    keys = {derive_key(s, i) for s in range(4) for i in range(4)}
    assert len(keys) == 16
    for k in keys:
        assert 0 <= k < 1 << 64


@pytest.mark.parametrize("seed", [0, 1, 123456789])
def test_marginals_look_uniform(seed):
    u = uniform_matrix(seed, 0, 200, 500).ravel()
    n = u.size
    se_mean = 1.0 / np.sqrt(12 * n)
    assert abs(u.mean() - 0.5) < 5 * se_mean
    # second moment of U(0,1) is 1/3
    assert abs((u * u).mean() - 1 / 3) < 6 * se_mean


# p values at and next to the 2^-53 lattice the integer threshold lives on
_dyadic_p = st.builds(
    lambda k, step: float(np.clip(np.nextafter(k * 2.0**-53, step), 0.0, 1.0)),
    st.integers(0, 2**53),
    st.sampled_from([-np.inf, 0.5, np.inf]),
)


def _reference(seed, first, n_streams, n_edges, p):
    u = uniform_matrix(seed, first, n_streams, n_edges + 1)
    return u[:, 0], (u[:, 1:] < p).T


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**40),
    n_streams=st.integers(1, 40),
    n_edges=st.integers(1, 40),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), _dyadic_p),
    chunk_bytes=st.sampled_from([8, 64, 1000, rng._CHUNK_BYTES]),
)
def test_edge_draws_match_uniform_threshold(seed, first, n_streams, n_edges, p, chunk_bytes):
    saved = rng._CHUNK_BYTES
    rng._CHUNK_BYTES = chunk_bytes
    try:
        starts, open_edges = edge_draws(seed, first, n_streams, n_edges, p)
    finally:
        rng._CHUNK_BYTES = saved
    ref_starts, ref_open = _reference(seed, first, n_streams, n_edges, p)
    assert open_edges.shape == (n_edges, n_streams) and open_edges.dtype == bool
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(open_edges, ref_open)


def test_edge_draws_threshold_at_drawn_values():
    # p equal to a drawn uniform closes that edge; the next double opens it
    u = uniform_matrix(5, 0, 3, 9)
    for i, j in ((0, 1), (1, 4), (2, 8)):
        at = u[i, j]
        for p, is_open in ((np.nextafter(at, 0.0), False), (at, False), (np.nextafter(at, 1.0), True)):
            _, open_edges = edge_draws(5, 0, 3, 8, float(p))
            assert open_edges[j - 1, i] == is_open
            np.testing.assert_array_equal(open_edges, (u[:, 1:] < p).T)


def test_edge_draws_span_several_default_chunks():
    # a full 8192-stream block holds 8 edge rows per chunk at the default size
    n_streams, n_edges, p = 8192, 50, 0.45
    assert n_edges * n_streams * 8 > 3 * rng._CHUNK_BYTES
    starts, open_edges = edge_draws(17, 8192, n_streams, n_edges, p)
    ref_starts, ref_open = _reference(17, 8192, n_streams, n_edges, p)
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(open_edges, ref_open)


@pytest.mark.parametrize(
    "n_streams, n_edges, packed",
    [(8192, 50, True), (3 * 8192 * 8 + 5, 3, False), (3 * 8192 * 8 + 5, 3, True)],
)
def test_edge_draws_wide_and_packed_match_reference(n_streams, n_edges, packed):
    # a row of 196 613 streams is wider than a default chunk, so chunks are
    # slices of one row's streams (whole bytes of them when packed)
    p = 0.45
    assert n_edges * n_streams * 8 > 3 * rng._CHUNK_BYTES
    starts, open_edges = edge_draws(17, 8192, n_streams, n_edges, p, packed=packed)
    ref_starts, ref_open = _reference(17, 8192, n_streams, n_edges, p)
    if packed:
        ref_open = np.packbits(ref_open, axis=1, bitorder="little")
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(open_edges, ref_open)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**40),
    n_streams=st.integers(1, 40),
    n_edges=st.integers(1, 40),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    chunk_bytes=st.sampled_from([8, 64, 1000, rng._CHUNK_BYTES]),
    reverse=st.booleans(),
)
def test_packed_edge_draws_are_packed_flags(
    seed, first, n_streams, n_edges, p, chunk_bytes, reverse
):
    order = np.arange(n_edges)[::-1] if reverse else None
    saved = rng._CHUNK_BYTES
    rng._CHUNK_BYTES = chunk_bytes
    try:
        starts, packed = edge_draws(seed, first, n_streams, n_edges, p, order, packed=True)
    finally:
        rng._CHUNK_BYTES = saved
    ref_starts, ref_open = edge_draws(seed, first, n_streams, n_edges, p, order)
    assert packed.shape == (n_edges, -(-n_streams // 8)) and packed.dtype == np.uint8
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(packed, np.packbits(ref_open, axis=1, bitorder="little"))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**40),
    n_streams=st.integers(1, 40),
    n_edges=st.integers(1, 60),
    p=st.floats(0.0, 1.0),
    chunk_bytes=st.sampled_from([8, 64, 1000, rng._CHUNK_BYTES]),
    perm_seed=st.integers(0, 2**32),
)
def test_edge_draws_row_order(seed, first, n_streams, n_edges, p, chunk_bytes, perm_seed):
    order = np.random.default_rng(perm_seed).permutation(n_edges)
    saved = rng._CHUNK_BYTES
    rng._CHUNK_BYTES = chunk_bytes
    try:
        starts, ordered = edge_draws(seed, first, n_streams, n_edges, p, order=order)
    finally:
        rng._CHUNK_BYTES = saved
    ref_starts, ref_open = edge_draws(seed, first, n_streams, n_edges, p)
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(ordered, ref_open[order])


@pytest.mark.parametrize(
    "p",
    [2.0**-53, 1.0 - 2.0**-53, 5e-324, 0.0, 1.0],
    ids=["2^-53", "1-2^-53", "smallest subnormal", "0", "1"],
)
def test_edge_draws_at_extreme_thresholds(p):
    # 1 - 2^-53 puts the word limit at its largest, 2^64 - 2^11
    n_streams, n_edges = 8192, 30
    starts, open_edges = edge_draws(23, 4096, n_streams, n_edges, p)
    ref_starts, ref_open = _reference(23, 4096, n_streams, n_edges, p)
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(open_edges, ref_open)
    assert open_edges.shape == (n_edges, n_streams) and open_edges.dtype == bool
    order = np.arange(n_edges)[::-1]
    _, ordered = edge_draws(23, 4096, n_streams, n_edges, p, order=order)
    np.testing.assert_array_equal(ordered, ref_open[order])

