import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import edge_uniforms
from percmoments import BadParameterError, BadProbabilityError, PercmomentsError, rng
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


def test_start_uniforms_fill_their_buffers_without_a_copy():
    # converting the words in place once made numpy copy all of them: a
    # 577 KiB peak for these 65 536 streams
    seed, first, n = 5, 1000, 65_536
    keys = rng._stream_keys(seed, first, n)
    out, scratch = np.empty(n), np.empty(n, dtype=np.uint64)
    tracemalloc.start()
    try:
        u = rng._start_uniforms(keys, out, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u is out and peak < 2**17
    expected = uniform_matrix(seed, first, n, 1)[:, 0]
    np.testing.assert_array_equal(u.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(rng._start_uniforms(keys).view(np.uint64),
                                  expected.view(np.uint64))


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
    """Start uniforms and the flags ``u < p`` of the edge uniforms, packed as edge_draws packs them.

    See ``conftest.edge_uniforms``.
    """
    flags = edge_uniforms(seed, first, n_streams, n_edges) < p
    starts = uniform_matrix(seed, first, n_streams, 1)[:, 0]
    return starts, np.packbits(flags.T, axis=1, bitorder="little")


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
    # the packed reference has its padding bits 0, so they are checked too
    saved = rng._CHUNK_BYTES
    rng._CHUNK_BYTES = chunk_bytes
    try:
        starts, open_edges = edge_draws(seed, first, n_streams, n_edges, p)
    finally:
        rng._CHUNK_BYTES = saved
    ref_starts, ref_open = _reference(seed, first, n_streams, n_edges, p)
    assert open_edges.shape == (n_edges, -(-n_streams // 8)) and open_edges.dtype == np.uint8
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
    # bit b of byte k in row e is the flag of stream 8k + b on edge order[e];
    # the bits past the last stream are 0
    order = np.arange(n_edges)[::-1] if reverse else None
    saved = rng._CHUNK_BYTES
    rng._CHUNK_BYTES = chunk_bytes
    try:
        starts, packed = edge_draws(seed, first, n_streams, n_edges, p, order)
    finally:
        rng._CHUNK_BYTES = saved
    flags = (edge_uniforms(seed, first, n_streams, n_edges) < p).T
    if reverse:
        flags = flags[::-1]
    assert packed.shape == (n_edges, -(-n_streams // 8)) and packed.dtype == np.uint8
    np.testing.assert_array_equal(starts, uniform_matrix(seed, first, n_streams, 1)[:, 0])
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    np.testing.assert_array_equal(bits[:, :n_streams].astype(bool), flags)
    assert not bits[:, n_streams:].any()


def test_edge_draws_threshold_at_drawn_values():
    # p equal to an edge's uniform closes that edge; the next double opens it
    u = edge_uniforms(5, 0, 3, 8)
    for i, e in ((0, 0), (1, 3), (2, 7)):
        at = u[i, e]
        for p, is_open in ((np.nextafter(at, 0.0), False), (at, False), (np.nextafter(at, 1.0), True)):
            _, open_edges = edge_draws(5, 0, 3, 8, float(p))
            assert bool(open_edges[e, 0] >> i & 1) == is_open
            np.testing.assert_array_equal(open_edges, _reference(5, 0, 3, 8, float(p))[1])


def test_edge_draws_span_several_default_chunks():
    # a full 8192-stream block holds 8 edge rows per chunk at the default size
    n_streams, n_edges, p = 8192, 50, 0.45
    assert n_edges * n_streams * 8 > 3 * rng._CHUNK_BYTES
    starts, open_edges = edge_draws(17, 8192, n_streams, n_edges, p)
    ref_starts, ref_open = _reference(17, 8192, n_streams, n_edges, p)
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(open_edges, ref_open)


@pytest.mark.parametrize(
    "n_streams, n_edges, reverse",
    [(8192, 50, True), (3 * 8192 * 8 + 5, 3, False), (3 * 8192 * 8 + 5, 3, True)],
)
def test_edge_draws_wide_and_packed_match_reference(n_streams, n_edges, reverse):
    # a row of 196 613 streams is wider than a default chunk, so chunks are
    # slices of whole bytes of one row's streams
    p = 0.45
    assert n_edges * n_streams * 8 > 3 * rng._CHUNK_BYTES
    order = np.arange(n_edges)[::-1] if reverse else None
    starts, open_edges = edge_draws(17, 8192, n_streams, n_edges, p, order)
    ref_starts, ref_open = _reference(17, 8192, n_streams, n_edges, p)
    if reverse:
        ref_open = ref_open[::-1]
    np.testing.assert_array_equal(starts, ref_starts)
    np.testing.assert_array_equal(open_edges, ref_open)


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
    assert open_edges.shape == (n_edges, n_streams // 8) and open_edges.dtype == np.uint8
    order = np.arange(n_edges)[::-1]
    _, ordered = edge_draws(23, 4096, n_streams, n_edges, p, order=order)
    np.testing.assert_array_equal(ordered, ref_open[order])



@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 2**40),
    n_streams=st.integers(1, 40),
    n_edges=st.integers(1, 40),
    p=st.one_of(st.sampled_from([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0]), st.floats(0.0, 1.0),
                _dyadic_p),
    picks=st.data(),
)
def test_column_subsets_and_pairs_match_edge_draws(seed, first, n_streams, n_edges, p, picks):
    # a subset of the streams, drawn from their keys alone, and single
    # (stream, edge) words give the very bits of the whole block
    _, whole = edge_draws(seed, first, n_streams, n_edges, p)
    bits = np.unpackbits(whole, axis=1, count=n_streams, bitorder="little")
    keys = rng._stream_keys(seed, first, n_streams)
    columns = np.flatnonzero(picks.draw(st.lists(st.booleans(), min_size=n_streams,
                                                 max_size=n_streams)))
    order = picks.draw(st.permutations(range(n_edges)))
    subset = rng._edge_flags(keys[columns], n_edges, p, np.argsort(order))  # a row map
    # packbits leaves the padding bits 0, as _edge_flags must
    expected = np.packbits(bits[order][:, columns], axis=1, bitorder="little")
    assert subset.shape == (n_edges, -(-columns.size // 8))
    np.testing.assert_array_equal(subset, expected)
    if 0.0 < p < 1.0:
        stream = np.asarray(picks.draw(st.lists(st.integers(0, n_streams - 1), max_size=50)),
                            dtype=np.intp)
        edge = np.asarray(picks.draw(st.lists(st.integers(0, n_edges - 1),
                                              min_size=stream.size, max_size=stream.size)),
                          dtype=np.intp)
        pairs = rng._pair_flags(keys[stream], edge, p)
        np.testing.assert_array_equal(pairs, bits[edge, stream].astype(bool))
        # broadcast as the sparse phase asks: a column of keys against rows of edges
        grid = rng._pair_flags(keys[:, None], np.arange(n_edges)[None, :], p)
        np.testing.assert_array_equal(grid, bits.T.astype(bool))


def _scalar_flag(key, edge, p):
    """The draw rule in pure Python: lane ``edge % 4`` of flag word ``edge // 4``.

    A lane equal to the threshold's top 16 bits is decided by the edge's tail word.
    """
    if p in (0.0, 1.0):
        return p == 1.0
    t = math.ceil(p * 2**53)
    word = rng._mix64_scalar(key + rng._GOLDEN * (edge // 4 + 2))
    lane = word >> 16 * (edge % 4) & 0xFFFF
    if lane != t >> 37:
        return lane < t >> 37
    tail = rng._mix64_scalar(key + rng._GOLDEN * (2**64 - 1 - edge))
    return tail >> 27 < t % 2**37


@pytest.mark.parametrize("n_streams", [1, 7, 8, 13, 21])
@pytest.mark.parametrize("n_edges", [1, 3, 4, 6, 13])
def test_edge_draws_match_the_scalar_rule(n_streams, n_edges):
    # |E| not a multiple of 4 leaves lanes of the last word unused, replicate
    # counts not a multiple of 8 leave padding bits, which must be 0
    seed, first = 2024, 77
    keys = [derive_key(seed, first + i) for i in range(n_streams)]
    for p in (0.0, 2.0**-53, 0.3, 0.5, 0.8125, 1.0 - 2.0**-53, 1.0):
        _, packed = edge_draws(seed, first, n_streams, n_edges, p)
        bits = np.unpackbits(packed, axis=1, bitorder="little")
        expected = [[_scalar_flag(k, e, p) for k in keys] for e in range(n_edges)]
        assert bits[:, :n_streams].astype(bool).tolist() == expected
        assert not bits[:, n_streams:].any()


def _lane_of(key, edge):
    word = rng._mix64_scalar(key + rng._GOLDEN * (edge // 4 + 2))
    return word >> 16 * (edge % 4) & 0xFFFF


@pytest.mark.parametrize("edge", [0, 5, 10, 15, 18])
def test_tied_lanes_are_decided_by_their_tail_words(edge):
    # p whose threshold's top 16 bits equal an observed lane, and whose low
    # 37 bits sit at or just above the edge's tail: the tie then closes the
    # edge (T equals its uniform) or opens it (T one above)
    seed, first, n_streams, n_edges, stream = 31, 5, 21, 19, 11
    key = derive_key(seed, first + stream)
    lane = _lane_of(key, edge)
    tail = rng._mix64_scalar(key + rng._GOLDEN * (2**64 - 1 - edge)) >> 27
    order = np.random.default_rng(edge).permutation(n_edges)
    row = int(np.flatnonzero(order == edge)[0])
    for t, is_open in ((lane << 37 | tail, False), ((lane << 37 | tail) + 1, True)):
        p = t * 2.0**-53
        assert math.ceil(p * 2**53) == t and t >> 37 == lane  # the lane ties
        _, packed = edge_draws(seed, first, n_streams, n_edges, p)
        assert bool(packed[edge, stream // 8] >> stream % 8 & 1) == is_open
        np.testing.assert_array_equal(packed, _reference(seed, first, n_streams, n_edges, p)[1])
        _, ordered = edge_draws(seed, first, n_streams, n_edges, p, order)
        np.testing.assert_array_equal(ordered, packed[order])
        assert bool(ordered[row, stream // 8] >> stream % 8 & 1) == is_open
        keys = rng._stream_keys(seed, first, n_streams)
        assert rng._pair_flags(keys[stream : stream + 1], np.array([edge]), p).tolist() == [is_open]


def test_pair_flags_match_every_lane_of_the_dense_draw():
    # every lane position 0-3, a last word with unused lanes, and rows in a
    # permuted order: a pair's flag is the bit of its edge's row
    seed, first, n_streams, n_edges = 8, 300, 29, 23
    keys = rng._stream_keys(seed, first, n_streams)
    order = np.random.default_rng(3).permutation(n_edges)
    for p in (0.05, 0.45, 0.9):
        packed = rng._edge_flags(keys, n_edges, p, np.argsort(order))
        bits = np.unpackbits(packed, axis=1, count=n_streams, bitorder="little").astype(bool)
        pairs = rng._pair_flags(keys[:, None], order[None, :].astype(np.int64), p)
        np.testing.assert_array_equal(pairs, bits.T)
        for lane in range(4):
            edges = np.arange(lane, n_edges, 4)
            rows = np.argsort(order)[edges]
            np.testing.assert_array_equal(rng._pair_flags(keys[:, None], edges[None, :], p),
                                          bits[rows].T)


@pytest.mark.parametrize("p", [0.1, 0.45, 0.8])
def test_open_fraction_and_lane_correlation_within_five_sigma(p):
    # the fraction of open flags, and the joint fraction of each pair of
    # lanes of one word, against p and p^2 within 5 standard errors
    n_streams, n_edges = 8192, 64
    _, packed = edge_draws(99, 0, n_streams, n_edges, p)
    flags = np.unpackbits(packed, axis=1, bitorder="little").astype(bool)
    assert abs(flags.mean() - p) < 5 * math.sqrt(p * (1 - p) / flags.size)
    words = flags.reshape(n_edges // 4, 4, n_streams)
    q = p * p
    for a in range(4):
        for b in range(a + 1, 4):
            joint = (words[:, a] & words[:, b]).mean()
            assert abs(joint - q) < 5 * math.sqrt(q * (1 - q) / words[:, a].size), (a, b)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"n_streams": -3}, BadParameterError),
        ({"first_stream": -5}, BadParameterError),
        ({"first_stream": 2**64 - 2, "n_streams": 2}, BadParameterError),
        ({"p": 1.5}, BadProbabilityError),
        ({"p": float("nan")}, BadProbabilityError),
        ({"seed": 1.5}, BadParameterError),
        ({"n_edges": -1}, BadParameterError),
        ({"order": [0, 0, 1]}, BadParameterError),
        ({"order": [0, 1]}, BadParameterError),
        ({"order": [0.0, 1.0, 2.0]}, BadParameterError),
    ],
    ids=["negative n_streams", "negative first_stream", "stream past 2^64 - 2", "p above 1",
         "p nan", "float seed", "negative n_edges", "repeated order", "short order",
         "float order"],
)
def test_edge_draws_refuses_bad_arguments_before_any_draw(monkeypatch, kwargs, error):
    def no_draw(*args, **kw):
        raise AssertionError("drew before the arguments were refused")

    monkeypatch.setattr(rng, "_stream_keys", no_draw)
    args = {"seed": 1, "first_stream": 0, "n_streams": 5, "n_edges": 3, "p": 0.5, **kwargs}
    with pytest.raises(error) as info:
        edge_draws(**args)
    assert isinstance(info.value, PercmomentsError)


def test_edge_draws_takes_the_last_stream():
    _, packed = edge_draws(4, 2**64 - 3, 2, 5, 0.5)
    np.testing.assert_array_equal(packed, _reference(4, 2**64 - 3, 2, 5, 0.5)[1])
