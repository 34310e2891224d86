import functools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import edge_uniforms
from percmoments import (
    BadParameterError,
    EdgeConfig,
    TooManyEdgesError,
    cluster_of,
    estimate_moments,
    exact_moments,
    generate_builtin,
    generate_random_regular,
    replicate_realization,
    sweep,
)
from percmoments import montecarlo, rng
from percmoments.coupling import run_birth_process
from percmoments.montecarlo import _BLOCK, _block_cluster_sizes
from percmoments.rng import derive_key, edge_draws, stream_uniforms


@functools.lru_cache(maxsize=None)
def _random_graph(n, d, graph_seed):
    return generate_random_regular(n, d, graph_seed)


def _graph(name):
    """A builtin graph, or ``random(n,d,seed)`` as a random regular graph."""
    if name.startswith("random("):
        return _random_graph(*map(int, name[len("random("):-1].split(",")))
    return generate_builtin(name)


def test_endpoints_are_exact(tetrahedron):
    at0 = estimate_moments(tetrahedron, 0.0, 5000, seed=0)
    assert at0.mean_s == 1.0 and at0.se_s == 0.0
    assert at0.mean_s2 == 1.0 and at0.se_s2 == 0.0
    at1 = estimate_moments(tetrahedron, 1.0, 5000, seed=0)
    assert at1.mean_s == 4.0 and at1.mean_s2 == 16.0
    assert at1.se_s == 0.0


def test_same_seed_reproduces_and_seeds_matter(cube):
    a = estimate_moments(cube, 0.4, 20000, seed=7)
    b = estimate_moments(cube, 0.4, 20000, seed=7)
    c = estimate_moments(cube, 0.4, 20000, seed=8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workers", [4, 16])
def test_worker_count_never_changes_results(octahedron, workers):
    # spans multiple blocks so merging order actually matters
    reps = 2 * _BLOCK + 100
    serial = estimate_moments(octahedron, 0.35, reps, seed=3, workers=1)
    parallel = estimate_moments(octahedron, 0.35, reps, seed=3, workers=workers)
    assert serial == parallel


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_count_never_changes_compacted_results(workers):
    # 300 edges, the size that once ran a compacting bool fixpoint: slow
    # replicates near criticality in every block, relaxed in packed spans
    g = _random_graph(200, 3, 1)
    reps = 2 * _BLOCK + 100
    serial = estimate_moments(g, 0.5, reps, seed=5, workers=1)
    assert estimate_moments(g, 0.5, reps, seed=5, workers=workers) == serial


def test_replicates_can_be_reconstructed(tetrahedron):
    p, seed = 0.37, 9
    block = _block_cluster_sizes(tetrahedron, p, seed, 0, 50)
    later = _block_cluster_sizes(tetrahedron, p, seed, _BLOCK, _BLOCK + 10)
    for i in (0, 17, 49):
        x, cfg = replicate_realization(tetrahedron, p, seed, i)
        assert cluster_of(tetrahedron, cfg, x).size == block[i]
    for j in range(10):
        x, cfg = replicate_realization(tetrahedron, p, seed, _BLOCK + j)
        assert cluster_of(tetrahedron, cfg, x).size == later[j]


def test_estimates_match_oracle(k3):
    est = estimate_moments(k3, 0.5, 200_000, seed=0)
    exact = exact_moments(k3, 0.5)
    assert abs(est.mean_s - exact.first) < 4 * est.se_s
    assert abs(est.mean_s2 - exact.second) < 4 * est.se_s2


def test_standard_error_scales_like_clt(cube):
    small = estimate_moments(cube, 0.5, 20000, seed=1)
    large = estimate_moments(cube, 0.5, 80000, seed=2)
    ratio = small.se_s / large.se_s
    assert 1.6 < ratio < 2.4


def test_start_vertices_cover_the_graph(dodecahedron):
    # p = 0: the cluster is exactly the start vertex, so replicate
    # realizations expose the start distribution directly
    counts = np.zeros(20, dtype=int)
    for i in range(2000):
        x, _ = replicate_realization(dodecahedron, 0.0, 5, i)
        counts[x] += 1
    assert (counts > 0).all()
    assert counts.max() < 5 * counts.min() + 50


def test_argument_validation(k3):
    with pytest.raises(BadParameterError):
        estimate_moments(k3, 0.5, 1, seed=0)
    with pytest.raises(BadParameterError):
        estimate_moments(k3, 0.5, 100, seed=0, workers=0)
    with pytest.raises(BadParameterError):
        estimate_moments(k3, 1.5, 100, seed=0)
    with pytest.raises(BadParameterError):
        replicate_realization(k3, 0.5, 0, -1)


def test_sweep_rows_are_sorted_and_seeded(tetrahedron):
    result = sweep(tetrahedron, [0.6, 0.2, 0.4], 2000, seed=11)
    assert [row.p for row in result.rows] == [0.2, 0.4, 0.6]
    seeds = {row.estimate.seed for row in result.rows}
    assert len(seeds) == 3
    assert result.graph_label == "tetrahedron"
    assert result.replicates == 2000 and result.seed == 11
    # grid order must not affect anything
    again = sweep(tetrahedron, [0.2, 0.4, 0.6], 2000, seed=11)
    assert again.rows == result.rows


def test_sweep_builds_one_edge_plan_and_matches_point_estimates(monkeypatch):
    g = generate_builtin("icosahedron")
    plans = []
    build = montecarlo._edge_plan
    monkeypatch.setattr(montecarlo, "_edge_plan", lambda graph: plans.append(1) or build(graph))
    result = sweep(g, [0.1, 0.3, 0.5, 0.7], 3000, seed=5)
    assert len(plans) == 1
    for row in result.rows:
        assert row.estimate == estimate_moments(g, row.p, 3000, row.estimate.seed)


def test_sweep_refuses_too_few_replicates_before_the_dp(k3, monkeypatch):
    monkeypatch.setattr(montecarlo, "_edge_plan", _no_work)
    monkeypatch.setattr(montecarlo, "moment_polynomial", _no_work)
    for reps in (1, 0, -4):
        with pytest.raises(BadParameterError, match="at least 2"):
            sweep(k3, [0.2, 0.5], reps, seed=0, include_oracle=True)


def test_sweep_oracle_columns(tetrahedron):
    with_oracle = sweep(tetrahedron, [0.3, 0.5], 20000, seed=0, include_oracle=True)
    for row in with_oracle.rows:
        assert row.exact is not None
        assert abs(row.estimate.mean_s - row.exact.first) < 4 * row.estimate.se_s
        assert row.combined.first <= min(row.branching.first, row.isolation.first)
    without = sweep(tetrahedron, [0.3], 2000, seed=0)
    assert without.rows[0].exact is None


def test_sweep_respects_edge_cap(dodecahedron):
    with pytest.raises(TooManyEdgesError, match="frontier width"):
        sweep(generate_builtin("complete(12)"), [0.5], 100, seed=0, include_oracle=True)
    # the 30-edge dodecahedron, past the enumeration cap, is within the DP's
    result = sweep(dodecahedron, [0.0], 100, seed=0, include_oracle=True)
    assert result.rows[0].estimate.mean_s == 1.0 and result.rows[0].exact.first == 1.0


def test_sweep_rejects_bad_grid(k3):
    with pytest.raises(BadParameterError):
        sweep(k3, [], 100, seed=0)
    with pytest.raises(BadParameterError):
        sweep(k3, [0.5, 1.2], 100, seed=0)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were refused")


def test_oversized_replicates_are_refused_before_work(k3, monkeypatch):
    monkeypatch.setattr(montecarlo, "_edge_plan", _no_work)
    monkeypatch.setattr(montecarlo, "moment_polynomial", _no_work)
    cap = montecarlo.MAX_REPLICATES
    with pytest.raises(BadParameterError, match="replicates"):
        estimate_moments(k3, 0.5, cap + 1, seed=0)
    # each point alone is within the cap, the grid's total is not
    with pytest.raises(BadParameterError, match="grid points"):
        sweep(k3, [0.2, 0.4], cap // 2 + 1, seed=0, include_oracle=True)


def test_oversized_worker_counts_are_refused_before_a_pool(k3, monkeypatch):
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_work)
    monkeypatch.setattr(montecarlo, "_edge_plan", _no_work)
    monkeypatch.setattr(montecarlo, "moment_polynomial", _no_work)
    for workers in (montecarlo.MAX_WORKERS + 1, 10**9):
        with pytest.raises(BadParameterError, match="workers"):
            estimate_moments(k3, 0.5, 100, seed=0, workers=workers)
        with pytest.raises(BadParameterError, match="workers"):
            sweep(k3, [0.5], 100, seed=0, include_oracle=True, workers=workers)


# Seeded results pinned, so that a change of RNG layout or kernel cannot
# move a single bit unnoticed.  Recorded with four edge flags per mixed word
# (see percmoments.rng); every kernel change before that kept them.  The
# random rows were re-recorded when the random graphs' pairings moved to the
# counter streams.
GOLDEN_ESTIMATES = [
    ("dodecahedron", 0.35, 2 * _BLOCK + 100, 3,
     (3.9296893957777237, 0.026189307642352694, 26.74781606406212, 0.3617381534237796)),
    ("random(60,3,5)", 0.5, 5000, 11,
     (13.4874, 0.18404962129985522, 351.2474, 7.875895341110928)),
    # 300 edges: the dense kernel alone (D x _DENSE_SWITCH >= |E|)
    ("random(200,3,1)", 0.45, 2 * _BLOCK + 100, 3,
     (11.13728463965057, 0.11357541032386603, 336.65948798835234, 7.303098618524659)),
    # 1500 edges: a sparse phase first, then the dense kernel for the columns left open
    ("random(1000,3,1)", 0.45, 2 * _BLOCK + 100, 3,
     (13.265105556903665, 0.16868561624206482, 644.9841057995632, 21.273149604104876)),
    ("random(1000,3,1)", 0.6, 2 * _BLOCK + 100, 3,
     (484.85397961659794, 2.5181122617860847, 339600.2609196797, 1851.6334092300929)),
]
GOLDEN_SWEEP = [  # icosahedron, 10000 replicates, seed 7
    (0.1, 9672475392221035855, (1.795, 0.012511321006006182, 4.7872, 0.08272336992406172)),
    (0.3, 5573481420429128725, (6.2346, 0.03814658307345519, 53.4204, 0.4888230571302035)),
    (0.5, 17358316652931856208,
     (10.8791, 0.024836867878228933, 124.52289999999999, 0.36580624513517807)),
]


def _values(est):
    return (est.mean_s, est.se_s, est.mean_s2, est.se_s2)


@pytest.mark.parametrize("name,p,reps,seed,expected", GOLDEN_ESTIMATES)
def test_estimates_match_pinned_values(name, p, reps, seed, expected):
    g = _graph(name)
    assert _values(estimate_moments(g, p, reps, seed)) == expected


def test_sweep_matches_pinned_values():
    result = sweep(generate_builtin("icosahedron"), [0.5, 0.1, 0.3], 10000, seed=7)
    got = [(row.p, row.estimate.seed, _values(row.estimate)) for row in result.rows]
    assert got == GOLDEN_SWEEP


# ---------------------------------------------------------------- block kernel
# One bit-packed fixpoint for every graph, checked against per-replicate
# union-find clusters.


@pytest.mark.parametrize("name", ["tetrahedron", "icosahedron", "hypercube(5)", "random(200,3,1)",
                                  "random(60,6,2)"])
def test_edge_plan_slots_hold_each_edge_once_at_each_end(name):
    g = _graph(name)
    plan = montecarlo._edge_plan(g)
    n, edges = g.n_vertices, g.edge_array()
    assert plan.neighbors.shape == plan.incident.shape == (g.degree, n)
    ends = edges[plan.incident]  # (D, N, 2): the two ends of each slot's edge
    near_is_head = ends[..., 0] == np.arange(n)
    assert np.all(near_is_head | (ends[..., 1] == np.arange(n)))
    np.testing.assert_array_equal(plan.neighbors,
                                  np.where(near_is_head, ends[..., 1], ends[..., 0]))
    # slots[0, e] sits at the head of edge e, slots[1, e] at its tail, and no
    # other slot holds e
    assert plan.slots.shape == (2, g.n_edges)
    np.testing.assert_array_equal(np.sort(plan.slots.reshape(-1)), np.arange(2 * g.n_edges))
    np.testing.assert_array_equal(plan.incident.reshape(-1)[plan.slots],
                                  np.tile(np.arange(g.n_edges), (2, 1)))
    np.testing.assert_array_equal(plan.slots % n, edges.T)


def _tied_p(key, edge, opens):
    """A p whose threshold ties with edge ``edge``'s lane in stream ``key``, opening it or not."""
    word = rng._mix64_scalar(key + rng._GOLDEN * (edge // 4 + 2))
    tail = rng._mix64_scalar(key + rng._GOLDEN * (2**64 - 1 - edge)) >> 27
    return ((word >> 16 * (edge % 4) & 0xFFFF) << 37 | tail) * 2.0**-53 + opens * 2.0**-53


@pytest.mark.parametrize("name,width", [("icosahedron", 21), ("random(60,6,2)", 8),
                                        ("random(1000,3,1)", _BLOCK + 3)])
def test_slot_draw_twin_rows_equal_their_first_rows(name, width):
    # the twin rows are copied through the scratch, in pieces on the widest
    # span here; a tied lane, decided after the draw, reaches both rows
    g = _graph(name)
    plan = montecarlo._edge_plan(g)
    seed, lo, edge, stream = 6, 40, g.n_edges - 2, width - 1
    keys = rng._stream_keys(seed, lo, width)
    for p in (0.0, 0.4, _tied_p(int(keys[stream]), edge, True),
              _tied_p(int(keys[stream]), edge, False), 1.0):
        work = montecarlo._Workspace()
        slots = montecarlo._span_flags(g, plan, p, keys, work)
        assert slots.shape == (g.degree, g.n_vertices, -(-width // 8))
        rows = slots.reshape(2 * g.n_edges, -1)
        _, by_edge = edge_draws(seed, lo, width, g.n_edges, p)
        np.testing.assert_array_equal(rows[plan.slots[0]], by_edge)
        np.testing.assert_array_equal(rows[plan.slots[1]], by_edge)
    for opens in (True, False):
        p = _tied_p(int(keys[stream]), edge, opens)
        rows = montecarlo._span_flags(g, plan, p, keys, montecarlo._Workspace())
        for slot in plan.slots[:, edge]:
            row = rows.reshape(2 * g.n_edges, -1)[slot]
            assert bool(row[stream // 8] >> stream % 8 & 1) == opens


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron", "dodecahedron",
                                  "icosahedron", "random(60,3,2)", "random(50,4,1)"])
@pytest.mark.parametrize("p", [0.35, 0.7])
def test_one_pull_step_is_one_birth_generation(name, p):
    # with src and dst apart, a pull step reaches the open neighbours of
    # src: less what is already reached, the next layer of the birth process
    g = _graph(name)
    seed, lo, width = 5, 300, 21
    plan = montecarlo._edge_plan(g)
    work = montecarlo._Workspace()
    keys, _ = montecarlo._span_starts(g, seed, lo, lo + width, work)
    open_slots = montecarlo._span_flags(g, plan, p, keys, work)
    traces = [run_birth_process(g, cfg, x)
              for x, cfg in (replicate_realization(g, p, seed, r) for r in range(lo, lo + width))]

    def layer(gen):
        hot = np.zeros((g.n_vertices, width), dtype=bool)
        for r, trace in enumerate(traces):
            hot[list(trace.layers[gen]), r] = True
        return np.packbits(hot, axis=1, bitorder="little")

    reached = layer(0)
    for gen in range(g.n_vertices - 1):
        src, dst = layer(gen), np.zeros_like(reached)
        montecarlo._relax_edges(plan, open_slots, src, dst, work)
        np.testing.assert_array_equal(dst & ~reached, layer(gen + 1))
        reached |= dst
        if not src.any():
            break


@pytest.mark.parametrize("n,width", [(1, 1), (3, 13), (5, 7), (20, 8), (20, 40_003),
                                     (1000, _BLOCK), (1000, 4099)])
def test_packed_starts_match_the_one_hot_reference(n, width):
    starts = np.random.default_rng(n * width).integers(0, n, size=width)
    work = montecarlo._Workspace()
    work("member", n * -(-width // 8), np.uint8).fill(0xFF)  # as an earlier span left it
    hot = np.zeros((n, width), dtype=bool)
    hot[starts, np.arange(width)] = True
    np.testing.assert_array_equal(montecarlo._packed_starts(n, starts, work),
                                  np.packbits(hot, axis=1, bitorder="little"))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(20, 3), (60, 4), (200, 3), (260, 3), (100, 6)]),
    graph_seed=st.integers(0, 3),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32),
    lo=st.integers(0, 2**20),
    width=st.integers(1, 48),
    piece_bytes=st.sampled_from([1, 100, montecarlo._PIECE_BYTES]),
)
def test_block_sizes_match_per_replicate_clusters(
    shape, graph_seed, p, seed, lo, width, piece_bytes
):
    g = _random_graph(*shape, graph_seed)
    saved = montecarlo._PIECE_BYTES
    montecarlo._PIECE_BYTES = piece_bytes  # down to one edge row per piece
    try:
        sizes = _block_cluster_sizes(g, p, seed, lo, lo + width)
    finally:
        montecarlo._PIECE_BYTES = saved
    expected = []
    for r in range(lo, lo + width):
        x, cfg = replicate_realization(g, p, seed, r)
        expected.append(cluster_of(g, cfg, x).size)
    np.testing.assert_array_equal(sizes, expected)


def test_a_block_holds_no_unpacked_vertex_matrix(monkeypatch):
    # built whole, the one-hot start matrix and the size readout of one
    # 8192-replicate block on N = 1000 took 8 MB each (a 10 MB peak); the
    # span's buffers, grown here from a 64-replicate workspace, come to
    # about 5.3 MB, 1.4 MB of them the flags' second slot rows.
    # At p = 0.6 most replicates go dense (at 0.5 all end sparse).
    monkeypatch.setattr(montecarlo, "_FREE", [])
    g = _random_graph(1000, 3, 1)
    estimate_moments(g, 0.6, 64, 3)
    tracemalloc.start()
    try:
        estimate_moments(g, 0.6, _BLOCK, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("shape", [(3, 5), (7, 3), (20, 1024), (1, 1)])
def test_bit_total_grows_with_every_set_bit(shape):
    # the fixpoint stops when this total stays put, so it must grow on every
    # new bit, also where the byte count is not a whole number of words
    rng = np.random.default_rng(shape[0] * shape[1])
    member = rng.integers(0, 256, size=shape, dtype=np.uint8) & rng.integers(
        0, 256, size=shape, dtype=np.uint8)
    total = montecarlo._bit_total(member)
    for row, col in zip(*np.nonzero(member != 255)):
        free = [k for k in range(8) if not member[row, col] >> k & 1]
        member[row, col] |= 1 << free[rng.integers(len(free))]
        total, before = montecarlo._bit_total(member), total
        assert total > before
    member[...] = 255
    assert montecarlo._bit_total(member) > total


@pytest.mark.parametrize("name", ["octahedron", "dodecahedron", "icosahedron", "random(200,3,0)"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("lo, hi", [(0, _BLOCK), (4 * _BLOCK, 40_000)])
def test_packed_full_blocks_match_per_replicate_clusters(name, p, lo, hi):
    # full-width blocks of a 40 000-replicate run: 8192 columns, then the last 7232
    g = _graph(name)
    sizes = _block_cluster_sizes(g, p, 11, lo, hi)
    work = montecarlo._Workspace()
    keys, starts = montecarlo._span_starts(g, 11, lo, hi, work)
    packed = rng._edge_flags(keys, g.n_edges, p)
    open_edges = np.unpackbits(packed, axis=1, count=hi - lo, bitorder="little").astype(bool)
    expected = [
        cluster_of(g, EdgeConfig(tuple(open_edges[:, r].tolist()), p), int(x)).size
        for r, x in enumerate(starts)
    ]
    np.testing.assert_array_equal(sizes, expected)


# ---------------------------------------------------------------- two phases
# Above the dense switch a span starts with a sparse breadth-first search
# that draws only the edges it reads, and hands the replicates still open
# to the packed fixpoint.


def _sparse_spy(monkeypatch):
    """Record (span width, replicates left dense) of every sparse phase."""
    calls = []
    sparse = montecarlo._sparse_sizes

    def spy(graph, plan, p, keys, starts, work):
        sizes, dense = sparse(graph, plan, p, keys, starts, work)
        calls.append((keys.size, dense.size))
        return sizes, dense

    monkeypatch.setattr(montecarlo, "_sparse_sizes", spy)
    return calls


def _reference_sizes(g, p, seed, lo, hi):
    sizes = []
    for r in range(lo, hi):
        x, cfg = replicate_realization(g, p, seed, r)
        sizes.append(cluster_of(g, cfg, x).size)
    return sizes


_EDGE_P = [0.0, 2.0**-53, 0.3, 0.45, 0.6, 1.0 - 2.0**-53, 1.0]


@pytest.mark.parametrize("p", _EDGE_P)
def test_two_phase_sizes_match_per_replicate_clusters(p, monkeypatch):
    # 990 edges, above the switch; 37 and 141 columns, not whole bytes
    g = _graph("random(660,3,1)")
    assert not montecarlo._goes_dense(g, 1, 1)
    calls = _sparse_spy(monkeypatch)
    for lo, hi in ((5, 42), (_BLOCK - 70, _BLOCK + 71)):
        sizes = _block_cluster_sizes(g, p, 21, lo, hi)
        np.testing.assert_array_equal(sizes, _reference_sizes(g, p, 21, lo, hi))
    if p in (0.0, 1.0):  # constant flags: no word to draw, no sparse phase
        assert calls == []
    elif p == 2.0**-53:  # every replicate finishes sparse
        assert calls == [(37, 0), (141, 0)]
    elif p == 1.0 - 2.0**-53:  # none does
        assert calls == [(37, 37), (141, 141)]
    elif p == 0.45:  # some do
        assert all(0 < dense < width for width, dense in calls)


@pytest.mark.parametrize("p", [0.45, 0.6])
def test_a_span_mixes_its_streams_once(p, monkeypatch):
    # both phases run here: the dense draw takes the open columns' keys and
    # starts from the sparse phase, not from a second mixing of the span
    g = _graph("random(660,3,1)")
    calls = _sparse_spy(monkeypatch)
    mixed = []
    stream_keys = montecarlo._stream_keys

    def spy(seed, first_stream, n_streams, *args):
        mixed.append(n_streams)
        return stream_keys(seed, first_stream, n_streams, *args)

    monkeypatch.setattr(montecarlo, "_stream_keys", spy)
    sizes = _block_cluster_sizes(g, p, 21, _BLOCK - 70, _BLOCK + 71)
    ((width, dense),) = calls
    assert 0 < dense < width == 141
    assert mixed == [141]
    np.testing.assert_array_equal(sizes, _reference_sizes(g, p, 21, _BLOCK - 70, _BLOCK + 71))


@settings(max_examples=12, deadline=None)
@given(
    shape=st.sampled_from([(660, 3), (700, 4)]),
    p=st.one_of(st.sampled_from(_EDGE_P), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32),
    lo=st.integers(0, 2**20),
    width=st.integers(1, 30),
)
def test_two_phase_blocks_match_per_replicate_clusters(shape, p, seed, lo, width):
    g = _random_graph(*shape, 3)
    sizes = _block_cluster_sizes(g, p, seed, lo, lo + width)
    np.testing.assert_array_equal(sizes, _reference_sizes(g, p, seed, lo, lo + width))


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron", "dodecahedron",
                                  "icosahedron"])
def test_solids_never_enter_the_sparse_phase(name, monkeypatch):
    # generation 0 is already dense on every solid: D x 320 >= |E|
    g = generate_builtin(name)
    assert montecarlo._goes_dense(g, 1, 1)
    calls = _sparse_spy(monkeypatch)
    for p in (0.3, 0.5, 0.9):
        estimate_moments(g, p, _BLOCK + 3, seed=1)
    sweep(g, [0.2, 0.7], 1000, seed=2)
    assert calls == []


# ---------------------------------------------------------------- span schedule
# A span is the replicates of one draw and one fixpoint: whole merge blocks
# as the byte budget allows, or a sub-span of one block when a block does
# not fit.  Neither the budget nor the worker count may move a bit.


@pytest.mark.parametrize("name", ["dodecahedron", "random(80,3,4)", "random(660,3,1)"])
@pytest.mark.parametrize("reps", [2, _BLOCK + 1, 2 * _BLOCK + 100])
def test_span_budget_and_workers_never_change_results(name, reps, monkeypatch):
    g = _graph(name)  # 30, 120 and 990 edges, the last above the dense switch
    sparse = not montecarlo._goes_dense(g, 1, 1)
    widths = []
    draws = montecarlo._span_flags

    def spy(graph, order, p, keys, work):
        # keys: the whole span's, or those of the replicates its sparse phase left open
        widths.append(keys.size)
        return draws(graph, order, p, keys, work)

    monkeypatch.setattr(montecarlo, "_span_flags", spy)
    reference = repr(estimate_moments(g, 0.45, reps, seed=9))
    blocks = -(-reps // _BLOCK)
    column = 2 * g.n_edges + g.n_vertices + 8 * montecarlo._COLUMN_WORDS
    tiny = 200 * column  # 200-replicate sub-spans: no |E| x 8192 matrix
    for budget in (tiny, montecarlo._SPAN_BYTES, 1 << 40):
        monkeypatch.setattr(montecarlo, "_SPAN_BYTES", budget)
        for workers in (1, 2, 3):
            widths.clear()
            got = estimate_moments(g, 0.45, reps, seed=9, workers=workers)
            assert repr(got) == reference, (budget, workers)
            if sparse:  # draws only for the dense phase, at most one per span
                assert sum(widths) < reps or reps == 2
                assert max(widths, default=0) <= (200 if budget == tiny else reps)
                continue
            assert sum(widths) == reps
            if budget == tiny:
                assert max(widths) == min(reps, 200)
            elif workers == 1:  # one draw per call
                assert widths == [reps]
            else:  # a span for each worker, as far as there are blocks
                assert len(widths) >= min(workers, blocks)


def test_spans_are_streamed_on_block_bounds(k3):
    # 2^30 replicates: spans come one at a time, never as a list of all
    spans = montecarlo._spans(k3, montecarlo.MAX_REPLICATES, montecarlo.MAX_WORKERS)
    assert not isinstance(spans, (list, tuple))
    (lo, hi), (lo2, _) = next(spans), next(spans)
    assert lo == 0 and hi == lo2 and hi % _BLOCK == 0
    assert hi <= montecarlo._span_width(k3)


# ---------------------------------------------------------------- workspaces
# A span's buffers come from a workspace that later spans and calls reuse;
# the free list keeps idle ones within _KEEP_BYTES.


@pytest.mark.parametrize("workers", [1, 2])
def test_repeated_calls_make_no_new_workspace(workers, monkeypatch):
    made = []

    class Counted(montecarlo._Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(montecarlo, "_Workspace", Counted)
    monkeypatch.setattr(montecarlo, "_FREE", [])
    g = _random_graph(1000, 3, 1)  # above the dense switch: both phases run
    first = estimate_moments(g, 0.6, 2 * _BLOCK, 3, workers=workers)
    assert estimate_moments(g, 0.6, 2 * _BLOCK, 3, workers=workers) == first
    assert 1 <= len(made) <= workers
    count = len(made)
    kept = [(work, dict(work._buffers)) for work in montecarlo._FREE]
    assert estimate_moments(g, 0.6, 2 * _BLOCK, 3, workers=workers) == first
    assert len(made) == count
    if workers == 1:  # the same spans again: not a buffer grows
        assert [(work, dict(work._buffers)) for work in montecarlo._FREE] == kept


def test_threads_never_share_a_workspace(monkeypatch):
    # more threads than cores, switching often: a workspace handed to two
    # spans at once would mix their buffers and move a result
    g = _graph("random(200,3,1)")
    serial = estimate_moments(g, 0.5, 8 * _BLOCK, seed=4)
    monkeypatch.setattr(montecarlo, "_FREE", [])
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert estimate_moments(g, 0.5, 8 * _BLOCK, seed=4, workers=8) == serial
    finally:
        sys.setswitchinterval(saved)
    idle = montecarlo._FREE
    assert 0 < len(idle) == len({id(work) for work in idle}) <= 8


def test_idle_workspaces_stay_within_their_bound(monkeypatch):
    g = _random_graph(1000, 3, 1)
    for bound in (montecarlo._KEEP_BYTES, 6 * 2**20):  # room for all four, then for one
        monkeypatch.setattr(montecarlo, "_KEEP_BYTES", bound)
        monkeypatch.setattr(montecarlo, "_FREE", [])
        estimate_moments(g, 0.6, 4 * _BLOCK, 3, workers=4)
        idle = [work.nbytes for work in montecarlo._FREE]
        assert 0 < sum(idle) <= bound
        assert max(idle) > 2**20  # a span's buffers, not an empty workspace
    assert len(idle) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda g: estimate_moments(g, 0.5, 100.5, seed=0),
        lambda g: estimate_moments(g, 0.5, None, seed=0),
        lambda g: estimate_moments(g, 0.5, "10", seed=0),
        lambda g: estimate_moments(g, 0.5, 100, seed=None),
        lambda g: estimate_moments(g, 0.5, 100, seed=0, workers=None),
        lambda g: sweep(g, None, 100, seed=0, include_oracle=True),
        lambda g: sweep(g, 0.5, 100, seed=0, include_oracle=True),
        lambda g: sweep(g, [0.5], 100.0, seed=0, include_oracle=True),
        lambda g: sweep(g, [0.5], 100, seed=None, include_oracle=True),
        lambda g: replicate_realization(g, 0.5, 0, None),
        lambda g: replicate_realization(g, 0.5, None, 3),
    ],
    ids=["float reps", "None reps", "str reps", "None seed", "None workers",
         "None grid", "scalar grid", "float sweep reps", "None sweep seed",
         "None replicate index", "None replicate seed"],
)
def test_non_integer_arguments_are_refused_before_work(k3, monkeypatch, call):
    monkeypatch.setattr(montecarlo, "_edge_plan", _no_work)
    monkeypatch.setattr(montecarlo, "moment_polynomial", _no_work)
    with pytest.raises(BadParameterError):
        call(k3)


def test_last_replicate_index_is_drawn_and_later_ones_refused(k3, monkeypatch):
    # stream r mixes counter r + 1, a uint64 word, so 2^64 - 2 is the last index
    last = 2**64 - 2
    x, cfg = replicate_realization(k3, 0.5, 7, last)
    u = stream_uniforms(derive_key(7, last), 0, 1)
    assert x == min(int(u[0] * k3.n_vertices), k3.n_vertices - 1)
    assert cfg.open_flags == tuple((edge_uniforms(7, last, 1, k3.n_edges)[0] < 0.5).tolist())
    monkeypatch.setattr(montecarlo, "_span_starts", _no_work)
    for index in (last + 1, 2**64, 2**70):
        with pytest.raises(BadParameterError):
            replicate_realization(k3, 0.5, 7, index)
