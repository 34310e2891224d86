import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_exact_estimate, edge_uniforms
from percmoments import (
    BadParameterError,
    BoundParams,
    EdgeConfig,
    TooManyEdgesError,
    best_bounds,
    cluster_of,
    estimate_moments,
    exact_moments,
    generate_builtin,
    generate_random_regular,
    replicate_realization,
    sweep,
)
from percmoments import bounds, montecarlo, rng
from percmoments.coupling import run_birth_process
from percmoments.montecarlo import _block_cluster_sizes
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
    assert at1.se_s == 0.0 and at1.se_s2 == 0.0


def test_same_seed_reproduces_and_seeds_matter(cube):
    a = estimate_moments(cube, 0.4, 20000, seed=7)
    b = estimate_moments(cube, 0.4, 20000, seed=7)
    c = estimate_moments(cube, 0.4, 20000, seed=8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workers", [4, 16])
def test_worker_count_never_changes_results(octahedron, workers):
    # several spans, whose sums are added in whatever order they finish
    reps = 2 * 8192 + 100
    serial = estimate_moments(octahedron, 0.35, reps, seed=3, workers=1)
    parallel = estimate_moments(octahedron, 0.35, reps, seed=3, workers=workers)
    assert serial == parallel


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_count_never_changes_compacted_results(workers):
    # 300 edges, the size that once ran a compacting bool fixpoint: slow
    # replicates near criticality in every block, relaxed in packed spans
    g = _random_graph(200, 3, 1)
    reps = 2 * 8192 + 100
    serial = estimate_moments(g, 0.5, reps, seed=5, workers=1)
    assert estimate_moments(g, 0.5, reps, seed=5, workers=workers) == serial


def test_replicates_can_be_reconstructed(tetrahedron):
    p, seed = 0.37, 9
    block = _block_cluster_sizes(tetrahedron, p, seed, 0, 50)
    later = _block_cluster_sizes(tetrahedron, p, seed, 8192, 8192 + 10)
    for i in (0, 17, 49):
        x, cfg = replicate_realization(tetrahedron, p, seed, i)
        assert cluster_of(tetrahedron, cfg, x).size == block[i]
    for j in range(10):
        x, cfg = replicate_realization(tetrahedron, p, seed, 8192 + j)
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
    # one stream set for the whole grid: every row carries the sweep's seed
    assert {row.estimate.seed for row in result.rows} == {11}
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


def test_sweep_evaluates_each_bound_family_once_per_point(k3, monkeypatch):
    # the combined row is the minimum of the two families already in the
    # row, not a second evaluation of both through best_bounds
    calls = {"branching_bounds": 0, "isolation_bounds": 0}

    def spy(name, original):
        def counted(params):
            calls[name] += 1
            return original(params)
        return counted

    for name in calls:
        wrapped = spy(name, getattr(bounds, name))
        for module in (bounds, montecarlo):
            monkeypatch.setattr(module, name, wrapped)
    grid = [k / 40 for k in range(41)]
    result = sweep(k3, grid, 2, seed=0)
    assert calls == {"branching_bounds": 41, "isolation_bounds": 41}
    monkeypatch.undo()
    for row in result.rows:
        assert row.combined == best_bounds(
            BoundParams(degree=k3.degree, n_vertices=k3.n_vertices, p=row.p))


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
# counter streams.  The standard errors moved in their last bit when the
# statistics became exact integer sums; no mean moved.
GOLDEN_ESTIMATES = [
    ("dodecahedron", 0.35, 2 * 8192 + 100, 3,
     (3.9296893957777237, 0.026189307642352694, 26.74781606406212, 0.3617381534237796)),
    ("random(60,3,5)", 0.5, 5000, 11,
     (13.4874, 0.18404962129985522, 351.2474, 7.875895341110929)),
    # 300 edges: the dense kernel alone (D x _DENSE_SWITCH >= |E|)
    ("random(200,3,1)", 0.45, 2 * 8192 + 100, 3,
     (11.13728463965057, 0.11357541032386602, 336.65948798835234, 7.303098618524659)),
    # 1500 edges: a sparse phase first, then the dense kernel for the columns left open
    ("random(1000,3,1)", 0.45, 2 * 8192 + 100, 3,
     (13.265105556903665, 0.16868561624206482, 644.9841057995632, 21.273149604104876)),
    ("random(1000,3,1)", 0.6, 2 * 8192 + 100, 3,
     (484.85397961659794, 2.5181122617860847, 339600.2609196797, 1851.6334092300926)),
]
# Every point of a sweep draws from the streams of its seed, so each row is
# the seed's estimate_moments (recorded when sweeps moved from one derived
# seed per point to one stream set).
GOLDEN_SWEEP = [  # icosahedron, 10000 replicates, seed 7
    (0.1, 7, (1.7791, 0.012472605004070271, 4.7207, 0.08371230450771619)),
    (0.3, 7, (6.2663, 0.03805657973762399, 53.7481, 0.48611901403728375)),
    (0.5, 7, (10.8923, 0.02490927775371701, 124.8463, 0.3643742643099937)),
]


def _values(est):
    return (est.mean_s, est.se_s, est.mean_s2, est.se_s2)


@pytest.mark.parametrize("name,p,reps,seed,expected", GOLDEN_ESTIMATES)
def test_estimates_match_pinned_values(name, p, reps, seed, expected):
    g = _graph(name)
    estimate = estimate_moments(g, p, reps, seed)
    assert _values(estimate) == expected
    # the pins are the exact rationals of the run's sizes, rounded
    assert_exact_estimate(estimate, _block_cluster_sizes(g, p, seed, 0, reps))


def test_sweep_matches_pinned_values():
    g = generate_builtin("icosahedron")
    result = sweep(g, [0.5, 0.1, 0.3], 10000, seed=7)
    got = [(row.p, row.estimate.seed, _values(row.estimate)) for row in result.rows]
    assert got == GOLDEN_SWEEP
    for row in result.rows:
        assert_exact_estimate(row.estimate, _block_cluster_sizes(g, row.p, 7, 0, 10000))


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
                                        ("random(1000,3,1)", 8192 + 3)])
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
                                     (1000, 8192), (1000, 4099)])
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
        estimate_moments(g, 0.6, 8192, 3)
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
@pytest.mark.parametrize("lo, hi", [(0, 8192), (4 * 8192, 40_000)])
def test_packed_full_blocks_match_per_replicate_clusters(name, p, lo, hi):
    # wide spans: 8192 columns, and 7232 starting at replicate 32768
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
    for lo, hi in ((5, 42), (8192 - 70, 8192 + 71)):
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
    sizes = _block_cluster_sizes(g, p, 21, 8192 - 70, 8192 + 71)
    ((width, dense),) = calls
    assert 0 < dense < width == 141
    assert mixed == [141]
    np.testing.assert_array_equal(sizes, _reference_sizes(g, p, 21, 8192 - 70, 8192 + 71))


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
        estimate_moments(g, p, 8192 + 3, seed=1)
    sweep(g, [0.2, 0.7], 1000, seed=2)
    assert calls == []


# ---------------------------------------------------------------- one stream set
# A sweep draws every point from the streams of its seed: each span's keys
# and starts are mixed once for the grid, and on spans whose generation 0
# is dense each window of up to 127 points is one draw of per-edge counts
# of open points and one bottleneck fixpoint.  So row p is
# estimate_moments at p, bit for bit.


def _assert_rows_are_point_estimates(g, grid, reps, seed, workers):
    result = sweep(g, grid, reps, seed, workers=workers)
    assert [row.p for row in result.rows] == sorted(grid)
    for row in result.rows:
        # all four floats, the replicate count and the seed
        assert row.estimate == estimate_moments(g, row.p, reps, seed, workers), row.p


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", ["octahedron", "dodecahedron", "icosahedron"])
def test_sweep_rows_are_point_estimates_on_lane_spans(name, workers, monkeypatch):
    g = generate_builtin(name)
    stores = []
    edge_grid = montecarlo._edge_grid
    monkeypatch.setattr(montecarlo, "_edge_grid",
                        lambda keys, *args: stores.append(keys.size) or edge_grid(keys, *args))
    # unsorted, both ends, a repeated point; several spans with three workers
    grid = [0.7, 0.0, 0.35, 1.0, 0.35, 0.1, 0.55]
    reps = 2 * 8192 + 100
    _assert_rows_are_point_estimates(g, grid, reps, 11, workers)
    spans = list(montecarlo._spans(g, reps, workers))
    assert len(spans) == 1 if workers == 1 else len(spans) > 1
    assert sum(stores) == reps and len(stores) == len(spans)  # one store per span


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_rows_are_point_estimates_on_two_phase_spans(workers, monkeypatch):
    # 1500 edges: a sparse phase first.  At 0.3 and 0.45 every replicate
    # ends sparse; at 0.6 most go dense, and some still end sparse.
    g = _graph("random(1000,3,1)")
    assert not montecarlo._goes_dense(g, 1, 1)
    phases = []
    sparse = montecarlo._sparse_sizes

    def spy(graph, plan, p, keys, starts, work):
        sizes, dense = sparse(graph, plan, p, keys, starts, work)
        phases.append((p, keys.size, dense.size))
        return sizes, dense

    monkeypatch.setattr(montecarlo, "_sparse_sizes", spy)
    reps = 2 * 8192 + 100
    result = sweep(g, [0.6, 0.3, 0.45], reps, 5, workers=workers)
    by_p = {p: [(width, dense) for q, width, dense in phases if q == p] for p in (0.3, 0.45, 0.6)}
    assert all(dense == 0 for _, dense in by_p[0.3] + by_p[0.45])
    assert all(0 < dense < width for width, dense in by_p[0.6])  # both kinds of column
    assert sum(dense for _, dense in by_p[0.6]) > reps // 2
    for row in result.rows:
        assert row.estimate == estimate_moments(g, row.p, reps, 5, workers), row.p


_BUILTINS = ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron", "ring(9)",
             "complete(6)", "hypercube(4)"]


def _tie_at(key, edge, low):
    """A p whose threshold's top 16 bits are edge ``edge``'s lane in stream ``key``.

    Its low 37 bits are ``low``, not 0, so the edge's tail word decides it.
    """
    word = rng._mix64_scalar(key + rng._GOLDEN * (edge // 4 + 2))
    return ((word >> 16 * (edge % 4) & 0xFFFF) << 37 | low) * 2.0**-53


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(_BUILTINS),
    points=st.lists(st.one_of(st.sampled_from(_EDGE_P), st.floats(0.0, 1.0)), max_size=8),
    spread=st.integers(122, 160),
    seed=st.integers(0, 2**32),
    lo=st.integers(0, 2**20),
    width=st.integers(1, 70),
    tie=st.tuples(st.integers(0, 69), st.integers(0, 10**6), st.integers(1, 2**37 - 2**13 - 1)),
)
def test_warm_started_sizes_equal_cold_ones(name, points, spread, seed, lo, width, tie):
    # the grid kernel, window by window, against a cold draw and fixpoint
    # per point.  Every grid holds 0, 1, a repeated point, more than one
    # window's points, and p and p + 2^-40, which share a lane limit that
    # one of the span's lanes ties with: their tail words decide it.
    g = generate_builtin(name)
    assert montecarlo._goes_dense(g, 1, 1)
    r, edge, low = lo + tie[0] % width, tie[1] % g.n_edges, tie[2]
    p_tie = _tie_at(derive_key(seed, r), edge, low)
    assert math.ceil((p_tie + 2.0**-40) * 2**53) >> 37 == math.ceil(p_tie * 2**53) >> 37
    grid = sorted(points + [0.0, 1.0, 0.5, 0.5, p_tie, p_tie + 2.0**-40]
                  + [i / spread for i in range(spread + 1)])
    assert len(grid) > montecarlo._GRID_WINDOW
    work = montecarlo._Workspace()
    keys, starts = montecarlo._span_starts(g, seed, lo, lo + width, work)
    tails = rng._tail_words
    tied = []
    rng._tail_words = lambda keys, edges: tied.append(edges.size) or tails(keys, edges)
    try:
        got = [sizes.copy() for sizes in
               montecarlo._grid_sizes(g, montecarlo._edge_plan(g), grid, keys, starts, work)]
    finally:
        rng._tail_words = tails
    assert sum(tied) >= 1  # the pair ties at both points: the tie rule ran
    assert len(got) == len(grid)
    cold = {}
    for p, sizes in zip(grid, got):
        if p not in cold:
            cold[p] = _block_cluster_sizes(g, p, seed, lo, lo + width)
        np.testing.assert_array_equal(sizes, cold[p])


@functools.lru_cache(maxsize=None)
def _point_estimate(name, p, reps, seed):
    return estimate_moments(generate_builtin(name), p, reps, seed)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", ["dodecahedron", "complete(8)", "hypercube(4)"])
def test_long_sweeps_run_in_windows(name, workers, monkeypatch):
    # 300 points: three windows of the grid kernel per span, each span
    # mixing its flag words once per window; the row at p is still
    # estimate_moments at p (at any worker count, which moves no bit)
    g = generate_builtin(name)
    windows = []
    edge_grid = montecarlo._edge_grid
    monkeypatch.setattr(montecarlo, "_edge_grid",
                        lambda keys, n, grid, *args: windows.append(len(grid))
                        or edge_grid(keys, n, grid, *args))
    grid = [i / 299 for i in range(300)]
    reps, seed = 2 * 8192 + 100, 4
    result = sweep(g, grid, reps, seed, workers=workers)
    spans = len(list(montecarlo._spans(g, reps, workers)))
    assert spans == 1 if workers == 1 else spans > 1
    assert sorted(windows) == sorted([127, 127, 46] * spans)
    for row in result.rows:
        assert row.estimate == _point_estimate(name, row.p, reps, seed), row.p


def test_sweep_moments_never_decrease_along_the_grid(cube):
    # one realization per replicate for the whole grid, each edge monotone
    # in p: every cluster, so every sum of sizes, only grows
    result = sweep(cube, [i / 100 for i in range(101)], 64, seed=3)
    moments = [(row.estimate.mean_s, row.estimate.mean_s2) for row in result.rows]
    for before, after in zip(moments, moments[1:]):
        assert after[0] >= before[0] and after[1] >= before[1]


def test_a_sweep_mixes_each_span_once(monkeypatch):
    g = generate_builtin("dodecahedron")
    grid = [i / 40 for i in range(41)]
    reps = 3000  # one span
    keyed, gridded, drawn, mixed = [], [], [], []

    def spy(name, into, size):
        original = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name,
                            lambda *args: into.append(size(*args)) or original(*args))

    spy("_stream_keys", keyed, lambda seed, first, n, *rest: n)
    spy("_edge_grid", gridded, lambda keys, *rest: keys.size)
    spy("_edge_flags", drawn, lambda keys, *rest: keys.size)
    mix = rng._mix64_inplace
    monkeypatch.setattr(rng, "_mix64_inplace", lambda z, tmp: mixed.append(z.size) or mix(z, tmp))
    result = sweep(g, grid, reps, seed=5)
    assert keyed == [reps] and gridded == [reps] and drawn == []
    # keys, start words and flag words, each once; besides them only the
    # tail words of tied lanes, about 2^-16 of the lanes per point
    words = (2 + -(-g.n_edges // 4)) * reps
    assert words <= sum(mixed) < words + 100
    assert len(result.rows) == 41


# ---------------------------------------------------------------- span schedule
# A span is the replicates of one draw and one fixpoint: as many as the
# byte budget allows, and at least one span per worker where there are
# replicates enough.  Neither the budget nor the worker count may move a bit.


@pytest.mark.parametrize("name", ["dodecahedron", "random(80,3,4)", "random(660,3,1)"])
@pytest.mark.parametrize("reps", [2, 41, 8192 + 1, 2 * 8192 + 100])
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
    column = 2 * g.n_edges + g.n_vertices + 8 * montecarlo._COLUMN_WORDS
    # spans of 1 and 3 replicates take 1-6 s a call at 8193 replicates
    spans = (1, 3, 200) if reps < 100 else (200,)
    for budget in [span * column for span in spans] + [montecarlo._SPAN_BYTES, 1 << 40]:
        monkeypatch.setattr(montecarlo, "_SPAN_BYTES", budget)
        for workers in (1, 2, 3):
            widths.clear()
            got = estimate_moments(g, 0.45, reps, seed=9, workers=workers)
            assert repr(got) == reference, (budget, workers)
            step = montecarlo._span_step(g, reps, workers)
            if sparse:  # draws only for the dense phase, at most one per span
                assert sum(widths) < reps or reps == 2
                assert max(widths, default=0) <= step
                continue
            # one draw per span, the last span the remainder
            full, rest = divmod(reps, step)
            assert sorted(widths, reverse=True) == [step] * full + [rest] * (rest > 0)
            # a span per worker, unless that narrows spans below the floor
            floor = montecarlo._SCRATCH_BYTES // column
            assert len(widths) >= min(workers, reps // floor) or step == montecarlo._span_width(g)


def test_spans_are_streamed_and_cover_the_run(k3):
    # 2^30 replicates: spans come one at a time, never as a list of all
    spans = montecarlo._spans(k3, montecarlo.MAX_REPLICATES, montecarlo.MAX_WORKERS)
    assert not isinstance(spans, (list, tuple))
    (lo, hi), (lo2, _) = next(spans), next(spans)
    assert lo == 0 and hi == lo2 and hi <= montecarlo._span_width(k3)
    for name in ("random(1000,3,1)", "dodecahedron"):
        g = _graph(name)
        width = montecarlo._span_width(g)
        floor = montecarlo._SCRATCH_BYTES // montecarlo._column_bytes(g)
        assert 0 < floor < width  # 258 of 8256 columns, 7281 of 233 016
        for reps in (2, 3, 41, 8192, 8257, 40_000, 10**6):
            for workers in (1, 2, 3, 64):
                bounds = list(montecarlo._spans(g, reps, workers))
                assert bounds[0][0] == 0 and bounds[-1][1] == reps
                assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
                widths = [hi - lo for lo, hi in bounds]
                assert all(0 < w <= width for w in widths)
                # all as wide as the first but the last, and no span is cut
                # below the floor for workers: a run narrower than it is one span
                assert set(widths[:-1]) <= {widths[0]} and widths[-1] <= widths[0]
                assert len(bounds) == 1 or widths[0] >= floor
                # a span per worker where the floor leaves replicates enough
                assert len(bounds) >= min(workers, reps // floor)
                if workers == 1:
                    assert widths[0] == min(reps, width)


@pytest.mark.parametrize("reps, threads", [(2000, None), (7281, None), (3 * 7281, 3),
                                           (40_000, 6)])
def test_the_pool_has_no_more_threads_than_spans(reps, threads, monkeypatch):
    # the dodecahedron's floor is 7281 replicates: a short run is one span,
    # run in the calling thread, and a longer one gets a thread per span
    g = generate_builtin("dodecahedron")
    pools = []
    executor = montecarlo.ThreadPoolExecutor

    def spy(max_workers):
        pools.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", spy)
    got = estimate_moments(g, 0.35, reps, 1, workers=64)
    assert pools == ([] if threads is None else [threads])
    assert got == estimate_moments(g, 0.35, reps, 1)


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
    first = estimate_moments(g, 0.6, 2 * 8192, 3, workers=workers)
    assert estimate_moments(g, 0.6, 2 * 8192, 3, workers=workers) == first
    assert 1 <= len(made) <= workers
    count = len(made)
    kept = [(work, dict(work._buffers)) for work in montecarlo._FREE]
    assert estimate_moments(g, 0.6, 2 * 8192, 3, workers=workers) == first
    assert len(made) == count
    if workers == 1:  # the same spans again: not a buffer grows
        assert [(work, dict(work._buffers)) for work in montecarlo._FREE] == kept


def test_threads_never_share_a_workspace(monkeypatch):
    # more threads than cores, switching often: a workspace handed to two
    # spans at once would mix their buffers and move a result
    g = _graph("random(200,3,1)")
    serial = estimate_moments(g, 0.5, 8 * 8192, seed=4)
    monkeypatch.setattr(montecarlo, "_FREE", [])
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert estimate_moments(g, 0.5, 8 * 8192, seed=4, workers=8) == serial
    finally:
        sys.setswitchinterval(saved)
    idle = montecarlo._FREE
    assert 0 < len(idle) == len({id(work) for work in idle}) <= 8


def test_idle_workspaces_stay_within_their_bound(monkeypatch):
    g = _random_graph(1000, 3, 1)
    for bound in (montecarlo._KEEP_BYTES, 6 * 2**20):  # room for all four, then for one
        monkeypatch.setattr(montecarlo, "_KEEP_BYTES", bound)
        monkeypatch.setattr(montecarlo, "_FREE", [])
        estimate_moments(g, 0.6, 4 * 8192, 3, workers=4)
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
