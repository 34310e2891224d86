import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from percmoments import montecarlo
from percmoments.montecarlo import _BLOCK, _block_cluster_sizes


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


def test_sweep_oracle_columns(tetrahedron):
    with_oracle = sweep(tetrahedron, [0.3, 0.5], 20000, seed=0, include_oracle=True)
    for row in with_oracle.rows:
        assert row.exact is not None
        assert abs(row.estimate.mean_s - row.exact.first) < 4 * row.estimate.se_s
        assert row.combined.first <= min(row.branching.first, row.isolation.first)
    without = sweep(tetrahedron, [0.3], 2000, seed=0)
    assert without.rows[0].exact is None


def test_sweep_respects_edge_cap(dodecahedron):
    with pytest.raises(TooManyEdgesError):
        sweep(dodecahedron, [0.5], 100, seed=0, include_oracle=True)
    # cap override mirrors the library-level one
    result = sweep(dodecahedron, [0.0], 100, seed=0, include_oracle=False)
    assert result.rows[0].estimate.mean_s == 1.0


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


def test_non_integer_oracle_cap_is_refused_before_work(k3, monkeypatch):
    monkeypatch.setattr(montecarlo, "_edge_plan", _no_work)
    with pytest.raises(BadParameterError, match="max_edges"):
        sweep(k3, [0.5], 100, seed=0, include_oracle=True, max_oracle_edges="5")


def test_oversized_worker_counts_are_refused_before_a_pool(k3, monkeypatch):
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _no_work)
    monkeypatch.setattr(montecarlo, "_edge_plan", _no_work)
    monkeypatch.setattr(montecarlo, "moment_polynomial", _no_work)
    for workers in (montecarlo.MAX_WORKERS + 1, 10**9):
        with pytest.raises(BadParameterError, match="workers"):
            estimate_moments(k3, 0.5, 100, seed=0, workers=workers)
        with pytest.raises(BadParameterError, match="workers"):
            sweep(k3, [0.5], 100, seed=0, include_oracle=True, workers=workers)


# Seeded results pinned to the values the uniform-matrix kernel produced, so
# that a change of RNG layout or kernel cannot move a single bit unnoticed.
GOLDEN_ESTIMATES = [
    ("dodecahedron", 0.35, 2 * _BLOCK + 100, 3,
     (3.9582018927444795, 0.026477270247844256, 27.22270080077651, 0.36460291024640246)),
    ("random(60,3,5)", 0.5, 5000, 11,
     (13.5494, 0.1831556199635295, 351.2826, 7.7944529177297195)),
]
GOLDEN_SWEEP = [  # icosahedron, 10000 replicates, seed 7
    (0.1, 9672475392221035855, (1.7735, 0.012152964430724113, 4.6221, 0.07781333208689271)),
    (0.3, 5573481420429128725, (6.2476, 0.03805067948698081, 53.5096, 0.4862981794906676)),
    (0.5, 17358316652931856208, (10.8962, 0.024703513563018437, 124.8292, 0.3641701041031131)),
]


def _values(est):
    return (est.mean_s, est.se_s, est.mean_s2, est.se_s2)


@pytest.mark.parametrize("name,p,reps,seed,expected", GOLDEN_ESTIMATES)
def test_estimates_match_pinned_values(name, p, reps, seed, expected):
    g = generate_random_regular(60, 3, 5) if name.startswith("random") else generate_builtin(name)
    assert _values(estimate_moments(g, p, reps, seed)) == expected


def test_sweep_matches_pinned_values():
    result = sweep(generate_builtin("icosahedron"), [0.5, 0.1, 0.3], 10000, seed=7)
    got = [(row.p, row.estimate.seed, _values(row.estimate)) for row in result.rows]
    assert got == GOLDEN_SWEEP


# ---------------------------------------------------------------- block kernel
# Graphs of 100 edges or more drop converged columns (compaction); smaller
# ones do not.


@functools.lru_cache(maxsize=None)
def _random_graph(n, d, graph_seed):
    return generate_random_regular(n, d, graph_seed)


@pytest.mark.parametrize("name", ["tetrahedron", "icosahedron", "hypercube(5)", "random(200,3,1)",
                                  "random(60,6,2)"])
def test_edge_plan_classes_are_matchings(name):
    if name.startswith("random("):
        g = _random_graph(*map(int, name[len("random("):-1].split(",")))
    else:
        g = generate_builtin(name)
    plan = montecarlo._edge_plan(g)
    assert sorted(plan.order.tolist()) == list(range(g.n_edges))
    edges = g.edge_array()
    np.testing.assert_array_equal(plan.heads, edges[plan.order, 0])
    np.testing.assert_array_equal(plan.tails, edges[plan.order, 1])
    assert len(plan.classes) <= 2 * g.degree - 1
    assert plan.classes[0][0] == 0 and plan.classes[-1][1] == g.n_edges
    for (_, stop), (start, _) in zip(plan.classes, plan.classes[1:]):
        assert stop == start
    for start, stop in plan.classes:
        ends = np.concatenate([plan.heads[start:stop], plan.tails[start:stop]])
        assert len(set(ends.tolist())) == 2 * (stop - start)


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


def test_compaction_engages_and_keeps_sizes(monkeypatch):
    g = _random_graph(200, 3, 0)
    assert g.n_edges >= montecarlo._COMPACT_MIN_EDGES
    calls = []
    drop = montecarlo._drop_columns

    def spy(matrix, keep):
        calls.append(matrix.shape)
        return drop(matrix, keep)

    monkeypatch.setattr(montecarlo, "_drop_columns", spy)
    p, seed, width = 0.5, 4, 300
    sizes = _block_cluster_sizes(g, p, seed, 0, width)
    assert len(calls) >= 4  # two matrices per compaction
    for r in range(0, width, 7):
        x, cfg = replicate_realization(g, p, seed, r)
        assert cluster_of(g, cfg, x).size == sizes[r]


@pytest.mark.parametrize("piece_bytes", [1, 24, 1 << 18])
def test_drop_columns_in_place(monkeypatch, piece_bytes):
    monkeypatch.setattr(montecarlo, "_PIECE_BYTES", piece_bytes)
    rng = np.random.default_rng(3)
    matrix = rng.random((37, 23)) < 0.5
    keep = rng.random(23) < 0.4
    expected = matrix[:, keep]
    out = montecarlo._drop_columns(matrix, keep)
    np.testing.assert_array_equal(out, expected)
    assert out.flags.c_contiguous and np.shares_memory(out, matrix)


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_count_never_changes_compacted_results(workers):
    g = _random_graph(200, 3, 1)
    assert g.n_edges >= montecarlo._COMPACT_MIN_EDGES
    reps = 2 * _BLOCK + 100
    serial = estimate_moments(g, 0.5, reps, seed=5, workers=1)
    assert estimate_moments(g, 0.5, reps, seed=5, workers=workers) == serial


@pytest.mark.parametrize("name", ["octahedron", "dodecahedron", "icosahedron"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("lo, hi", [(0, _BLOCK), (4 * _BLOCK, 40_000)])
def test_packed_full_blocks_match_per_replicate_clusters(name, p, lo, hi):
    # full-width blocks of a 40 000-replicate run: 8192 columns, then the last 7232
    g = generate_builtin(name)
    assert g.n_edges < montecarlo._COMPACT_MIN_EDGES  # the bit-packed fixpoint
    sizes = _block_cluster_sizes(g, p, 11, lo, hi)
    starts, open_edges = montecarlo._block_draws(g, None, p, 11, lo, hi)
    expected = [
        cluster_of(g, EdgeConfig(tuple(open_edges[:, r].tolist()), p), int(x)).size
        for r, x in enumerate(starts)
    ]
    np.testing.assert_array_equal(sizes, expected)


# ---------------------------------------------------------------- span schedule
# A span is the replicates of one draw and one fixpoint: whole merge blocks
# as the byte budget allows, or a sub-span of one block when a block does
# not fit.  Neither the budget nor the worker count may move a bit.


@pytest.mark.parametrize("name", ["dodecahedron", "random(80,3,4)"])
@pytest.mark.parametrize("reps", [2, _BLOCK + 1, 2 * _BLOCK + 100])
def test_span_budget_and_workers_never_change_results(name, reps, monkeypatch):
    if name.startswith("random("):
        g = _random_graph(80, 3, 4)
        assert g.n_edges >= montecarlo._COMPACT_MIN_EDGES  # compaction
    else:
        g = generate_builtin(name)
        assert g.n_edges < montecarlo._COMPACT_MIN_EDGES  # packed columns
    widths = []
    draws = montecarlo._block_draws

    def spy(graph, order, p, seed, lo, hi, packed=False):
        widths.append(hi - lo)
        return draws(graph, order, p, seed, lo, hi, packed)

    monkeypatch.setattr(montecarlo, "_block_draws", spy)
    reference = repr(estimate_moments(g, 0.45, reps, seed=9))
    blocks = -(-reps // _BLOCK)
    column = g.n_edges + g.n_vertices + 8 * montecarlo._COLUMN_WORDS
    tiny = 200 * column  # 200-replicate sub-spans: no |E| x 8192 matrix
    for budget in (tiny, montecarlo._SPAN_BYTES, 1 << 40):
        monkeypatch.setattr(montecarlo, "_SPAN_BYTES", budget)
        for workers in (1, 2, 3):
            widths.clear()
            got = estimate_moments(g, 0.45, reps, seed=9, workers=workers)
            assert repr(got) == reference, (budget, workers)
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
