import tracemalloc

import numpy as np
import pytest

from conftest import generator_config, open_distances
from percmoments import (
    BadIndexError,
    BadParameterError,
    cluster_of,
    dominance_report,
    generate_builtin,
    replicate_realization,
    run_birth_process,
)
from percmoments import coupling, montecarlo
from percmoments.coupling import _birth_counts, branching_generation_samples
from percmoments.montecarlo import _BLOCK


def birth_matrix(graph, p, seed, replicates):
    """The (vertices x replicates) generation counts that ``_birth_counts`` streams."""
    counts = np.zeros((graph.n_vertices, replicates), dtype=np.int64)
    counts[0] = 1
    for gen, lo, sizes in _birth_counts(graph, p, seed, replicates):
        counts[gen, lo : lo + sizes.size] = sizes
    return counts


def full_array_branching(degree, p, horizon, replicates, rng):
    """Branching runs drawn as one matrix, with every run handed to each binomial call."""
    out = np.zeros((replicates, horizon + 1), dtype=np.int64)
    out[:, 0] = 1
    out[:, 1] = rng.binomial(degree, p, size=replicates)
    for n in range(2, horizon + 1):
        out[:, n] = rng.binomial(out[:, n - 1] * (degree - 1), p)
    return out


def matrix_tails(values, k_max, replicates):
    hist = np.bincount(np.minimum(values, k_max), minlength=k_max + 1)
    above = np.cumsum(hist[::-1])[::-1]
    tail = above[1:] / replicates
    return tail, np.sqrt(tail * (1.0 - tail) / replicates)


def matrix_dominance_rows(graph, p, replicates, seed):
    """Dominance rows from both ensembles held whole, one generation column at a time."""
    horizon = graph.n_vertices - 1
    birth = birth_matrix(graph, p, seed, replicates)
    branching = full_array_branching(
        graph.degree, p, horizon, replicates, np.random.default_rng(seed))
    rows = []
    for gen in range(horizon + 1):
        y, xg = birth[gen], branching[:, gen]
        k_max = max(1, int(y.max()), int(xg.max()))
        rows += rows_one_by_one(gen, matrix_tails(y, k_max, replicates),
                                matrix_tails(xg, k_max, replicates))
    return tuple(rows)


def rows_one_by_one(gen, birth, branching):
    """The rows of one generation from its (tail, se) arrays, a row and five floats at a time."""
    (y_tail, y_se), (x_tail, x_se) = birth, branching
    rows = []
    for k in range(1, y_tail.size + 1):
        se_diff = float(np.hypot(y_se[k - 1], x_se[k - 1]))
        rows.append(coupling.TailRow(
            generation=gen, k=k, birth_tail=float(y_tail[k - 1]),
            branching_tail=float(x_tail[k - 1]), birth_se=float(y_se[k - 1]),
            branching_se=float(x_se[k - 1]),
            within_tolerance=bool(y_tail[k - 1] <= x_tail[k - 1] + 3.0 * se_diff)))
    return rows


def test_trace_shape_and_padding(tetrahedron):
    cfg = generator_config(tetrahedron, 0.0, np.random.default_rng(0))
    tr = run_birth_process(tetrahedron, cfg, 2)
    assert tr.start_vertex == 2
    assert tr.counts == (1, 0, 0, 0)
    assert tr.layers == ((2,), (), (), ())
    assert tr.total == 1


def test_full_open_layers_are_bfs_layers(cube):
    cfg = generator_config(cube, 1.0, np.random.default_rng(0))
    tr = run_birth_process(cube, cfg, 0)
    assert tr.counts == (1, 3, 3, 1, 0, 0, 0, 0)
    assert tr.total == 8


def test_total_equals_cluster_size_and_layers_match_distances():
    rng = np.random.default_rng(11)
    for name in ("complete(3)", "tetrahedron", "cube", "octahedron", "dodecahedron"):
        g = generate_builtin(name)
        for _ in range(200):
            p = float(rng.uniform(0, 1))
            cfg = generator_config(g, p, rng)
            x = int(rng.integers(g.n_vertices))
            tr = run_birth_process(g, cfg, x)
            cl = cluster_of(g, cfg, x)
            assert tr.total == cl.size
            dist = open_distances(g, cfg, x)
            for n, layer in enumerate(tr.layers):
                assert all(dist[v] == n for v in layer)
            assert set(v for layer in tr.layers for v in layer) == cl.members


def test_offspring_counts_are_consistent(octahedron):
    rng = np.random.default_rng(2)
    for _ in range(50):
        cfg = generator_config(octahedron, 0.5, rng)
        tr = run_birth_process(octahedron, cfg, 0)
        for n in range(octahedron.n_vertices - 1):
            assert len(tr.per_particle_offspring[n]) == tr.counts[n]
            assert sum(tr.per_particle_offspring[n]) == tr.counts[n + 1]


def one_branching_run(degree, p, horizon, rng):
    return tuple(int(v) for v in branching_generation_samples(degree, p, horizon, 1, rng)[0])


def test_branching_deterministic_cases():
    sizes = one_branching_run(3, 1.0, 4, np.random.default_rng(0))
    assert sizes == (1, 3, 6, 12, 24)
    assert sum(sizes) == 46
    sizes = one_branching_run(4, 0.0, 3, np.random.default_rng(0))
    assert sizes == (1, 0, 0, 0)
    # D = 1: no second-generation capacity
    sizes = one_branching_run(1, 0.9, 5, np.random.default_rng(0))
    assert sizes[2:] == (0, 0, 0, 0)
    assert sizes[1] in (0, 1)


def test_branching_trace_shape():
    mat = branching_generation_samples(3, 0.4, 9, 1, np.random.default_rng(5))
    assert mat.shape == (1, 10)
    assert mat[0, 0] == 1


def test_branching_args_validated():
    rng = np.random.default_rng(0)
    with pytest.raises(BadParameterError):
        branching_generation_samples(0, 0.5, 3, 1, rng)
    with pytest.raises(BadParameterError):
        branching_generation_samples(3, 0.5, 0, 1, rng)
    with pytest.raises(BadParameterError):
        branching_generation_samples(3, 1.5, 3, 1, rng)


@pytest.mark.parametrize(
    "degree, horizon, replicates",
    [(3, 4, "10"), (3, 4.5, 10), ("3", 4, 10), (3, 4, None), (3, 4, 10**13)],
    ids=["str reps", "float horizon", "str degree", "None reps", "over the cell cap"],
)
def test_branching_refuses_non_integers_and_oversized_runs(degree, horizon, replicates):
    # refused before the (replicates, horizon + 1) matrix is allocated
    with pytest.raises(BadParameterError):
        branching_generation_samples(degree, 0.3, horizon, replicates, np.random.default_rng(0))


@pytest.mark.parametrize("x", ["1", 1.5, None, -1, 4])
def test_birth_process_rejects_bad_vertex(tetrahedron, x):
    cfg = generator_config(tetrahedron, 0.5, np.random.default_rng(0))
    with pytest.raises(BadIndexError):
        run_birth_process(tetrahedron, cfg, x)


def test_vectorized_branching_matches_aggregated_law():
    # X_2 from the vectorized sampler vs an explicit per-individual loop
    d, p, reps = 3, 0.4, 20000
    mat = branching_generation_samples(d, p, 2, reps, np.random.default_rng(8))
    assert mat.shape == (reps, 3)
    assert (mat[:, 0] == 1).all()

    rng = np.random.default_rng(9)
    per_individual = np.zeros(reps, dtype=np.int64)
    for r in range(reps):
        x1 = rng.binomial(d, p)
        per_individual[r] = sum(rng.binomial(d - 1, p) for _ in range(x1))

    k_max = int(max(mat[:, 2].max(), per_individual.max()))
    for k in range(k_max + 1):
        fa = float((mat[:, 2] == k).mean())
        fb = float((per_individual == k).mean())
        se = np.sqrt((fa * (1 - fa) + fb * (1 - fb)) / reps) + 1e-12
        assert abs(fa - fb) < 5 * se


def test_dominance_report_structure(k3):
    rep = dominance_report(k3, 0.5, 4000, seed=0)
    assert rep.horizon == 2
    gens = {r.generation for r in rep.rows}
    assert gens == {0, 1, 2}
    gen0 = [r for r in rep.rows if r.generation == 0]
    assert len(gen0) == 1
    assert gen0[0].k == 1
    assert gen0[0].birth_tail == 1.0 and gen0[0].branching_tail == 1.0
    assert rep.violations() == ()


def test_dominance_report_is_seeded(tetrahedron):
    a = dominance_report(tetrahedron, 0.3, 2000, seed=4)
    b = dominance_report(tetrahedron, 0.3, 2000, seed=4)
    assert a.rows == b.rows


@pytest.mark.parametrize("name,p", [("dodecahedron", 0.45), ("octahedron", 0.3), ("cube", 1.0)])
def test_block_birth_counts_match_replayed_replicates(name, p):
    # replicates on both sides of the first block boundary, and the last one
    g = generate_builtin(name)
    seed, reps = 13, _BLOCK + 50
    counts = birth_matrix(g, p, seed, reps)
    assert counts.shape == (g.n_vertices, reps)
    for r in list(range(_BLOCK - 50, reps)) + [0, 1]:
        x, cfg = replicate_realization(g, p, seed, r)
        assert tuple(counts[:, r]) == run_birth_process(g, cfg, x).counts


@pytest.mark.parametrize("name,p", [("dodecahedron", 0.45), ("cube", 1.0)])
def test_birth_blocks_follow_the_span_budget(name, p, monkeypatch):
    # 203-replicate blocks under a small budget: not a multiple of 8, so the
    # packed frontier of each block ends in padding bits
    g = generate_builtin(name)
    seed, reps = 13, _BLOCK + 50
    widths = []
    draws = coupling._span_flags

    def spy(graph, order, p, keys, work):
        widths.append(keys.size)
        return draws(graph, order, p, keys, work)

    monkeypatch.setattr(coupling, "_span_flags", spy)
    reference = birth_matrix(g, p, seed, reps)
    assert widths == [reps]  # the default budgets take the whole run in one block here
    widths.clear()
    column = g.n_edges + g.n_vertices + 8 * montecarlo._COLUMN_WORDS
    monkeypatch.setattr(montecarlo, "_SPAN_BYTES", 203 * column)
    np.testing.assert_array_equal(birth_matrix(g, p, seed, reps), reference)
    assert max(widths) == 203 and sum(widths) == reps


def test_birth_block_width_is_the_tighter_budget():
    words = coupling._BIRTH_BYTES // (8 * coupling._BIRTH_WORDS)
    assert coupling._birth_width(generate_builtin("dodecahedron")) == words == 32768
    big = generate_builtin("hypercube(10)")  # 1024 vertices, 5120 edges
    assert coupling._birth_width(big) == montecarlo._span_width(big) < words


@pytest.mark.parametrize("name,p", [("dodecahedron", 0.45), ("icosahedron", 0.3)])
def test_dominance_rows_do_not_depend_on_the_birth_block_width(name, p, monkeypatch):
    g = generate_builtin(name)
    reps, seed = _BLOCK + 808, 21
    widths = []
    draws = coupling._span_flags

    def spy(graph, order, p, keys, work):
        widths.append(keys.size)
        return draws(graph, order, p, keys, work)

    monkeypatch.setattr(coupling, "_span_flags", spy)
    default = dominance_report(g, p, reps, seed).rows
    assert widths == [reps]
    for width, blocks in ((203, [203] * 44 + [68]), (_BLOCK, [_BLOCK, 808])):
        widths.clear()
        monkeypatch.setattr(coupling, "_birth_width", lambda graph: width)
        assert dominance_report(g, p, reps, seed).rows == default
        assert widths == blocks


@pytest.mark.parametrize("degree,p", [(3, 0.35), (5, 0.2), (4, 0.5), (2, 1.0)])
def test_live_branching_histograms_match_the_sample_columns(degree, p):
    horizon, reps, seed = 12, 5000, 8
    matrix = branching_generation_samples(degree, p, horizon, reps, np.random.default_rng(seed))
    gens = coupling._branching_generations(degree, p, horizon, reps, np.random.default_rng(seed))
    for n, (_, sizes) in enumerate(gens):
        carried = reps if n < 2 else np.count_nonzero(matrix[:, n - 1])
        assert sizes.size == carried  # the dead are not carried
        live = np.bincount(sizes, minlength=2)
        whole = np.bincount(matrix[:, n], minlength=live.size)
        np.testing.assert_array_equal(live[1:], whole[1 : live.size])
        assert whole.size == live.size
    assert n == horizon


def test_dominance_report_rejects_negative_seed(tetrahedron):
    with pytest.raises(BadParameterError):
        dominance_report(tetrahedron, 0.3, 100, seed=-1)


@pytest.mark.parametrize("replicates, seed", [("10", 0), (10.0, 0), (None, 0), (10, None)])
def test_dominance_report_rejects_non_integers(tetrahedron, monkeypatch, replicates, seed):
    def no_work(*args):
        raise AssertionError("sampling started before the arguments were refused")

    monkeypatch.setattr("percmoments.coupling._birth_counts", no_work)
    with pytest.raises(BadParameterError):
        dominance_report(tetrahedron, 0.3, replicates, seed)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
def test_branching_samples_match_the_full_array_loop(degree, p):
    # dead runs skip rng.binomial, which draws nothing for zero trials, so
    # every run draws what it drew when all runs were handed over
    for horizon, reps, seed in [(1, 50, 0), (2, 300, 1), (6, 1000, 2), (15, 4000, 3), (40, 700, 4)]:
        if p == 1.0 and degree > 3 and horizon > 15:
            continue  # 3^40 runs past 2^62
        got = branching_generation_samples(degree, p, horizon, reps, np.random.default_rng(seed))
        expected = full_array_branching(degree, p, horizon, reps, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("name,p", [("dodecahedron", 0.45), ("icosahedron", 0.3), ("cube", 1.0),
                                    ("complete(6)", 0.9), ("ring(30)", 0.9)])
@pytest.mark.parametrize("narrow", [False, True], ids=["default blocks", "203-replicate blocks"])
def test_streamed_report_matches_whole_matrices(name, p, narrow, monkeypatch):
    g = generate_builtin(name)
    reps, seed = _BLOCK + 50, 17
    expected = matrix_dominance_rows(g, p, reps, seed)
    if narrow:  # blocks end in padding bits of a packed byte
        column = g.n_edges + g.n_vertices + 8 * montecarlo._COLUMN_WORDS
        monkeypatch.setattr(montecarlo, "_SPAN_BYTES", 203 * column)
    assert dominance_report(g, p, reps, seed).rows == expected


@pytest.mark.parametrize("name,p", [("complete(6)", 0.9), ("ring(30)", 0.9),
                                    ("dodecahedron", 0.45)])
def test_rows_built_per_generation_match_the_per_row_loop(name, p, monkeypatch):
    # the rows of each generation come from whole columns; the same tails
    # turned into rows one at a time must give the same rows, bit for bit
    tails = []
    compute = coupling._tails

    def spy(hist, k_max, replicates):
        tails.append(compute(hist, k_max, replicates))
        return tails[-1]

    monkeypatch.setattr(coupling, "_tails", spy)
    report = dominance_report(generate_builtin(name), p, 3000, 5)
    expected = []
    for gen, (birth, branching) in enumerate(zip(tails[::2], tails[1::2])):
        expected += rows_one_by_one(gen, birth, branching)
    assert len(tails) == 2 * (report.horizon + 1)
    assert report.rows == tuple(expected)


def test_dominance_report_holds_no_replicate_matrix(dodecahedron):
    # the two int64 (20 x 60000) matrices it replaced took 9.6 MB each
    dominance_report(dodecahedron, 0.35, 1000, 1)
    tracemalloc.start()
    try:
        dominance_report(dodecahedron, 0.35, 60_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("name,p,reps", [("complete(9)", 0.9, 100), ("complete(20)", 1.0, 10)])
def test_oversized_tail_tables_are_refused_before_any_row(name, p, reps, monkeypatch):
    # complete(20) at p = 1: generation n of every run is 19 * 18^(n-1), so
    # a histogram of it would take that many slots; the generation that
    # breaks the cap is refused from its largest size, and never binned
    def no_rows(*fields, **named):
        raise AssertionError("a row was built for a table over the cap")

    slots = []
    bincount = np.bincount

    def spy(values, *args, **kwargs):
        out = bincount(values, *args, **kwargs)
        slots.append(out.size)
        return out

    monkeypatch.setattr(coupling, "TailRow", no_rows)
    monkeypatch.setattr(coupling.np, "bincount", spy)
    cap = f"exceeds {coupling.MAX_TAIL_ROWS} rows"
    with pytest.raises(BadParameterError, match=cap) as refusal:
        dominance_report(generate_builtin(name), p, reps, seed=0)
    top = int(str(refusal.value).rsplit(" ", 1)[1])
    assert max(slots) <= min(coupling.MAX_TAIL_ROWS + 1, top)


def test_tail_row_cap_counts_every_row(monkeypatch):
    # at the cap a report is whole; one row under it, the same run is refused
    g = generate_builtin("complete(4)")
    rows = len(dominance_report(g, 0.9, 500, seed=3).rows)
    monkeypatch.setattr(coupling, "MAX_TAIL_ROWS", rows)
    assert len(dominance_report(g, 0.9, 500, seed=3).rows) == rows
    monkeypatch.setattr(coupling, "MAX_TAIL_ROWS", rows - 1)
    with pytest.raises(BadParameterError):
        dominance_report(g, 0.9, 500, seed=3)
