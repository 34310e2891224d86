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
    counts = _birth_counts(g, p, seed, reps)
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
    draws = coupling._block_draws

    def spy(graph, order, p, seed, lo, hi):
        widths.append(hi - lo)
        return draws(graph, order, p, seed, lo, hi)

    monkeypatch.setattr(coupling, "_block_draws", spy)
    reference = _birth_counts(g, p, seed, reps)
    assert widths == [_BLOCK, 50]  # the default budget keeps full blocks here
    widths.clear()
    column = g.n_edges + g.n_vertices + 8 * montecarlo._COLUMN_WORDS
    monkeypatch.setattr(montecarlo, "_SPAN_BYTES", 203 * column)
    np.testing.assert_array_equal(_birth_counts(g, p, seed, reps), reference)
    assert max(widths) == 203 and sum(widths) == reps


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
