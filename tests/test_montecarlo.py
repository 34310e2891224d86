import numpy as np
import pytest

from percmoments import (
    BadParameterError,
    TooManyEdgesError,
    cluster_of,
    estimate_moments,
    exact_moments,
    generate_builtin,
    generate_random_regular,
    replicate_realization,
    sweep,
)
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
