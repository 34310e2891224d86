import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_exact_estimate
from percmoments import generate_builtin, generate_random_regular
from percmoments.montecarlo import _block_cluster_sizes
from percmoments.stats import RunningMoments


def _fields(acc):
    return (acc.count, acc.s1, acc.s2, acc.s4)


def _estimate(acc):
    return (acc.mean_s, acc.se_s, acc.mean_s2, acc.se_s2)


def _of(sizes):
    acc = RunningMoments()
    acc.add_batch(np.asarray(sizes, dtype=np.int64))
    return acc


def test_matches_numpy_on_one_batch():
    values = np.random.default_rng(0).integers(1, 500, size=1000)
    acc = _of(values)
    assert _fields(acc) == (1000, int(values.sum()), int((values**2).sum()),
                            int((values**4).sum()))
    assert_exact_estimate(acc, values)
    assert acc.se_s == pytest.approx(values.std(ddof=1) / np.sqrt(1000), rel=1e-12)


def test_merge_of_blocks_equals_single_pass():
    # the sums are integers, so blocks merged in any order give the same fields
    values = np.random.default_rng(1).integers(1, 60, size=4096)
    whole = _fields(_of(values))
    parts = [_of(chunk) for chunk in np.array_split(values, 5)]
    for order in itertools.permutations(parts):
        merged = RunningMoments()
        for part in order:
            merged.merge(part)
        assert _fields(merged) == whole


def test_merge_with_empty_is_identity():
    acc = _of([1, 2, 3])
    before = _fields(acc)
    acc.merge(RunningMoments())
    acc.add_batch(np.array([], dtype=np.int64))
    assert _fields(acc) == before


def test_degenerate_cases():
    assert RunningMoments().se_s == RunningMoments().se_s2 == 0.0
    one = _of([5])
    assert (one.mean_s, one.mean_s2, one.se_s, one.se_s2) == (5.0, 25.0, 0.0, 0.0)
    # equal sizes, as at p = 0 and p = 1: the exact variance is 0
    for size in (1, 20, 60000):
        same = _of([size] * 40_000)
        assert (same.mean_s, same.se_s, same.se_s2) == (size, 0.0, 0.0)


def test_shuffled_sizes_give_the_same_estimate():
    sizes = _block_cluster_sizes(generate_builtin("icosahedron"), 0.3, 7, 0, 20_000)
    shuffled = np.random.default_rng(2).permutation(sizes)
    assert not np.array_equal(shuffled, sizes)
    assert _estimate(_of(shuffled)) == _estimate(_of(sizes))


@functools.lru_cache(maxsize=None)
def _graph(name):
    if name == "random(200,3,1)":
        return generate_random_regular(200, 3, 1)
    return generate_builtin(name)


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron", "dodecahedron",
                                  "icosahedron", "random(200,3,1)"])
@pytest.mark.parametrize("p", [0.2, 0.45, 0.7])
def test_estimates_are_the_exact_rationals_rounded(name, p):
    sizes = _block_cluster_sizes(_graph(name), p, 5, 100, 10_100)
    assert_exact_estimate(_of(sizes), sizes)


def test_sums_past_int64_take_python_ints():
    # 60000^4 alone is past 2^63, so int64 dot products would wrap
    for sizes in ([60000] * 3, [1, 60000, 2, 2, 59999]):
        assert len(sizes) * max(sizes) ** 4 >= 1 << 63
        acc = _of(sizes)
        assert _fields(acc) == (len(sizes), sum(sizes), sum(s**2 for s in sizes),
                                sum(s**4 for s in sizes))
        assert_exact_estimate(acc, sizes)
    # just below the limit the int64 path runs, and agrees
    top = int((2**63 // 3) ** 0.25)
    assert 3 * top**4 < 1 << 63
    sizes = [top, top - 1, 7]
    assert _fields(_of(sizes)) == (3, sum(sizes), sum(s**2 for s in sizes),
                                   sum(s**4 for s in sizes))


@given(
    st.lists(st.integers(min_value=0, max_value=70_000), min_size=2, max_size=200),
    st.integers(min_value=1, max_value=10),
)
def test_split_merge_agrees_with_numpy(xs, cut):
    values = np.asarray(xs, dtype=np.int64)
    k = min(cut, len(values) - 1)
    left, right = _of(values[:k]), _of(values[k:])
    left.merge(right)
    assert _fields(left) == _fields(_of(values))
    assert_exact_estimate(left, xs)
    floats = values.astype(np.float64)
    assert left.mean_s == pytest.approx(floats.mean(), rel=1e-12)
    assert left.se_s == pytest.approx(floats.std(ddof=1) / np.sqrt(len(xs)), rel=1e-9, abs=1e-12)
