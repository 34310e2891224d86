import math

import numpy as np
import pytest

from percmoments import (
    BadParameterError,
    BoundParams,
    MomentPair,
    best_bounds,
    branching_bounds,
    branching_total_first_moment,
    branching_total_second_moment,
    isolation_bounds,
)
from percmoments.bounds import NU_WINDOW, _variance_kernel


def variance_term_expanded(degree, p, horizon):
    """Variance of the branching total before algebraic collapse.

    Splits the variance into the generation-variance diagonal and the
    cross-generation covariance sum, each kept in raw form.  Not patched at
    nu = 1; a reference for the collapsed kernel away from that point.
    """
    nu = (degree - 1) * p
    r = horizon
    g = (1.0 - nu**r) / (1.0 - nu)
    diag = degree * p * (1.0 - p) * g * g
    if nu == 0.0:
        return diag
    inner = (1.0 - nu ** (2 * r - 1)) / (1.0 - nu) - (2 * r - 1) * nu ** (r - 1)
    cross = degree * p * nu * (1.0 - p) / (1.0 - nu) ** 2 * inner
    return diag + cross


# hand-enumerated branching totals, frozen:
#   D=2, p=1/2, R=2: totals over (X1, X2) lattice -> E = 5/2, E^2 = 61/8
#   D=3, p=1/2, R=1: total = 1 + Binomial(3, 1/2) -> second moment 7
#   D=3, p=1/10, R=3: E = 1.372, second = 2.386096 (exact decimal)
FROZEN = [
    (2, 0.5, 2, 2.5, 7.625),
    (3, 0.5, 1, 2.5, 7.0),
    (3, 0.1, 3, 1.372, 2.386096),
]


@pytest.mark.parametrize("d,p,r,first,second", FROZEN)
def test_branching_totals_frozen_values(d, p, r, first, second):
    assert branching_total_first_moment(d, p, r) == pytest.approx(first, abs=1e-12)
    assert branching_total_second_moment(d, p, r) == pytest.approx(second, abs=1e-12)


def test_k2_all_formulas_collapse_to_exact():
    params_grid = [i / 10 for i in range(11)]
    for p in params_grid:
        params = BoundParams(degree=1, n_vertices=2, p=p)
        for pair in (branching_bounds(params), isolation_bounds(params)):
            assert pair.first == pytest.approx(1 + p, abs=1e-12)
            assert pair.second == pytest.approx(1 + 3 * p, abs=1e-12)


def test_isolation_hand_values():
    pair = isolation_bounds(BoundParams(degree=3, n_vertices=4, p=0.5))
    assert pair.first == pytest.approx(3.625, abs=1e-12)
    assert pair.second == pytest.approx(13.5625, abs=1e-12)
    assert pair.kind == "isolation"


def test_families_coincide_on_ring3_half():
    params = BoundParams(degree=2, n_vertices=3, p=0.5)
    assert branching_bounds(params).first == pytest.approx(2.5, abs=1e-12)
    assert isolation_bounds(params).first == pytest.approx(2.5, abs=1e-12)
    assert best_bounds(params).first == pytest.approx(2.5, abs=1e-12)


def test_best_is_componentwise_min():
    rng = np.random.default_rng(0)
    for _ in range(100):
        params = BoundParams(
            degree=int(rng.integers(1, 6)),
            n_vertices=int(rng.integers(2, 30)),
            p=float(rng.uniform(0, 1)),
        )
        a, b, c = branching_bounds(params), isolation_bounds(params), best_bounds(params)
        assert c.first == min(a.first, b.first)
        assert c.second == min(a.second, b.second)
        assert c.kind == "combined"


def test_endpoints():
    p0 = best_bounds(BoundParams(degree=3, n_vertices=4, p=0.0))
    assert (p0.first, p0.second) == (1.0, 1.0)
    p1 = best_bounds(BoundParams(degree=3, n_vertices=4, p=1.0))
    assert (p1.first, p1.second) == (4.0, 16.0)


def test_singular_window_uses_exact_limits():
    # D=3, p=0.5 gives nu = 1 exactly
    r = 7
    assert branching_total_first_moment(3, 0.5, r) == 1 + 1.5 * r
    mean = 1 + 1.5 * r
    kernel = r * (r + 1) * (2 * r + 1) / 6
    assert branching_total_second_moment(3, 0.5, r) == mean**2 + 0.75 * kernel
    # points inside the window land on the same limit values
    assert _variance_kernel(1 + 1e-10, r) == kernel
    assert _variance_kernel(1 - 1e-10, r) == kernel
    assert NU_WINDOW == 1e-9


def test_formula_is_continuous_across_window():
    for n in (4, 8, 20):
        r = n - 1
        for eps in (1e-6, -1e-6):
            p = (1.0 + eps) / 2.0
            a1 = branching_total_first_moment(3, p, r)
            b1 = branching_total_first_moment(3, 0.5, r)
            assert abs(a1 - b1) / b1 < 1e-4
            a2 = branching_total_second_moment(3, p, r)
            b2 = branching_total_second_moment(3, 0.5, r)
            assert abs(a2 - b2) / b2 < 1e-4


def test_collapsed_variance_matches_expanded_form():
    # the two printed forms of the variance term agree away from nu = 1,
    # where both lose digits to cancellation (hence the window)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 500:
        d = int(rng.integers(1, 8))
        p = float(rng.uniform(0, 1))
        r = int(rng.integers(1, 31))
        if abs(1 - (d - 1) * p) < 0.05:
            continue
        checked += 1
        collapsed = d * p * (1 - p) * _variance_kernel((d - 1) * p, r)
        expanded = variance_term_expanded(d, p, r)
        scale = max(abs(collapsed), abs(expanded))
        if scale == 0:
            assert collapsed == expanded
        else:
            assert abs(collapsed - expanded) / scale < 1e-12


def test_supercritical_evaluation_is_direct():
    # nu > 1: closed form equals the explicit geometric sum
    d, p, r = 5, 0.9, 10
    nu = (d - 1) * p
    expected = 1 + d * p * math.fsum(nu**j for j in range(r))
    assert branching_total_first_moment(d, p, r) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d,n", [(3, 4), (3, 8), (4, 6), (5, 12), (2, 9)])
def test_first_moment_bounds_are_monotone_in_p(d, n):
    grid = np.linspace(0, 1, 101)
    for fn in (branching_bounds, isolation_bounds):
        values = [fn(BoundParams(degree=d, n_vertices=n, p=float(p))).first for p in grid]
        assert all(b - a > -1e-12 for a, b in zip(values, values[1:]))


def test_second_at_least_first_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(200):
        params = BoundParams(
            degree=int(rng.integers(1, 7)),
            n_vertices=int(rng.integers(2, 40)),
            p=float(rng.uniform(0, 1)),
        )
        for pair in (branching_bounds(params), isolation_bounds(params), best_bounds(params)):
            assert pair.second >= pair.first - 1e-9 * (1 + abs(pair.second))


def test_moment_pair_validation():
    with pytest.raises(BadParameterError):
        MomentPair(first=2.0, second=5.0, kind="guess")
    with pytest.raises(BadParameterError):
        MomentPair(first=0.5, second=5.0, kind="exact")
    with pytest.raises(BadParameterError):
        MomentPair(first=3.0, second=2.0, kind="exact")


def test_bound_params_validation():
    with pytest.raises(BadParameterError):
        BoundParams(degree=0, n_vertices=4, p=0.5)
    with pytest.raises(BadParameterError):
        BoundParams(degree=3, n_vertices=1, p=0.5)
    with pytest.raises(BadParameterError):
        BoundParams(degree=3, n_vertices=4, p=1.5)
    params = BoundParams(degree=3, n_vertices=20, p=0.25)
    assert params.nu == 0.5
    assert params.q == 0.75
    assert params.horizon == 19


def test_overflowing_branching_terms_are_infinite():
    # hypercube(10) at p = 1/2: nu = 4.5, nu^1023 is past the double range
    params = BoundParams(degree=10, n_vertices=1024, p=0.5)
    assert branching_total_first_moment(10, 0.5, params.horizon) == math.inf
    assert branching_total_second_moment(10, 0.5, params.horizon) == math.inf
    assert _variance_kernel(params.nu, params.horizon) == math.inf
    best = best_bounds(params)
    iso = isolation_bounds(params)
    assert (best.first, best.second) == (iso.first, iso.second)
    assert math.isfinite(best.first) and math.isfinite(best.second)


def test_overflow_at_p_one_is_inf_not_nan():
    # at p = 1 the variance factor p(1-p) is 0 and must not meet an inf kernel
    pair = branching_bounds(BoundParams(degree=10, n_vertices=1024, p=1.0))
    assert pair.first == math.inf and pair.second == math.inf


def test_finite_first_moment_with_overflowing_square():
    # nu = 2, horizon 665: E(total) ~ 3e200 is finite, its square is not
    first = branching_total_first_moment(5, 0.5, 665)
    assert math.isfinite(first) and first > 1e200
    assert branching_total_second_moment(5, 0.5, 665) == math.inf
