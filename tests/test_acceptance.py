"""Acceptance gate: the checks that define "working" for this package.

Each test prints one PASS/FAIL line (visible with ``pytest -s``; the test
node names carry the same verdict under plain ``pytest -v``) and enforces
the stated tolerance or runtime budget.
"""

import io
import sys
import time

import numpy as np

from conftest import generator_config
from percmoments import (
    BoundParams,
    branching_bounds,
    branching_total_first_moment,
    branching_total_second_moment,
    cluster_of,
    connectivity_moments,
    dominance_report,
    estimate_moments,
    exact_moments,
    generate_builtin,
    isolation_bounds,
    moment_polynomial,
    pair_connectivity,
    run_birth_process,
    sweep,
)
from percmoments.cli import execute, parse_args
from percmoments.coupling import branching_generation_samples


def report(number, ok, detail):
    line = f"CRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_k2_bounds_are_exact(k2):
    """Both bound families and the oracle coincide at (1+p, 1+3p) on K2."""
    worst = 0.0
    for i in range(11):
        p = i / 10
        params = BoundParams(degree=1, n_vertices=2, p=p)
        targets = (1 + p, 1 + 3 * p)
        for pair in (branching_bounds(params), isolation_bounds(params), exact_moments(k2, p)):
            worst = max(worst, abs(pair.first - targets[0]), abs(pair.second - targets[1]))
    report(1, worst <= 1e-12, f"K2 exact tightness, worst abs dev {worst:.2e}")


def test_criterion_02_k3_oracle_hand_check(k3):
    """Enumeration reproduces the 8-configuration hand computation."""
    direct = exact_moments(k3, 0.5)
    conn = connectivity_moments(k3, 0.5)
    pair_prob = pair_connectivity(k3, 0.5).pair_probs[0, 1]
    devs = [
        abs(direct.first - 2.25),
        abs(direct.second - 5.75),
        abs(conn.first - 2.25),
        abs(conn.second - 5.75),
        abs(pair_prob - 0.625),
    ]
    worst = max(devs)
    report(2, worst <= 1e-12, f"K3 oracle vs hand values, worst abs dev {worst:.2e}")


def test_criterion_03_bounds_dominate_exact_moments():
    """Exact moments never exceed either bound family on four small graphs."""
    start = time.time()
    worst_gap = -np.inf
    for name in ("complete(3)", "tetrahedron", "cube", "octahedron"):
        g = generate_builtin(name)
        poly = moment_polynomial(g)
        for i in range(101):
            p = i / 100
            exact = poly.evaluate(p)
            params = BoundParams(degree=g.degree, n_vertices=g.n_vertices, p=p)
            for bound in (branching_bounds(params), isolation_bounds(params)):
                worst_gap = max(
                    worst_gap, exact.first - bound.first, exact.second - bound.second
                )
    elapsed = time.time() - start
    ok = worst_gap <= 1e-9 and elapsed < 60
    report(3, ok, f"max (exact - bound) = {worst_gap:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_04_generation_counts_sum_to_cluster_size():
    """The layered growth process accounts for every cluster vertex."""
    rng = np.random.default_rng(2024)
    failures = 0
    total = 0
    for name in ("complete(3)", "tetrahedron", "cube", "octahedron", "dodecahedron"):
        g = generate_builtin(name)
        for _ in range(10_000):
            p = float(rng.uniform(0, 1))
            cfg = generator_config(g, p, rng)
            x = int(rng.integers(g.n_vertices))
            total += 1
            if run_birth_process(g, cfg, x).total != cluster_of(g, cfg, x).size:
                failures += 1
    report(4, failures == 0, f"{failures} mismatches in {total} realizations")


def test_criterion_05_branching_dominates_birth_tails(dodecahedron):
    """Branching generation tails dominate birth tails; generation 1 ties."""
    start = time.time()
    violations = 0
    gen1_disagreements = 0
    for p in (0.2, 0.35, 0.5):
        rep = dominance_report(dodecahedron, p, 100_000, seed=0)
        violations += len(rep.violations())
        for row in rep.rows:
            if row.generation == 1:
                se = np.hypot(row.birth_se, row.branching_se)
                if abs(row.birth_tail - row.branching_tail) > 3 * se:
                    gen1_disagreements += 1
    elapsed = time.time() - start
    ok = violations == 0 and gen1_disagreements == 0 and elapsed < 60
    report(
        5,
        ok,
        f"{violations} dominance violations, {gen1_disagreements} generation-1 "
        f"disagreements, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_simulation_respects_branching_bounds(dodecahedron):
    """Monte Carlo moments stay under the closed forms at horizon 19."""
    start = time.time()
    ok = True
    detail = []
    for p in (0.2, 0.35, 0.5):
        est = estimate_moments(dodecahedron, p, 100_000, seed=1)
        b1 = branching_total_first_moment(3, p, 19)
        b2 = branching_total_second_moment(3, p, 19)
        ok = ok and est.mean_s <= b1 + 3 * est.se_s and est.mean_s2 <= b2 + 3 * est.se_s2
        detail.append(f"p={p}: {est.mean_s:.3f}<={b1:.3f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    report(6, ok, "; ".join(detail) + f", {elapsed:.1f}s (< 30s)")


def test_criterion_07_closed_forms_match_branching_simulation():
    """Sampled branching totals agree with the closed-form moments."""
    start = time.time()
    d, p, r, reps = 3, 0.3, 19, 100_000
    mat = branching_generation_samples(d, p, r, reps, np.random.default_rng(5))
    totals = mat.sum(axis=1).astype(np.float64)
    first, second = branching_total_first_moment(d, p, r), branching_total_second_moment(d, p, r)
    se1 = totals.std(ddof=1) / np.sqrt(reps)
    sq = totals * totals
    se2 = sq.std(ddof=1) / np.sqrt(reps)
    z1 = abs(totals.mean() - first) / se1
    z2 = abs(sq.mean() - second) / se2
    elapsed = time.time() - start
    ok = z1 <= 3 and z2 <= 3 and elapsed < 30
    report(7, ok, f"|z| = ({z1:.2f}, {z2:.2f}) <= 3, {elapsed:.1f}s (< 30s)")


def test_criterion_08_formulas_continuous_at_singular_point():
    """Direct evaluation just outside nu = 1 matches the patched limit."""
    worst = 0.0
    for n in (4, 8, 20):
        r = n - 1
        lim1 = branching_total_first_moment(3, 0.5, r)
        lim2 = branching_total_second_moment(3, 0.5, r)
        for eps in (1e-6, -1e-6):
            p = (1.0 + eps) / 2.0
            worst = max(
                worst,
                abs(branching_total_first_moment(3, p, r) - lim1) / lim1,
                abs(branching_total_second_moment(3, p, r) - lim2) / lim2,
            )
    report(8, worst <= 1e-4, f"worst relative jump across nu=1: {worst:.2e}")


def test_criterion_09_full_sweep_reproduction():
    """Sweeps on three solids: domination, exact endpoints, and crossover.

    Near p = 1 every replicate can span the graph, so the sample standard
    error is exactly zero while the combined bound sits a few parts per
    million below the ceiling N. The plug-in CLT allowance carries no
    information there, so those cells are re-checked exactly: the oracle
    moment must respect the bound and the unresolved gap must stay within
    the rule-of-three rate 3/replicates for an event never observed.
    """
    start = time.time()
    grid = [i / 100 for i in range(101)]
    reps = 100_000
    ok_dom = True
    ok_ends = True
    crossover = False
    degenerate = 0
    for name in ("tetrahedron", "cube", "octahedron"):
        g = generate_builtin(name)
        result = sweep(g, grid, reps, seed=0, include_oracle=True)
        n = g.n_vertices
        for row in result.rows:
            est = row.estimate
            checks = (
                (est.mean_s, est.se_s, row.combined.first, row.exact.first, float(n)),
                (est.mean_s2, est.se_s2, row.combined.second, row.exact.second, float(n * n)),
            )
            for value, se, bound, exact_value, ceiling in checks:
                if value <= bound + 3 * se + 1e-12:
                    continue
                if se == 0.0 and value == ceiling:
                    degenerate += 1
                    ok_dom = ok_dom and exact_value <= bound + 1e-12
                    ok_dom = ok_dom and value - bound <= 3.0 * ceiling / reps
                else:
                    ok_dom = False
            if row.isolation.first < row.branching.first:
                crossover = True
        first_row, last_row = result.rows[0], result.rows[-1]
        ok_ends = ok_ends and (first_row.estimate.mean_s, first_row.estimate.mean_s2) == (1.0, 1.0)
        ok_ends = ok_ends and (last_row.estimate.mean_s, last_row.estimate.mean_s2) == (float(n), float(n * n))
    elapsed = time.time() - start
    ok = ok_dom and ok_ends and crossover and elapsed < 120
    report(
        9,
        ok,
        f"domination={ok_dom} ({degenerate} zero-variance cells re-checked exactly), "
        f"exact endpoints={ok_ends}, crossover={crossover}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_10_determinism(octahedron):
    """Results do not depend on worker count, and CLI output is stable."""
    estimates = {
        estimate_moments(octahedron, 0.4, 30_000, seed=42, workers=w)
        for w in (1, 4, 16)
    }
    args = ["simulate", "--graph", "octahedron", "--p", "0.4", "--reps", "20000"]
    outputs = set()
    for _ in range(2):
        buf = io.StringIO()
        assert execute(parse_args(args), buf) == 0
        outputs.add(buf.getvalue())
    ok = len(estimates) == 1 and len(outputs) == 1
    report(
        10,
        ok,
        f"worker counts 1/4/16 bit-identical={len(estimates) == 1}, "
        f"CLI byte-identical={len(outputs) == 1}",
    )
