"""The four benchmark workloads and the checks on their results.

Each workload is built from the workload seed alone: the seed is every Monte
Carlo seed and the random-graph seed.  Building a workload (``build``) is
the set-up: it imports nothing new and constructs the graphs.  The timed
body is the list of ``Op``s, each one checked call (or group of calls) into
percmoments' public API.  Calls go through module attributes at call time
(``pm.estimate_moments``, ``cli.execute``), so a traced run sees them.

The checks do not depend on the random stream: they test exact values
(p = 0 and p = 1 rows, generation 0), bounds that every sample mean meets
within 5 standard errors (see ``_slack``), and agreement of exact routes
to 1e-12.  Every check
clause has a corruption that must make it fire; ``run.py`` applies them to
the first real result of every run, so no check can pass vacuously.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import percmoments as pm
from percmoments import cli

# Names of the check clauses that failed; the self-test matches on them.
Failures = list[str]


@dataclass
class Op:
    """One checked unit of work in a workload's timed body."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Failures]
    # (clause that must fire, corrupted output) pairs built from a real output.
    corrupt: Callable[[object], list[tuple[str, object]]]
    cli: bool = False  # output is (exit code, CSV text)


@dataclass
class Workload:
    params: dict
    graphs: list
    ops: list[Op]
    # The same ops at workers=1, for the traced single-thread baseline.
    serial_ops: list[Op] | None = None


def _slack(se: float, span: float, reps: int) -> float:
    """Allowed excess of a sample mean over a bound or exact value.

    Five standard errors, plus 20 * span / reps for samples that saw none
    (or few) of a rare outcome: near p = 1 every replicate can give S = N,
    so se = 0 while the true mean sits just below N.  An outcome of rate
    above 20 / reps is missed with probability below e^-20.  ``span`` is
    the range of the sampled values (N - 1 for S, N^2 - 1 for S^2).
    """
    return 5 * se + 20 * span / reps


# ---------------------------------------------------------------------------
# CLI output helpers
# ---------------------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.execute(cli.parse_args(argv), out)
    return code, out.getvalue()


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _text(rows: list[dict], template: str) -> str:
    columns = next(csv.reader(io.StringIO(template)))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _edited(output: tuple[int, str], edit: Callable[[list[dict]], None]) -> tuple[int, str]:
    code, text = output
    rows = _rows(text)
    edit(rows)
    return code, _text(rows, text)


def _set(rows: list[dict], index: int, **cells) -> None:
    rows[index].update({k: repr(v) if isinstance(v, float) else v for k, v in cells.items()})


# ---------------------------------------------------------------------------
# sweep_solids
# ---------------------------------------------------------------------------

SWEEP_SOLIDS = (("octahedron", True), ("dodecahedron", False), ("icosahedron", False))
SWEEP_GRID = "0:1:0.025"
SWEEP_POINTS = 41
SWEEP_REPS = 40_000


def check_sweep(n: int, oracle: bool, output: tuple[int, str]) -> Failures:
    code, text = output
    if code != 0:
        return ["exit code"]
    fails = []
    try:
        rows = _rows(text)
        if len(rows) != SWEEP_POINTS:
            fails.append("row count")
        by_p = {float(r["p"]): r for r in rows}
        if 0.0 not in by_p or float(by_p[0.0]["mean_s"]) != 1.0:
            fails.append("p=0 mean")
        if 1.0 not in by_p or float(by_p[1.0]["mean_s"]) != n:
            fails.append("p=1 mean")
        for r in rows:
            mean, reps = float(r["mean_s"]), int(r["reps"])
            slack = _slack(float(r["se_s"]), n - 1, reps)
            if mean > float(r["best_first"]) + slack:
                fails.append("first bound")
            slack2 = _slack(float(r["se_s2"]), n * n - 1, reps)
            if float(r["mean_s2"]) > float(r["best_second"]) + slack2:
                fails.append("second bound")
            if oracle and abs(float(r["exact_first"]) - mean) > slack:
                fails.append("exact")
    except (KeyError, ValueError):
        fails.append("malformed")
    return sorted(set(fails))


def corrupt_sweep(n: int, oracle: bool, output: tuple[int, str]) -> list[tuple[str, object]]:
    mid = SWEEP_POINTS // 2
    row = _rows(output[1])[mid]
    mean = float(row["mean_s"])
    off = 2 * _slack(float(row["se_s"]), n - 1, SWEEP_REPS) + 1e-6
    off2 = 2 * _slack(float(row["se_s2"]), n * n - 1, SWEEP_REPS) + 1e-6
    cases = [
        ("exit code", (1, output[1])),
        ("row count", _edited(output, lambda rows: rows.pop(mid))),
        ("p=0 mean", _edited(output, lambda rows: _set(rows, 0, mean_s=1.0 + 1e-9))),
        ("p=1 mean", _edited(output, lambda rows: _set(rows, -1, mean_s=n - 1e-9))),
        ("first bound", _edited(output, lambda rows: _set(
            rows, mid, mean_s=float(row["best_first"]) + off))),
        ("second bound", _edited(output, lambda rows: _set(
            rows, mid, mean_s2=float(row["best_second"]) + off2))),
        ("malformed", _edited(output, lambda rows: _set(rows, mid, mean_s="nan?"))),
    ]
    if oracle:
        cases.append(("exact", _edited(output, lambda rows: _set(
            rows, mid, exact_first=mean + off))))
    return cases


def _sweep_solids(seed: int, nproc: int) -> Workload:
    graphs, ops = [], []
    for name, oracle in SWEEP_SOLIDS:
        g = pm.generate_builtin(name)
        graphs.append(g)
        argv = ["sweep", "--graph", name, "--p-grid", SWEEP_GRID, "--reps", str(SWEEP_REPS),
                "--workers", "1", "--seed", str(seed)] + (["--oracle"] if oracle else [])
        ops.append(Op(
            f"sweep {name}",
            functools.partial(_run_cli, argv),
            functools.partial(check_sweep, g.n_vertices, oracle),
            functools.partial(corrupt_sweep, g.n_vertices, oracle),
            cli=True,
        ))
    params = {"grid": SWEEP_GRID, "points": SWEEP_POINTS, "reps": SWEEP_REPS, "workers": 1,
              "oracle": [name for name, oracle in SWEEP_SOLIDS if oracle]}
    return Workload(params, graphs, ops)


# ---------------------------------------------------------------------------
# mc_large
# ---------------------------------------------------------------------------

MC_N, MC_D = 1000, 3
MC_PS = (0.45, 0.6)  # nu = 0.9 (near critical) and 1.2 (supercritical)
MC_REPS = 16_384
MC_WORKERS = 2


def _estimate(graph, p: float, seed: int, workers: int):
    return pm.estimate_moments(graph, p, MC_REPS, seed, workers=workers)


def check_estimate(n: int, degree: int, p: float, est) -> Failures:
    fails = []
    if est.replicates != MC_REPS:
        fails.append("replicates")
    if not 1.0 <= est.mean_s <= n:
        fails.append("range")
    if est.mean_s2 < est.mean_s**2:
        fails.append("jensen")
    bound = pm.best_bounds(pm.BoundParams(degree=degree, n_vertices=n, p=p))
    if est.mean_s > bound.first + _slack(est.se_s, n - 1, MC_REPS):
        fails.append("first bound")
    if est.mean_s2 > bound.second + _slack(est.se_s2, n * n - 1, MC_REPS):
        fails.append("second bound")
    return fails


def corrupt_estimate(n: int, degree: int, p: float, est) -> list[tuple[str, object]]:
    bound = pm.best_bounds(pm.BoundParams(degree=degree, n_vertices=n, p=p))
    edit = functools.partial(dataclasses.replace, est)
    return [
        ("replicates", edit(replicates=MC_REPS - 1)),
        ("range", edit(mean_s=0.5)),
        ("jensen", edit(mean_s2=est.mean_s**2 * (1 - 1e-9))),
        ("first bound", edit(mean_s=bound.first + 2 * _slack(est.se_s, n - 1, MC_REPS))),
        ("second bound",
         edit(mean_s2=bound.second + 2 * _slack(est.se_s2, n * n - 1, MC_REPS))),
    ]


def _mc_large(seed: int, nproc: int) -> Workload:
    g = pm.generate_random_regular(MC_N, MC_D, seed)
    workers = min(MC_WORKERS, nproc)

    def ops(w: int) -> list[Op]:
        return [
            Op(
                f"estimate p={p} workers={w}",
                functools.partial(_estimate, g, p, seed, w),
                functools.partial(check_estimate, MC_N, MC_D, p),
                functools.partial(corrupt_estimate, MC_N, MC_D, p),
            )
            for p in MC_PS
        ]

    params = {"n": MC_N, "degree": MC_D, "ps": list(MC_PS), "reps": MC_REPS, "workers": workers}
    return Workload(params, [g], ops(workers), serial_ops=ops(1))


# ---------------------------------------------------------------------------
# exact_oracle
# ---------------------------------------------------------------------------

ORACLE_GRAPHS = ("ring(20)", "tetrahedron", "cube", "octahedron")
ORACLE_POLY_ONLY = ("complete(7)",)
ORACLE_P = 0.4
ORACLE_REL = 1e-12


def _oracle_routes(graph, all_routes: bool):
    poly = pm.moment_polynomial(graph)
    if not all_routes:
        return poly, None, None
    return poly, pm.exact_moments(graph, ORACLE_P), pm.connectivity_moments(graph, ORACLE_P)


def _rational_moments(poly) -> tuple[Fraction, Fraction]:
    """E(S), E(S^2) at ORACLE_P from the integer counts, in exact arithmetic."""
    p = Fraction(ORACLE_P)
    m = poly.n_edges
    weights = [p**k * (1 - p) ** (m - k) for k in range(m + 1)]
    first = sum(w * c for w, c in zip(weights, poly.first_counts))
    second = sum(w * c for w, c in zip(weights, poly.second_counts))
    return first / poly.n_vertices, second / poly.n_vertices


def check_oracle(degree: int, output) -> Failures:
    poly, exact, conn = output
    n, m = poly.n_vertices, poly.n_edges
    fails = []
    # All edges closed: every S_x = 1.  All open: every S_x = N.
    if (poly.first_counts[0], poly.second_counts[0]) != (n, n) or (
        poly.first_counts[m], poly.second_counts[m]) != (n * n, n * n * n):
        fails.append("endpoints")
    ref = tuple(float(x) for x in _rational_moments(poly))
    routes = [("evaluate", poly.evaluate(ORACLE_P))]
    if exact is not None:
        routes += [("exact_moments", exact), ("connectivity_moments", conn)]
    for clause, pair in routes:
        if not (math.isclose(pair.first, ref[0], rel_tol=ORACLE_REL)
                and math.isclose(pair.second, ref[1], rel_tol=ORACLE_REL)):
            fails.append(clause)
    bound = pm.best_bounds(pm.BoundParams(degree=degree, n_vertices=n, p=ORACLE_P))
    if ref[0] > bound.first * (1 + ORACLE_REL) or ref[1] > bound.second * (1 + ORACLE_REL):
        fails.append("bounds")
    return fails


class _SkewedPolynomial:
    """A moment polynomial whose float evaluation is off by a factor."""

    def __init__(self, poly, factor: float) -> None:
        self._poly, self._factor = poly, factor

    def __getattr__(self, name):
        return getattr(self._poly, name)

    def evaluate(self, p: float):
        pair = self._poly.evaluate(p)
        return dataclasses.replace(pair, first=pair.first * self._factor,
                                   second=pair.second * self._factor)


def corrupt_oracle(degree: int, output) -> list[tuple[str, object]]:
    poly, exact, conn = output
    n = poly.n_vertices
    bound = pm.best_bounds(pm.BoundParams(degree=degree, n_vertices=n, p=ORACLE_P))
    first, second = _rational_moments(poly)
    f = int(max(bound.first / first, bound.second / second)) + 2

    def scaled(pair):
        return None if pair is None else dataclasses.replace(
            pair, first=pair.first * f, second=pair.second * f)

    big = dataclasses.replace(
        poly,
        first_counts=tuple(c * f for c in poly.first_counts),
        second_counts=tuple(c * f for c in poly.second_counts),
    )
    shifted = dataclasses.replace(
        poly, first_counts=(poly.first_counts[0] + 1,) + poly.first_counts[1:])
    cases = [
        ("evaluate", (_SkewedPolynomial(poly, 1 + 1e-9), exact, conn)),
        ("bounds", (big, scaled(exact), scaled(conn))),
        ("endpoints", (shifted, exact, conn)),
    ]
    if exact is not None:
        bump = dataclasses.replace(exact, first=exact.first * (1 + 1e-9))
        cases.append(("exact_moments", (poly, bump, conn)))
        bump = dataclasses.replace(conn, second=conn.second * (1 + 1e-9))
        cases.append(("connectivity_moments", (poly, exact, bump)))
    return cases


def _exact_oracle(seed: int, nproc: int) -> Workload:
    graphs, ops = [], []
    for name in ORACLE_GRAPHS + ORACLE_POLY_ONLY:
        g = pm.generate_builtin(name)
        graphs.append(g)
        all_routes = name in ORACLE_GRAPHS
        ops.append(Op(
            f"{'routes' if all_routes else 'moment_polynomial'} {name}",
            functools.partial(_oracle_routes, g, all_routes),
            functools.partial(check_oracle, g.degree),
            functools.partial(corrupt_oracle, g.degree),
        ))
    params = {"p": ORACLE_P, "all_routes": list(ORACLE_GRAPHS),
              "moment_polynomial_only": list(ORACLE_POLY_ONLY), "rel_tol": ORACLE_REL}
    return Workload(params, graphs, ops)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

DOMINANCE_CASES = (("dodecahedron", "0.35"), ("icosahedron", "0.2"))
DOMINANCE_REPS = 60_000
DOMINANCE_MAX_FLAGGED = 0.01


def check_dominance(output: tuple[int, str]) -> Failures:
    code, text = output
    if code != 0:
        return ["exit code"]
    fails = []
    try:
        rows = _rows(text)
        gen0 = [r for r in rows if int(r["generation"]) == 0]
        if not gen0 or any(float(r["birth_tail"]) != 1.0 or float(r["branching_tail"]) != 1.0
                           for r in gen0):
            fails.append("generation 0")
        flagged = sum(r["within_tolerance"] != "true" for r in rows)
        if not rows or flagged > DOMINANCE_MAX_FLAGGED * len(rows):
            fails.append("tolerance")
    except (KeyError, ValueError):
        fails.append("malformed")
    return fails


def corrupt_dominance(output: tuple[int, str]) -> list[tuple[str, object]]:
    def flag_all(rows):
        for r in rows:
            r["within_tolerance"] = "false"

    return [
        ("exit code", (1, output[1])),
        ("generation 0", _edited(output, lambda rows: _set(rows, 0, birth_tail=0.99))),
        ("tolerance", _edited(output, flag_all)),
        ("malformed", _edited(output, lambda rows: _set(rows, 0, generation="x"))),
    ]


def _dominance(seed: int, nproc: int) -> Workload:
    graphs, ops = [], []
    for name, p in DOMINANCE_CASES:
        graphs.append(pm.generate_builtin(name))
        argv = ["dominance", "--graph", name, "--p", p, "--reps", str(DOMINANCE_REPS),
                "--seed", str(seed)]
        ops.append(Op(f"dominance {name}", functools.partial(_run_cli, argv),
                      check_dominance, corrupt_dominance, cli=True))
    params = {"cases": [list(c) for c in DOMINANCE_CASES], "reps": DOMINANCE_REPS,
              "max_flagged_frac": DOMINANCE_MAX_FLAGGED}
    return Workload(params, graphs, ops)


BUILDERS = {
    "sweep_solids": _sweep_solids,
    "mc_large": _mc_large,
    "exact_oracle": _exact_oracle,
    "dominance": _dominance,
}


def build(name: str, seed: int, nproc: int) -> Workload:
    """Set up one workload: construct its graphs and its checked ops."""
    return BUILDERS[name](seed, nproc)
