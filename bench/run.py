#!/usr/bin/env python3
"""Benchmark of percmoments: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Workloads (see ``workloads.py``):

    sweep_solids  CLI sweep over 41 p on three Platonic solids, octahedron
                  with the exact oracle column
    mc_large      estimate_moments on a random 3-regular graph, N = 1000,
                  near-critical and supercritical p, 2 worker threads
    exact_oracle  the three exact enumeration routes on small graphs
    dominance     CLI birth-vs-branching dominance table on two solids

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
``--trace 0`` repeats the workload's body for ``--seconds`` and reports the
end-to-end metrics: median wall and CPU time of one repetition of the
body, median set-up time of fresh processes started between repetitions
(interpreter start to package imported and graphs built), and peak RSS.
Set-up samples are spread over the run, like the repetitions, so that a
slow phase of the host weighs on both alike.
``--trace 1`` times the body untraced for half the budget, then once more
with spans around every public percmoments function (``spans.py``) and
reports per-layer metrics; mc_large also times the body at workers=1.
Per-layer metrics that do not apply to a workload read 0; one whose
function no longer exists reads null and is listed as absent.
``trace.untraced_frac`` is the share of the traced body that no span
covers: benchmark code, and package code reached only through private
functions.

Every op's result is checked on every repetition, and must repeat bit for
bit.  The last stdout line is the result JSON; the line before it is the
run record (provenance, output digest, per-repetition times).  Exits
non-zero without a result if the package source is missing or a check is
vacuous (a corrupted result that it fails to flag).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep_solids", "mc_large", "exact_oracle", "dominance")
# Set-up samples taken before each timed repetition, so that they spread
# over the run as the repetitions do.
SETUP_PER_REP = 4
# A set-up sample: a fresh interpreter that imports the package and the
# workload builder, builds the workload and says so.  argv: src, bench,
# workload, seed, nproc.
SETUP_CODE = """import sys
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
print("ready", flush=True)
"""
# Keep numpy's BLAS single-threaded so threads never exceed the worker count.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    return args


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_package():
    if not (SRC / "percmoments" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'percmoments'}")
    sys.path.insert(0, str(SRC))
    import percmoments

    if Path(percmoments.__file__).resolve().parent != SRC / "percmoments":
        raise SystemExit(f"bench: imported percmoments from {percmoments.__file__}")
    import workloads

    return percmoments, workloads


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, start to graphs built
# ---------------------------------------------------------------------------


def _setup_sample(args: argparse.Namespace) -> float:
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent),
           args.workload, str(args.seed), str(_nproc())]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"bench: set-up process failed (exit {code})")
    return elapsed


# ---------------------------------------------------------------------------
# the timed body and its checks
# ---------------------------------------------------------------------------


def _body(ops) -> tuple[float, float, list]:
    """Run every op once; an op that raises yields its exception."""
    outputs = []
    t0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            outputs.append(op.run())
        except Exception as exc:  # the benchmark counts it and goes on
            outputs.append(exc)
    return time.perf_counter() - t0, time.process_time() - c0, outputs


class Tally:
    """Checked ops, failures, and the reference output of each op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] = {}
        self.messages: list[str] = []

    def check(self, ops, outputs, reference_names=None) -> None:
        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                fails = [f"raised {type(out).__name__}: {out}"]
            else:
                fails = list(op.check(out))
                key = reference_names.get(op.name, op.name) if reference_names else op.name
                text = repr(out)
                if self.reference.setdefault(key, text) != text:
                    fails.append("not repeatable")
            if fails:
                self.failed += 1
                self.messages.append(f"{op.name}: {', '.join(fails)}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, text in self.reference.items():
            h.update(f"{name}={text}\n".encode())
        return h.hexdigest()


def _selftest(ops, outputs) -> list[str]:
    """Corrupt each real output and confirm the named check clause fires."""
    vacuous = []
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            continue
        for clause, bad in op.corrupt(out):
            if clause not in op.check(bad):
                vacuous.append(f"{op.name}: clause {clause!r} did not fire")
    return vacuous


def _repeat(ops, tally, budget: float, before=None) -> tuple[list[float], list[float]]:
    """Run the body until the next round would overrun ``budget`` seconds.

    A round is ``before()``, if given, then one timed repetition of the body.
    """
    walls, cpus, rounds = [], [], []
    deadline = time.perf_counter() + budget
    while True:
        t0 = time.perf_counter()
        if before is not None:
            before()
        wall, cpu, outputs = _body(ops)
        walls.append(wall)
        cpus.append(cpu)
        tally.check(ops, outputs)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            return walls, cpus


# ---------------------------------------------------------------------------
# per-layer metrics from a traced body
# ---------------------------------------------------------------------------

LAYERS = ("bench", "cli", "graphs", "montecarlo", "rng", "stats", "bounds", "oracle",
          "coupling", "percolation")


def _layer_metrics(tracer, setup_root, body_root, untraced_wall, speedup, rows):
    spans, self_t = tracer.spans, tracer.self_times()
    setup, body = tracer.under(setup_root), [body_root] + tracer.under(body_root)
    traced_wall = spans[body_root].end - spans[body_root].start

    def pick(prefix, idx=body):
        """Spans named ``prefix``, or of module ``prefix`` when it ends in '.'."""
        exact = not prefix.endswith(".")
        return [i for i in idx if (spans[i].name == prefix if exact
                                   else spans[i].name.startswith(prefix))]

    def self_s(prefix, idx=body):
        return sum(self_t[i] for i in pick(prefix, idx))

    def incl_s(prefix):
        return sum(spans[i].end - spans[i].start for i in pick(prefix))

    def calls(prefix):
        return len(pick(prefix))

    def counted(prefix):
        return sum(spans[i].count for i in pick(prefix))

    mp, em, cm = "oracle.moment_polynomial", "oracle.exact_moments", "oracle.connectivity_moments"
    enum_s = sum(incl_s(f"oracle.{f}") for f in
                 ("moment_polynomial", "exact_moments", "connectivity_moments",
                  "pair_connectivity", "vertex_isolation_counts"))
    est, birth = "montecarlo.estimate_moments", "coupling.run_birth_process"
    block = "montecarlo._block_stats"  # pool worker body, wrapped where it exists
    merge, dom = "stats.RunningMoments.merge", "coupling.dominance_report"
    branch = "coupling.branching_generation_samples"
    # (name, unit, span the metric needs, value)
    table = [
        ("graphs.build_s", "s", "graphs.", self_s("graphs.", setup)),
        ("cli.self_s", "s", "cli.", self_s("cli.")),
        ("cli.rows", "count", "cli.execute", rows),
        ("montecarlo.sweep_self_s", "s", "montecarlo.sweep", self_s("montecarlo.sweep")),
        ("montecarlo.estimate_calls", "count", est, calls(est)),
        ("montecarlo.estimate_s", "s", est, incl_s(est)),
        ("montecarlo.estimate_self_s", "s", est, self_s(est) + self_s(block)),
        ("montecarlo.workers_speedup", "ratio", est, speedup),
        ("rng.calls", "count", "rng.", calls("rng.")),
        ("rng.draws", "count", "rng.", counted("rng.")),
        ("rng.s", "s", "rng.", self_s("rng.")),
        ("rng.bytes_computed", "B", "rng.", 8 * counted("rng.")),
        ("stats.merges", "count", merge, calls(merge)),
        ("stats.merge_s", "s", merge, incl_s(merge)),
        ("bounds.calls", "count", "bounds.", calls("bounds.")),
        ("bounds.s", "s", "bounds.", self_s("bounds.")),
        ("oracle.configs", "count", "oracle.", counted("oracle.")),
        ("oracle.moment_polynomial_s", "s", mp, incl_s(mp)),
        ("oracle.exact_moments_s", "s", em, incl_s(em)),
        ("oracle.connectivity_moments_s", "s", cm, incl_s(cm)),
        ("oracle.configs_per_s", "1/s", "oracle.",
         counted("oracle.") / enum_s if enum_s > 0 else 0.0),
        ("coupling.birth_calls", "count", birth, calls(birth)),
        ("coupling.birth_s", "s", birth, incl_s(birth)),
        ("coupling.branching_s", "s", branch, incl_s(branch)),
        ("coupling.dominance_self_s", "s", dom, self_s(dom)),
        ("trace.overhead_frac", "ratio", None, (traced_wall - untraced_wall) / untraced_wall),
        ("trace.untraced_frac", "ratio", None, self_t[body_root] / traced_wall),
    ]
    absent = [name for name, _, need, _ in table
              if need and not any(w == need or (need.endswith(".") and w.startswith(need))
                                  for w in tracer.wrapped)]
    metrics = {name: {"value": None if name in absent else value, "unit": unit}
               for name, unit, _, value in table}
    layer_self = {layer: self_s(layer + ".") for layer in LAYERS[1:]}
    layer_self["bench"] = self_t[body_root]
    summary = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "self_s_by_layer": {k: layer_self[k] for k in LAYERS},
               "absent": absent, "spans": len(spans)}
    return metrics, summary


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _provenance(pm, args, wl) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "percmoments").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "percmoments": pm.__version__,
        "params": wl.params,
        "graphs": [{"label": g.label, "N": g.n_vertices, "D": g.degree, "E": g.n_edges}
                   for g in wl.graphs],
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    pm, workloads = _import_package()
    wl = workloads.build(args.workload, args.seed, _nproc())

    tally = Tally()
    record = {"provenance": _provenance(pm, args, wl)}
    # Warm-up: the first body runs cold (allocator, page faults) in every
    # process; it is checked and feeds the self-test but is not timed.
    _, _, first_outputs = _body(wl.ops)
    tally.check(wl.ops, first_outputs)
    vacuous = _selftest(wl.ops, first_outputs)
    if vacuous:
        print("bench: vacuous checks:\n  " + "\n  ".join(vacuous), file=sys.stderr)
        return 2
    if args.trace == 0:
        setups: list[float] = []
        walls, cpus = _repeat(wl.ops, tally, args.seconds, before=lambda: setups.extend(
            _setup_sample(args) for _ in range(SETUP_PER_REP)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        record.update(walls=walls, cpus=cpus, setups=setups)
    else:
        import spans

        walls, _ = _repeat(wl.ops, tally, args.seconds / 2)
        untraced = statistics.median(walls)
        speedup = 0.0
        if wl.serial_ops:
            serial_wall, _, outputs = _body(wl.serial_ops)
            # workers=1 must reproduce the workers=N results bit for bit
            tally.check(wl.serial_ops, outputs,
                        {s.name: o.name for s, o in zip(wl.serial_ops, wl.ops)})
            speedup = serial_wall / untraced
        tracer = spans.Tracer()
        with tracer:
            with tracer.root("bench.setup") as setup_root:
                traced_wl = workloads.build(args.workload, args.seed, _nproc())
            with tracer.root("bench.body") as body_root:
                _, _, outputs = _body(traced_wl.ops)
        tally.check(traced_wl.ops, outputs)
        rows = sum(out[1].count("\n") - 1 for op, out in zip(traced_wl.ops, outputs)
                   if op.cli and not isinstance(out, Exception))
        metrics, table = _layer_metrics(tracer, setup_root, body_root, untraced,
                                        speedup, rows)
        record.update(walls=walls, trace=table)

    for message in tally.messages:
        print(f"bench: FAILED {message}", file=sys.stderr)
    record["digest"] = tally.digest()
    record["ops_failed_frac"] = tally.failed / tally.attempted
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:32s} {m['value']!r:>24} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:13s} {'ops_failed_frac':32s} {record['ops_failed_frac']!r:>24} ratio",
          file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
