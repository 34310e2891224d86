#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the end-to-end metrics.

    python3 bench/suite.py [--seeds 1-10] [--trace] [--out bench/results/FILE.json]

Each (workload, seed) is its own ``run.py`` process, run for ``run_seconds``
of ``BENCHMARK.json``, so peak
RSS and set-up time are per process.  Seeds are the outer loop, so slow
drift of the machine spreads over all workloads.  Prints one line per run,
then per workload and metric the median, quartiles and spread (quartile
distance over median, as ``statistics.quantiles(n=4)`` gives them) next to
the bound in ``BENCHMARK.json``; a spread above a third of its bound is
marked.  ``ops_failed_frac`` is failed over attempted ops, all runs pooled.
With ``--trace`` one traced run per workload (first seed) adds the
per-layer table.  ``--out`` writes everything, with provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"suite: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)

    runs: dict[str, list] = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for w in WORKLOADS:
            result, record = _run(w, seed, 0)
            runs[w].append({"seed": seed, "result": result, "record": record})
            values = " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
            print(f"{w:13s} seed={seed:<4d} {values} failed={result['failed']}/"
                  f"{result['attempted']} digest={record['digest'][:12]}", flush=True)

    out = {"settings": {"seeds": seeds, "seconds": seconds},
           "provenance": runs[WORKLOADS[0]][0]["record"]["provenance"],
           "workloads": {}}
    print()
    print(f"{'workload':13s} {'metric':16s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for w in WORKLOADS:
        entry = {"summary": {}, "runs": runs[w]}
        metric_names = runs[w][0]["result"]["metrics"]
        for m, first in metric_names.items():
            s = _summary([r["result"]["metrics"][m]["value"] for r in runs[w]])
            s["unit"] = first["unit"]
            entry["summary"][m] = s
            flag = " <-- above bound/3" if s["spread"] > bounds[m] / 3 else ""
            print(f"{w:13s} {m:16s} {first['unit']:6s} {s['median']:12.5f} {s['q1']:12.5f} "
                  f"{s['q3']:12.5f} {s['spread']:8.4f} {bounds[m]:6.3f}{flag}")
        attempted = sum(r["result"]["attempted"] for r in runs[w])
        failed = sum(r["result"]["failed"] for r in runs[w])
        entry["ops_failed_frac"] = failed / attempted
        print(f"{w:13s} {'ops_failed_frac':16s} {'ratio':6s} {failed / attempted:12.5f}"
              f"   ({failed} of {attempted} ops)")
        out["workloads"][w] = entry

    if args.trace:
        print()
        for w in WORKLOADS:
            result, record = _run(w, seeds[0], 1)
            out["workloads"][w]["traced"] = {"seed": seeds[0], "result": result,
                                             "trace": record["trace"]}
            print(f"{w} (traced, seed {seeds[0]}):")
            for m, v in result["metrics"].items():
                print(f"  {m:32s} {v['value']!r:>24} {v['unit']}")
            layers = record["trace"]["self_s_by_layer"]
            print("  self time by layer: " + ", ".join(
                f"{k}={v:.4f}" for k, v in layers.items() if v))

    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
