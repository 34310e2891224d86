"""The benchmark's output contract, on short runs of ``bench/run.py``.

Every run prints exactly two stdout lines, both strict JSON (no NaN or
Infinity): the run record, then the result, which must read ``"correct":
true``.  Every metric that ``BENCHMARK.json`` names for the run's mode reads
a finite number, so a package function that the tracer wraps by name
(``stats.RunningMoments.merge``, ``montecarlo._block_stats``, ...) cannot
go missing unnoticed: its metrics would read null.  The CI bench-smoke job
applies ``check_output`` to every workload in both modes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload traced, and the untraced mode once
RUNS = [(workload["name"], 1) for workload in SPEC["workloads"]] + [("sweep_solids", 0)]


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def check_output(stdout: str, trace: int) -> dict:
    """The result of a run whose stdout is ``stdout``, after every check of the contract."""
    lines = stdout.splitlines()
    assert len(lines) == 2, f"expected the record and the result, got {len(lines)} lines"
    record, result = (json.loads(line, parse_constant=_refuse_constant) for line in lines)
    assert set(record) == {"record"}, sorted(record)
    assert result["correct"] is True, result
    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in metrics:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (metric, value)
        assert math.isfinite(value), (metric, value)
    return result


@pytest.mark.parametrize("workload, trace", RUNS, ids=[f"{w}-trace{t}" for w, t in RUNS])
def test_bench_run_ends_with_a_strict_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    check_output(proc.stdout, trace)
