"""The benchmark's traced run at its smallest size. It reads a span for
every public callable it wraps and fails when one records no calls, so this
guards the names perfbench/spans.py patches, and that a decision's trace
does not grow with the history the benchmark restores."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_history_heavy_run_is_correct():
    command = [sys.executable, "perfbench/run.py", "--workload", "history_heavy"]
    command += ["--seed", "1", "--seconds", "0.1", "--trace", "1"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["ordering.records"] <= 1
    assert metrics["scaling.trace_bytes.n10000"] <= 1.1 * metrics["scaling.trace_bytes.n0"]
