"""The benchmark at its smallest size.

The traced run reads a span for every public callable it wraps and fails
when one records no calls, so it guards the names perfbench/spans.py
patches, and that a decision's trace does not grow with the history the
benchmark restores. The untimed runs of the other two workloads put the
current trace format through the benchmark's own checks: the twin engine,
verification of every line and the tamper check. run.py exits 0 even when
a check fails, so each test reads the result line. Two fast tests check,
without a run, that every name spans.py patches is its owner's own, and
say which one is not."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def run_benchmark(workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), run.stderr
    return result


@pytest.mark.parametrize("workload", ["household_mix", "audit_replay"])
def test_untraced_run_is_correct(workload):
    run_benchmark(workload, trace=0)


def test_traced_history_heavy_run_is_correct():
    result = run_benchmark("history_heavy", trace=1)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["ordering.records"] <= 1
    assert metrics["scaling.trace_bytes.n10000"] <= 1.1 * metrics["scaling.trace_bytes.n0"]


@pytest.mark.parametrize("cls", spans.NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_node_class_holds_its_own_tick(cls):
    # The tracer wraps cls.__dict__["tick"]; an inherited tick is not there.
    assert "tick" in vars(cls)


@pytest.mark.parametrize(
    "owner, attr, span", spans.CALL_SPANS, ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in spans.CALL_SPANS]
)
def test_every_call_span_is_its_owners_own_attribute(owner, attr, span):
    # The tracer patches the name where its caller looks it up: on the
    # module that imports it, or on the class that defines it.
    assert attr in vars(owner)
