"""Replay closure over the shipped scenario corpus."""

import json
from pathlib import Path

import pytest

from fetchguard import (
    DecisionTrace,
    load_scenario,
    redecide,
    run_scenario,
    verify_trace,
)
from fetchguard.engine import canonical_json

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


def test_corpus_is_large_enough():
    assert len(SCENARIOS) >= 12


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_expectations_hold(shipped_config, path):
    result = run_scenario(shipped_config, load_scenario(path), lambda trace: None)
    assert result.ok, result.summary()


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_every_trace_replays_byte_identically(shipped_config, path):
    traces = []
    run_scenario(shipped_config, load_scenario(path), traces.append)
    for trace in traces:
        replayed = redecide(trace, shipped_config)[0]
        assert canonical_json(replayed.to_dict()) == canonical_json(trace.decision.to_dict())
        assert verify_trace(trace, shipped_config).ok


def test_tampering_with_any_corpus_trace_is_detected(shipped_config):
    traces = []
    run_scenario(shipped_config, load_scenario(SCENARIOS[0]), traces.append)
    trace = traces[0]
    tampered = DecisionTrace.from_dict(json.loads(trace.to_json()))
    tampered.request["context"]["adult_present"] = not tampered.request["context"]["adult_present"]
    assert not verify_trace(tampered, shipped_config).ok
