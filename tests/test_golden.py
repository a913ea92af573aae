"""Golden traces: the audited past that every later engine must reproduce.

tests/golden/*.jsonl hold the traces the scenario corpus produced in plain
mode, tests/golden/audit/*.jsonl the same scenarios run with audit_all. The
chart_* files have no scenario left that produces them, so they are checked
by verification only. A mismatch here means the engine no longer rebuilds a
decision it once made: fix the engine, never regenerate these files.

The committed lines are version 1 traces: their pre_state holds the whole
household, and their events name a policy, write empty inputs and repeat
request fields. The engine now writes version 3 traces, whose pre_state
holds only what the decision reads and whose events write each value once,
so a re-run is compared, byte for byte, with its golden line cut to version
3 (as_version_3). A re-run must also explain itself as its golden line does.
"""

import json
from pathlib import Path

import pytest

from fetchguard import (
    DecisionEngine,
    FetchRequest,
    PolicyConfig,
    load_scenario,
    read_traces,
    run_scenario,
    verify_trace,
)
from fetchguard.cli import render_explanation
from fetchguard.engine import canonical_json
from fetchguard.ordering import HOUSEHOLD_SCOPE_KEY

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.jsonl")) + sorted((GOLDEN / "audit").glob("*.jsonl"))
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


@pytest.fixture(scope="module")
def default_json_config():
    return PolicyConfig.load(ROOT / "configs" / "default.json")


def test_every_scenario_has_golden_files_and_only_charts_are_orphans():
    plain = {p.stem for p in GOLDEN.glob("*.jsonl")}
    audit = {p.stem for p in (GOLDEN / "audit").glob("*.jsonl")}
    scenarios = {load_scenario(p).name for p in SCENARIOS}
    assert audit == scenarios
    assert scenarios <= plain
    assert all(name.startswith("chart_") for name in plain - scenarios)


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=lambda p: str(p.relative_to(GOLDEN).with_suffix(""))
)
def test_every_golden_trace_verifies(default_json_config, path):
    traces = read_traces(path)
    assert traces
    for trace in traces:
        result = verify_trace(trace, default_json_config)
        assert result.ok, (trace.request_id, result.mismatches)


@pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_rerunning_a_scenario_reproduces_its_golden_bytes(default_json_config, path, audit_all):
    script = load_scenario(path)
    result = run_scenario(default_json_config, script, audit_all=audit_all)
    golden = (GOLDEN / "audit" if audit_all else GOLDEN) / f"{script.name}.jsonl"
    expected = golden.read_text(encoding="utf-8").splitlines()
    assert len(result.traces) == len(expected)
    for trace, want in zip(result.traces, expected):
        assert trace.to_json() == as_version_3(want), f"trace bytes changed for {trace.request_id}"


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=lambda p: str(p.relative_to(GOLDEN).with_suffix(""))
)
def test_a_rerun_explains_itself_as_its_golden_line(default_json_config, path):
    for golden in read_traces(path):
        engine = DecisionEngine(default_json_config, audit_all=golden.audit_all)
        engine.restore_state(golden.pre_state)
        _, rerun = engine.decide(FetchRequest.from_dict(golden.request))
        assert rerun.trace_version == 3
        assert render_explanation(rerun) == render_explanation(golden), golden.request_id


#: What a version 1 event repeated from elsewhere in the line: request
#: fields the knowledge_check echo holds, and the last request that
#: blackboard_update holds.
REPEATED_INPUTS = {
    "blackboard_update": ("now",),
    "eligibility_ok": ("user_id", "object_id"),
    "ordering_ok": ("last_request",),
    "category_context_ok": ("room", "adult_present", "verbal_affirmation"),
}


def slice_pre_state(data: dict) -> None:
    """Cut a version 1 line's pre_state, in place, to the version 2 slice:
    the requester's cool-down record (the household's under household
    scope) and the requested object's registry entry."""
    request, cooldowns = data["request"], data["pre_state"]["cooldowns"]
    key = HOUSEHOLD_SCOPE_KEY if cooldowns["scope"] == "household" else request["user_id"]
    cooldowns["users"] = {uid: rec for uid, rec in cooldowns["users"].items() if uid == key}
    registry = data["pre_state"]["personal_registry"]
    data["pre_state"]["personal_registry"] = {
        obj: tag for obj, tag in registry.items() if obj == request["object_id"]
    }


def as_version_3(v1_line: str) -> str:
    """A committed version 1 line as the engine writes it today: its
    pre_state cut to the version 2 slice, and every event without its
    policy, without the inputs REPEATED_INPUTS names, and without inputs
    when none are left."""
    data = json.loads(v1_line)
    assert "trace_version" not in data
    slice_pre_state(data)
    for event in data["events"]:
        del event["policy"]
        for name in REPEATED_INPUTS.get(event["node"], ()):
            event["inputs"].pop(name, None)
        if event["inputs"] == {}:
            del event["inputs"]
    data["trace_version"] = 3
    return canonical_json(data)
