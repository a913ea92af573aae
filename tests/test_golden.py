"""Golden traces: the audited past that every later engine must reproduce.

tests/golden/*.jsonl hold the traces the scenario corpus produced in plain
mode, tests/golden/audit/*.jsonl the same scenarios run with audit_all. The
chart_* files have no scenario left that produces them, so they are checked
by verification only. A mismatch here means the engine no longer rebuilds a
decision it once made: fix the engine, never regenerate these files.

Each line is checked against the config its config_fingerprint names:
tests/golden/config.json, the shipped household as it was while cool-downs
were kept per requester id, frozen byte for byte, or configs/default.json.
A line that names neither fails.

The lines decided under the frozen household are version 1 traces: their
pre_state holds the whole household, and their events name a policy,
write empty inputs and repeat request fields. tests/golden/v3/ holds the
same scenarios as version 3 traces, written by the last engine that wrote
version 3: events for every node the tick visited, and knowledge_check's
copy of the warnings.
tests/golden/v4/ holds them as version 4 traces, written by the last engine
that wrote version 4: the leaf events alone, each with its outcome, the
violation with its policy and reason, knowledge_check with its mode, and
emotion_ok and category_context_ok with their copies of earlier inputs.
Those engines ran only the scenarios decided under the frozen household.
The lines of later scenarios are version 5 traces, whose pre_state holds
only the slice the decision reads and whose events write each fact of the
line once. tests/golden/v6/ holds every scenario, in both modes, as the
last engine that wrote version 6 wrote it under configs/default.json: each
event's inputs beside its node, and a pre_state without the cool-down scope
and board_primed. The engine now writes version 7 traces, whose checks
leave out the seven facts the rest of the line restates, so a re-run is
compared, byte for byte, with its golden line cut to version 7
(as_version_7). A re-run must also explain itself as its golden line does,
and every golden line explains as it did when it was committed
(EXPLANATION_DIGESTS).
"""

import hashlib

import json
from pathlib import Path

import pytest

from fetchguard import (
    ContextSnapshot,
    DecisionEngine,
    DecisionTrace,
    EmotionSample,
    FetchRequest,
    PolicyConfig,
    load_scenario,
    read_traces,
    run_scenario,
    verify_trace,
)
from fetchguard.cli import render_explanation
from fetchguard.engine import canonical_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_FILES = sorted(GOLDEN.glob("*.jsonl")) + sorted((GOLDEN / "audit").glob("*.jsonl"))
V3 = GOLDEN / "v3"
V3_FILES = sorted(V3.glob("*.jsonl")) + sorted((V3 / "audit").glob("*.jsonl"))
V4 = GOLDEN / "v4"
V4_FILES = sorted(V4.glob("*.jsonl")) + sorted((V4 / "audit").glob("*.jsonl"))
V6 = GOLDEN / "v6"
V6_FILES = sorted(V6.glob("*.jsonl")) + sorted((V6 / "audit").glob("*.jsonl"))
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def fingerprint_of(path: Path) -> str:
    """The config_fingerprint that every line of a golden file carries."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fingerprints = {json.loads(line)["config_fingerprint"] for line in lines}
    assert len(fingerprints) == 1, path
    return fingerprints.pop()


FROZEN_FINGERPRINT = PolicyConfig.load(GOLDEN / "config.json").fingerprint()
#: The scenarios whose golden lines were decided under the frozen household.
FROZEN_SCENARIOS = [
    path
    for path, golden in ((path, GOLDEN / f"{path.stem}.jsonl") for path in SCENARIOS)
    if golden.exists() and fingerprint_of(golden) == FROZEN_FINGERPRINT
]


@pytest.fixture(scope="module")
def configs(golden_config, shipped_config):
    """The configs a golden line may name, by fingerprint: the frozen
    household and the shipped one."""
    return {config.fingerprint(): config for config in (golden_config, shipped_config)}


def config_for(configs, fingerprint: str) -> PolicyConfig:
    assert fingerprint in configs, f"no config has the fingerprint {fingerprint}"
    return configs[fingerprint]


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
def test_every_golden_trace_verifies(configs, path):
    traces = read_traces(path)
    assert traces
    for trace in traces:
        result = verify_trace(trace, config_for(configs, trace.config_fingerprint))
        assert result.ok, (trace.request_id, result.mismatches)


@pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_rerunning_a_scenario_reproduces_its_golden_bytes(configs, path, audit_all):
    rerun_reproduces_the_bytes_in(configs, path, audit_all, GOLDEN)


@pytest.mark.parametrize(
    "path", GOLDEN_FILES + V3_FILES + V4_FILES + V6_FILES, ids=lambda p: str(p.relative_to(GOLDEN).with_suffix(""))
)
def test_a_rerun_explains_itself_as_its_golden_line(configs, path):
    for golden in read_traces(path):
        engine = DecisionEngine(config_for(configs, golden.config_fingerprint), audit_all=golden.audit_all)
        engine.restore_state(golden.pre_state)
        _, rerun = engine.decide(FetchRequest.from_dict(golden.request))
        assert rerun.trace_version == 7
        assert render_explanation(rerun) == render_explanation(golden), golden.request_id


#: The SHA-256 of every explanation of every line of each golden directory,
#: in file and line order, each followed by a newline, as the explain reader
#: of version 5 engines wrote them, and for v6 as the last version 6 engine
#: wrote them. The lines of each of v3, v4 and v6, plain or audit, explain
#: alike, the v6 ones as audit/ does: the audit pass is not explained.
EXPLANATION_DIGESTS = {
    ".": "a21516dd9108ead57b0d4d21e1ea98895579a3bf0da9d709d73a33b39a76261f",
    "audit": "c8223659b009a62e31ef49a266ca616094b063a0b8222871724193089916c888",
    "v3": "ac7329314dbba6423061d061c5285768b4297cdc7db55833441d72c542eaec77",
    "v3/audit": "ac7329314dbba6423061d061c5285768b4297cdc7db55833441d72c542eaec77",
    "v4": "ac7329314dbba6423061d061c5285768b4297cdc7db55833441d72c542eaec77",
    "v4/audit": "ac7329314dbba6423061d061c5285768b4297cdc7db55833441d72c542eaec77",
    "v6": "c8223659b009a62e31ef49a266ca616094b063a0b8222871724193089916c888",
    "v6/audit": "c8223659b009a62e31ef49a266ca616094b063a0b8222871724193089916c888",
}


@pytest.mark.parametrize("directory", sorted(EXPLANATION_DIGESTS))
def test_every_golden_line_explains_as_it_did(directory):
    digest = hashlib.sha256()
    paths = sorted((GOLDEN / directory).glob("*.jsonl"))
    assert paths
    for path in paths:
        for trace in read_traces(path):
            digest.update(render_explanation(trace).encode("utf-8") + b"\n")
    assert digest.hexdigest() == EXPLANATION_DIGESTS[directory]


def holds_in_both_modes(directory, scenarios):
    names = {load_scenario(p).name for p in scenarios}
    assert {p.stem for p in directory.glob("*.jsonl")} == names
    assert {p.stem for p in (directory / "audit").glob("*.jsonl")} == names


def reads_as_its_version_writes_back_and_verifies(configs, path, version):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        trace = DecisionTrace.from_dict(json.loads(line))
        assert trace.trace_version == version
        assert trace.to_json() == line
        result = verify_trace(trace, config_for(configs, trace.config_fingerprint))
        assert result.ok, (trace.request_id, result.mismatches)


def rerun_reproduces_the_bytes_in(configs, path, audit_all, directory):
    """The scenario, run on the config its golden file names, writes that
    file's lines, each cut to version 7."""
    script = load_scenario(path)
    golden = (directory / "audit" if audit_all else directory) / f"{script.name}.jsonl"
    traces = []
    run_scenario(config_for(configs, fingerprint_of(golden)), script, traces.append, audit_all=audit_all)
    expected = golden.read_text(encoding="utf-8").splitlines()
    assert len(traces) == len(expected)
    for trace, want in zip(traces, expected):
        assert trace.to_json() == as_version_7(want), f"trace bytes changed for {trace.request_id}"


def test_the_version_3_goldens_hold_every_scenario_in_both_modes():
    holds_in_both_modes(V3, FROZEN_SCENARIOS)


@pytest.mark.parametrize("path", V3_FILES, ids=lambda p: str(p.relative_to(V3).with_suffix("")))
def test_every_version_3_line_reads_as_version_3_writes_back_and_verifies(configs, path):
    reads_as_its_version_writes_back_and_verifies(configs, path, 3)


@pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
@pytest.mark.parametrize("path", FROZEN_SCENARIOS, ids=lambda p: p.stem)
def test_rerunning_a_scenario_reproduces_its_version_3_bytes(configs, path, audit_all):
    rerun_reproduces_the_bytes_in(configs, path, audit_all, V3)


def test_the_version_4_goldens_hold_every_scenario_in_both_modes():
    holds_in_both_modes(V4, FROZEN_SCENARIOS)


@pytest.mark.parametrize("path", V4_FILES, ids=lambda p: str(p.relative_to(V4).with_suffix("")))
def test_every_version_4_line_reads_as_version_4_writes_back_and_verifies(configs, path):
    reads_as_its_version_writes_back_and_verifies(configs, path, 4)


@pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
@pytest.mark.parametrize("path", FROZEN_SCENARIOS, ids=lambda p: p.stem)
def test_rerunning_a_scenario_reproduces_its_version_4_bytes(configs, path, audit_all):
    rerun_reproduces_the_bytes_in(configs, path, audit_all, V4)


def test_the_version_6_goldens_hold_every_scenario_in_both_modes():
    holds_in_both_modes(V6, SCENARIOS)


@pytest.mark.parametrize("path", V6_FILES, ids=lambda p: str(p.relative_to(V6).with_suffix("")))
def test_every_version_6_line_reads_as_version_6_writes_back_and_verifies(configs, path):
    reads_as_its_version_writes_back_and_verifies(configs, path, 6)


@pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_rerunning_a_scenario_reproduces_its_version_6_bytes(configs, path, audit_all):
    rerun_reproduces_the_bytes_in(configs, path, audit_all, V6)


def written_once(line: str, text: str) -> bool:
    return line.count(canonical_json(text)) == 1


def test_no_corpus_line_writes_a_warning_twice(shipped_config):
    warned = 0
    for path in SCENARIOS:
        script = load_scenario(path)
        for audit_all in (False, True):
            traces = []
            run_scenario(shipped_config, script, traces.append, audit_all=audit_all)
            for trace in traces:
                line = trace.to_json()
                assert all(written_once(line, w) for w in trace.warnings), trace.request_id
                warned += bool(trace.warnings)
    assert warned


def test_an_unknown_requester_with_a_clamped_emotion_writes_each_warning_once(shipped_config):
    context = ContextSnapshot(room="hall", adult_present=True, verbal_affirmation=True, timestamp=0)
    request = FetchRequest("req", "wanderer", "towel", EmotionSample(1.5, 0.0), context, 0)
    _, trace = DecisionEngine(shipped_config).decide(request)
    line = trace.to_json()
    assert len(trace.warnings) == 2
    assert all(written_once(line, w) for w in trace.warnings)


@pytest.mark.parametrize("path", [GOLDEN / "unknown_ids.jsonl", V3 / "unknown_ids.jsonl"], ids=["v1", "v3"])
def test_older_lines_keep_their_copy_of_the_warnings_and_verify(configs, path):
    traces = read_traces(path)
    assert any(t.to_json().count(canonical_json(w)) == 2 for t in traces for w in t.warnings)
    assert all(verify_trace(t, config_for(configs, t.config_fingerprint)).ok for t in traces)


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
    the requester's cool-down record and the requested object's registry
    entry."""
    request, cooldowns = data["request"], data["pre_state"]["cooldowns"]
    cooldowns["users"] = {uid: rec for uid, rec in cooldowns["users"].items() if uid == request["user_id"]}
    registry = data["pre_state"]["personal_registry"]
    data["pre_state"]["personal_registry"] = {
        obj: tag for obj, tag in registry.items() if obj == request["object_id"]
    }


#: The structure-only events, which version 4 no longer writes: each gate's
#: Fallback and the nodes above the gates.
STRUCTURE_NODES = {
    "per_request", "decision_sequence", "accept", "eligibility_gate", "ordering_check",
    "emotion_check", "category_context_check", "personal_check",
}


#: What a version 4 check repeated from an earlier check's inputs, which
#: version 5 no longer writes.
COPIED_INPUTS = {
    "emotion_ok": ("cooldown_profile", "escalation_steps"),
    "category_context_ok": ("matrix_checks",),
}


def cut_to_version_5(data: dict) -> None:
    """Cut a version 4 line's events, in place, to what version 5 writes:
    no outcome outside the audit pass, no inputs on a violation, no mode on
    knowledge_check and none of the inputs COPIED_INPUTS names."""
    for event in data["events"]:
        if not event.get("audit"):
            del event["outcome"]
        if event["node"].endswith("_violation"):
            del event["inputs"]
            continue
        if event["node"] == "knowledge_check":
            del event["inputs"]["mode"]
        for name in COPIED_INPUTS.get(event["node"], ()):
            event["inputs"].pop(name, None)


def cut_to_version_6(data: dict) -> None:
    """Cut a version 5 line, in place, to what version 6 wrote: each
    event's inputs beside its node, and a pre_state without the cool-down
    scope and board_primed."""
    for event in data["events"]:
        event.update(event.pop("inputs", {}))
    del data["pre_state"]["cooldowns"]["scope"]
    del data["pre_state"]["board_primed"]
    data["trace_version"] = 6


#: What a version 6 check restated from elsewhere in the line, which
#: version 7 no longer writes. A skipped audit stage wrote none of them.
RESTATED_INPUTS = {
    "eligibility_ok": ("known_user", "known_object"),
    "ordering_ok": ("vehicle_ban",),
    "emotion_ok": ("valence", "arousal", "clamped"),
    "personal_ok": ("access",),
}


def cut_to_version_7(data: dict) -> None:
    """Cut a version 6 line, in place, to what version 7 writes: no input
    RESTATED_INPUTS names."""
    for event in data["events"]:
        if event.get("outcome") != "skipped":
            for name in RESTATED_INPUTS.get(event["node"], ()):
                del event[name]
    data["trace_version"] = 7


def as_version_5(line: str) -> str:
    """A committed line as version 5 writes it. A version 5 line is that
    already. A version 1 line has its pre_state cut to the version 2 slice,
    and its events lose their policy and the inputs REPEATED_INPUTS names.
    Then, for versions 1 and 3, the structure-only events go, and
    knowledge_check's copy of the warnings with them. Last, every older line
    is cut from version 4 to version 5."""
    data = json.loads(line)
    version = data.get("trace_version", 1)
    assert version in (1, 3, 4, 5)
    if version == 5:
        return line
    if version == 1:
        slice_pre_state(data)
        for event in data["events"]:
            del event["policy"]
            for name in REPEATED_INPUTS.get(event["node"], ()):
                event["inputs"].pop(name, None)
    if version < 4:
        data["events"] = [e for e in data["events"] if e["node"] not in STRUCTURE_NODES]
        del data["events"][0]["inputs"]["warnings"]
    cut_to_version_5(data)
    data["trace_version"] = 5
    return canonical_json(data)


def as_version_7(line: str) -> str:
    """A committed line as the engine writes it today: a version 6 line
    cut to version 7, and an older one as version 5 writes it, cut to
    version 6 and then to version 7."""
    data = json.loads(line)
    if data.get("trace_version", 1) != 6:
        data = json.loads(as_version_5(line))
        cut_to_version_6(data)
    cut_to_version_7(data)
    return canonical_json(data)
