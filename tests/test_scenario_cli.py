import json
import re
from pathlib import Path

import pytest

import fetchguard.cli
from fetchguard import (
    ConfigError,
    PolicyConfig,
    ScenarioParseError,
    append_trace,
    default_config,
    load_scenario,
    parse_scenario,
    read_traces,
    run_scenario,
    verify_trace,
)
from fetchguard.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = str(REPO_ROOT / "configs" / "default.json")
SCENARIOS = REPO_ROOT / "scenarios"


def scenario_dict(events):
    return {"name": "t", "events": events}


def with_decision(**changes):
    return lambda doc: {**doc, "decision": {**doc["decision"], **changes}}


def with_fields(**changes):
    return lambda doc: {**doc, **changes}


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def with_event(node, edit):
    return lambda doc: {**doc, "events": [edit(e) if e["node"] == node else e for e in doc["events"]]}


#: Files no loader can read: not JSON, not UTF-8, an integer past
#: Python's digit limit, and lists nested past the recursion limit.
UNREADABLE_FILES = [b"{oops", b"\xff", b'{"events": [' + b"1" * 5001 + b"]}", b"[" * 200_000]
UNREADABLE_IDS = ["not_json", "not_utf8", "too_many_digits", "too_deep"]

CONTEXT = {"t": 0, "type": "set_context", "room": "kitchen", "adult_present": True, "verbal_affirmation": True}


class TestParsing:
    def test_minimal_scenario_parses(self):
        script = parse_scenario(scenario_dict([CONTEXT]))
        assert script.name == "t"
        assert len(script.events) == 1

    def test_the_script_holds_the_events_it_was_given(self):
        data = scenario_dict([CONTEXT, {"t": 1, "type": "request", "user": "alice", "object": "towel", "expect": "allow"}])
        script = parse_scenario(data)
        assert len(script.events) == len(data["events"])
        assert all(event is given for event, given in zip(script.events, data["events"]))

    def test_unknown_event_type_fails_fast(self):
        with pytest.raises(ScenarioParseError, match="unknown event type"):
            parse_scenario(scenario_dict([{"t": 0, "type": "teleport"}]))

    def test_decreasing_timestamps_rejected(self):
        events = [dict(CONTEXT), dict(CONTEXT, t=-1)]
        events[0]["t"] = 5
        events[1]["t"] = 4
        with pytest.raises(ScenarioParseError, match="non-decreasing"):
            parse_scenario(scenario_dict(events))

    def test_missing_field_rejected(self):
        with pytest.raises(ScenarioParseError, match="needs field"):
            parse_scenario(scenario_dict([{"t": 0, "type": "request", "user": "alice"}]))

    def test_bad_expect_value_rejected(self):
        with pytest.raises(ScenarioParseError, match="expect"):
            parse_scenario(
                scenario_dict(
                    [{"t": 0, "type": "request", "user": "alice", "object": "towel", "expect": "maybe"}]
                )
            )

    def test_a_null_expect_is_refused(self):
        # Accepted, it would check nothing: dave's knife is denied and the run still passes.
        with pytest.raises(ScenarioParseError, match="expect must be 'allow' or 'deny'"):
            parse_scenario(scenario_dict([{"t": 0, "type": "request", "user": "dave", "object": "knife", "expect": None}]))

    def test_unknown_extra_field_rejected(self):
        with pytest.raises(ScenarioParseError, match="unknown fields"):
            parse_scenario(scenario_dict([dict(CONTEXT, color="red")]))

    @pytest.mark.parametrize(
        "data, message",
        [
            ([CONTEXT], "must be an object with an 'events' list"),
            ({"events": CONTEXT}, "'events' must be a list"),
            (scenario_dict([CONTEXT, "request"]), r"event #1: not an object"),
            # A name prefixes every request id, as in `t:000`.
            *(({"name": name, "events": [CONTEXT]}, "'name' must be a string") for name in (5, True, None, ["x"])),
        ],
        ids=[
            "script_not_an_object", "events_not_a_list", "event_not_an_object",
            "int_name", "bool_name", "null_name", "list_name",
        ],
    )
    def test_a_script_of_the_wrong_shape_is_refused(self, data, message):
        with pytest.raises(ScenarioParseError, match=message):
            parse_scenario(data)

    @pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024], ids=["10**400", "-10**400", "2**1024"])
    @pytest.mark.parametrize("field", ["valence", "arousal"])
    def test_a_sensor_value_beyond_float_range_is_refused(self, field, value):
        event = {"t": 0, "type": "set_emotion", "user": "alice", "valence": 0, "arousal": 0.5}
        with pytest.raises(ScenarioParseError, match=f"event #1: field '{field}' is beyond float range"):
            parse_scenario(scenario_dict([CONTEXT, dict(event, **{field: value})]))

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("field", ["valence", "arousal", "t"])
    def test_a_json_bool_is_not_a_number(self, field, flag):
        event = {"t": 0, "type": "set_emotion", "user": "alice", "valence": 0, "arousal": 0.5}
        parse_scenario(scenario_dict([event]))
        with pytest.raises(ScenarioParseError, match=f"'{field}'"):
            parse_scenario(scenario_dict([dict(event, **{field: flag})]))

    def test_a_subclass_of_a_json_type_is_refused(self):
        # A scenario's values are what JSON decodes, each of its exact type.
        class Name(str):
            pass

        event = {"t": 0, "type": "request", "user": Name("alice"), "object": "towel"}
        with pytest.raises(ScenarioParseError, match="event #0: field 'user' has the wrong type"):
            parse_scenario(scenario_dict([event]))

    @pytest.mark.parametrize(
        "t, message",
        [
            (-1, "'t' must be a non-negative integer"),
            (0.5, "'t' must be a non-negative integer"),
            (10**4299, "'t' has more than 4299 digits, which no trace can write"),
        ],
        ids=["negative", "not_an_int", "4300_digits"],
    )
    def test_a_t_no_trace_can_hold_is_refused(self, t, message):
        with pytest.raises(ScenarioParseError, match=f"event #1: {message}"):
            parse_scenario(scenario_dict([CONTEXT, dict(CONTEXT, t=t)]))

    @pytest.mark.parametrize("content", UNREADABLE_FILES, ids=UNREADABLE_IDS)
    @pytest.mark.parametrize("load, error", [(load_scenario, ScenarioParseError), (PolicyConfig.load, ConfigError)])
    def test_an_unreadable_file_is_refused_with_its_cause(self, tmp_path, content, load, error):
        # Both loaders read a file through one reader, which chains the
        # decoder's refusal.
        path = tmp_path / "junk.json"
        path.write_bytes(content)
        with pytest.raises(error, match=f"^cannot parse {re.escape(str(path))}: ") as refused:
            load(path)
        assert isinstance(refused.value.__cause__, (RecursionError, ValueError))

    def test_an_absent_name_is_the_files_stem(self, tmp_path):
        path = tmp_path / "kitchen_morning.json"
        path.write_text(json.dumps({"events": [CONTEXT]}), encoding="utf-8")
        assert load_scenario(path).name == "kitchen_morning"


class TestRunner:
    def test_requests_default_to_neutral_emotion_and_bare_context(self, shipped_config):
        script = parse_scenario(
            scenario_dict([{"t": 0, "type": "request", "user": "alice", "object": "towel"}])
        )
        result = run_scenario(shipped_config, script, lambda trace: None)
        assert result.allowed == 1  # neutral (0,0) is green; towel has no checks

    def test_expectation_mismatch_is_collected_not_raised(self, shipped_config):
        script = parse_scenario(
            scenario_dict(
                [CONTEXT, {"t": 1, "type": "request", "user": "alice", "object": "towel", "expect": "deny"}]
            )
        )
        result = run_scenario(shipped_config, script, lambda trace: None)
        assert not result.ok
        assert result.mismatches[0].expected == "deny"
        assert result.mismatches[0].got == "allow"

    @pytest.mark.parametrize(
        "event, note",
        [
            ({"t": 0, "type": "tag_personal", "actor": "bob", "object": "towel"}, "t=0 tag_personal rejected"),
            ({"t": 0, "type": "grant", "actor": "alice", "object": "diary", "grantee": "dave"}, "t=0 grant rejected"),
        ],
        ids=["tag_personal", "grant"],
    )
    def test_rejected_admin_events_become_notes(self, shipped_config, event, note):
        result = run_scenario(shipped_config, parse_scenario(scenario_dict([event])), lambda trace: None)
        assert result.ok
        assert len(result.notes) == 1 and result.notes[0].startswith(note)
        assert f"\n  note: {note}" in result.summary()

    def test_each_trace_is_on_disk_as_it_is_decided(self, shipped_config, tmp_path):
        path = tmp_path / "out.jsonl"
        on_disk = []

        def emit(trace):
            append_trace(log, trace)
            # A second handle sees what the OS holds, not the writer's buffer.
            with open(path, encoding="utf-8") as reader:
                on_disk.append(reader.read())

        with open(path, "w", encoding="utf-8") as log:
            run_scenario(shipped_config, load_scenario(SCENARIOS / "vehicle_ban.json"), emit)
        assert len(on_disk) == 3
        for n, text in enumerate(on_disk, 1):
            assert text.endswith("\n") and len(text.splitlines()) == n
        assert on_disk[-1] == path.read_text(encoding="utf-8")

    def test_simulated_clock_results_are_reproducible(self, shipped_config):
        script = load_scenario(SCENARIOS / "vehicle_ban.json")
        first, second = [], []
        run_scenario(shipped_config, script, first.append)
        run_scenario(shipped_config, script, second.append)
        assert [t.to_json() for t in first] == [t.to_json() for t in second]


class TestCliValidate:
    def test_default_config_validates_exit_0(self, capsys):
        assert main(["validate", "--config", DEFAULT_CONFIG]) == 0
        assert "valid" in capsys.readouterr().out

    def test_config_with_missing_matrix_row_exits_1(self, tmp_path, capsys):
        data = default_config().to_dict()
        data["matrix"].pop()
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert "missing-key" in capsys.readouterr().out

    def test_zone_hole_named_in_report(self, tmp_path, capsys):
        data = default_config().to_dict()
        data["zone_table"] = data["zone_table"][:1]
        path = tmp_path / "holey.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) == 1
        assert "uncovered-point" in capsys.readouterr().out

    @pytest.mark.parametrize("content", UNREADABLE_FILES, ids=UNREADABLE_IDS)
    def test_unparseable_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "junk.json"
        path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 2
        assert "cannot load config" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2


def config_with_zone_bound(tmp_path, text):
    """The shipped config file with zone_table[0].v_hi written as `text`."""
    data = json.loads(Path(DEFAULT_CONFIG).read_text(encoding="utf-8"))
    data["zone_table"][0]["v_hi"] = "BOUND"
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(data).replace('"BOUND"', text), encoding="utf-8")
    return str(path)


class TestCliZoneBoundPastFloatRange:
    # An int bound past float range cannot widen to a float; a float one
    # parses as infinity, which validation reports.
    REFUSAL = "cannot load config {}: malformed policy config: zone_table[0]: v_hi is an int past float range"

    def test_validate_refuses_an_int_bound_by_name(self, tmp_path, capsys):
        path = config_with_zone_bound(tmp_path, str(10**400))
        assert main(["validate", "--config", path]) == 2
        assert self.REFUSAL.format(path) in capsys.readouterr().err

    def test_run_refuses_an_int_bound_before_running(self, tmp_path, capsys):
        path = config_with_zone_bound(tmp_path, str(10**400))
        trace_path = tmp_path / "t.jsonl"
        code = main(["run", "--config", path, "--scenario", str(SCENARIOS / "vehicle_ban.json"), "--trace", str(trace_path)])
        assert code == 2
        assert not trace_path.exists()
        assert self.REFUSAL.format(path) in capsys.readouterr().err

    def test_a_float_bound_parses_and_is_out_of_bounds(self, tmp_path, capsys):
        path = config_with_zone_bound(tmp_path, "1e400")
        assert main(["validate", "--config", path]) == 1
        assert "[out-of-bounds] rect #0 (red): exceeds [-1,1]" in capsys.readouterr().out


class TestCliRun:
    def run_scenario_file(self, tmp_path, name="vehicle_ban.json", extra=()):
        trace_path = tmp_path / "out.jsonl"
        code = main(
            [
                "run",
                "--config",
                DEFAULT_CONFIG,
                "--scenario",
                str(SCENARIOS / name),
                "--trace",
                str(trace_path),
                *extra,
            ]
        )
        return code, trace_path

    def test_corpus_scenario_runs_clean(self, tmp_path, capsys):
        code, trace_path = self.run_scenario_file(tmp_path)
        assert code == 0
        assert trace_path.exists()
        assert len(read_traces(trace_path)) == 3
        out = capsys.readouterr().out
        assert "0 expectation mismatch(es)" in out

    def test_expectation_mismatch_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                scenario_dict(
                    [CONTEXT, {"t": 1, "type": "request", "user": "alice", "object": "towel", "expect": "deny"}]
                )
            )
        )
        code = main(
            ["run", "--config", DEFAULT_CONFIG, "--scenario", str(bad), "--trace", str(tmp_path / "t.jsonl")]
        )
        assert code == 1

    @pytest.mark.parametrize("content", UNREADABLE_FILES, ids=UNREADABLE_IDS)
    def test_unreadable_config_exits_2_before_running(self, tmp_path, capsys, content):
        config_path = tmp_path / "junk.json"
        config_path.write_bytes(content)
        trace_path = tmp_path / "t.jsonl"
        code = main(
            ["run", "--config", str(config_path), "--scenario", str(SCENARIOS / "vehicle_ban.json"), "--trace", str(trace_path)]
        )
        assert code == 2
        assert not trace_path.exists()
        assert "cannot load config" in capsys.readouterr().err

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        code, _ = self.run_scenario_file(tmp_path, extra=["--trace", str(tmp_path)])
        assert code == 2
        assert "cannot write traces" in capsys.readouterr().err

    def test_a_failed_write_leaves_the_lines_decided_before_it(self, tmp_path, capsys, monkeypatch):
        calls = []

        def append_until_the_third(log, trace):
            calls.append(trace.request_id)
            if len(calls) == 3:
                raise OSError("disk full")
            return append_trace(log, trace)

        monkeypatch.setattr(fetchguard.cli, "append_trace", append_until_the_third)
        code, trace_path = self.run_scenario_file(tmp_path)
        assert code == 2
        assert "cannot write traces" in capsys.readouterr().err
        assert len(trace_path.read_text(encoding="utf-8").splitlines()) == 2
        traces = read_traces(trace_path)
        assert [t.request_id for t in traces] == calls[:2]
        assert all(verify_trace(t, default_config()).ok for t in traces)

    def test_a_second_run_replaces_the_first_runs_log(self, tmp_path):
        code, trace_path = self.run_scenario_file(tmp_path)
        assert code == 0
        assert self.run_scenario_file(tmp_path, name="baseline_allow.json")[0] == 0
        fresh = tmp_path / "fresh.jsonl"
        code = self.run_scenario_file(tmp_path, name="baseline_allow.json", extra=["--trace", str(fresh)])[0]
        assert code == 0
        assert trace_path.read_bytes() == fresh.read_bytes()

    def test_invalid_config_runs_nothing(self, tmp_path, capsys):
        data = default_config().to_dict()
        data["matrix"].pop()
        config_path = tmp_path / "short.json"
        config_path.write_text(json.dumps(data))
        trace_path = tmp_path / "t.jsonl"
        code = main(
            ["run", "--config", str(config_path), "--scenario", str(SCENARIOS / "vehicle_ban.json"), "--trace", str(trace_path)]
        )
        assert code == 1
        assert not trace_path.exists()
        assert "nothing was run" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            json.dumps(scenario_dict([{"t": 0, "type": "teleport"}])).encode(),
            json.dumps(
                scenario_dict(
                    [
                        {"t": 0, "type": "request", "user": "alice", "object": "towel"},
                        {"t": 1, "type": "set_emotion", "user": "alice", "valence": 10**400, "arousal": 0},
                    ]
                )
            ).encode(),
            b'{"name": null, "events": [{"t": 0, "type": "request", "user": "alice", "object": "towel"}]}',
            # A t of 4,300 digits reads, but no trace could write it.
            json.dumps(scenario_dict([{"t": 10**4299, "type": "request", "user": "alice", "object": "towel"}])).encode(),
            json.dumps(scenario_dict([{**CONTEXT, "t": 10**4299}])).encode(),
            *UNREADABLE_FILES,
        ],
        ids=[
            "unknown_event", "valence_beyond_float_range", "null_name", "request_t_of_4300_digits",
            "context_t_of_4300_digits", *UNREADABLE_IDS,
        ],
    )
    def test_malformed_scenario_exits_2_before_running(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        trace_path = tmp_path / "t.jsonl"
        code = main(["run", "--config", DEFAULT_CONFIG, "--scenario", str(bad), "--trace", str(trace_path)])
        assert code == 2
        assert not trace_path.exists()
        assert "cannot load scenario" in capsys.readouterr().err

    def test_a_t_of_4299_digits_runs(self, tmp_path):
        t = 10**4299 - 1
        script = tmp_path / "late.json"
        script.write_text(
            json.dumps(scenario_dict([{**CONTEXT, "t": t}, {"t": t, "type": "request", "user": "alice", "object": "knife"}]))
        )
        trace_path = tmp_path / "t.jsonl"
        code = main(["run", "--config", DEFAULT_CONFIG, "--scenario", str(script), "--trace", str(trace_path)])
        assert code == 0
        (trace,) = read_traces(trace_path)
        assert trace.request["now"] == trace.request["context"]["timestamp"] == t

    def test_audit_all_flag_enriches_traces(self, tmp_path):
        code, trace_path = self.run_scenario_file(tmp_path, name="under5_denial.json", extra=["--audit-all"])
        assert code == 0
        traces = read_traces(trace_path)
        assert all(t.audit_all for t in traces)
        assert any(e.get("audit") for t in traces for e in t.events)


class TestCliExplain:
    def traces_for(self, tmp_path, name):
        trace_path = tmp_path / "out.jsonl"
        assert (
            main(
                ["run", "--config", DEFAULT_CONFIG, "--scenario", str(SCENARIOS / name), "--trace", str(trace_path)]
            )
            == 0
        )
        return trace_path

    def test_allow_decision_shows_five_passing_stages(self, tmp_path, capsys):
        trace_path = self.traces_for(tmp_path, "baseline_allow.json")
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace_path), "--request", "baseline_allow:000"]) == 0
        out = capsys.readouterr().out
        assert out.count(": pass") == 5
        assert "verdict: ALLOW" in out

    def test_red_zone_denial_names_the_emotion_stage(self, tmp_path, capsys):
        trace_path = self.traces_for(tmp_path, "red_zone_dangerous.json")
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace_path), "--request", "red_zone_dangerous:000"]) == 0
        out = capsys.readouterr().out
        assert "emotion/matrix: FAIL" in out
        assert "zone red" in out
        assert "deciding policy: emotion" in out

    def test_personal_denial_is_redacted(self, tmp_path, capsys):
        trace_path = self.traces_for(tmp_path, "privacy_personal.json")
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace_path), "--request", "privacy_personal:000"]) == 0
        out = capsys.readouterr().out
        assert "personal object, access not granted" in out
        assert "alice" not in out  # the tagger's identity stays private

    def test_unknown_request_id_exits_1(self, tmp_path, capsys):
        trace_path = self.traces_for(tmp_path, "baseline_allow.json")
        assert main(["explain", "--trace", str(trace_path), "--request", "missing:999"]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            with_decision(effective_zone="purple"),
            with_decision(allowed_groups_at_leaf=["nobody"]),
            with_decision(allowed_groups_at_leaf=5),
            with_decision(effective_zone=3),
            with_decision(effective_zone="GREEN"),
            lambda doc: [doc],
            # The reader takes these lines; their inner shapes are wrong.
            with_fields(request=[]),
            lambda doc: {**doc, "request": without("user_id")(doc["request"])},
            with_fields(events=5),
            with_event("eligibility_ok", without("node")),
            with_event("eligibility_ok", with_fields(node=7)),
            with_event("eligibility_ok", lambda event: event["node"]),
            # Inputs are the event itself from version 6 on, so a line read
            # as version 5 is the one whose inputs can be no object.
            lambda doc: with_event("ordering_ok", with_fields(inputs=[]))({**doc, "trace_version": 5}),
            with_fields(warnings=3),
        ],
        ids=[
            "unknown_zone", "unknown_group", "groups_not_a_list", "zone_not_text", "zone_upper_case",
            "line_not_an_object", "request_not_an_object", "request_without_user", "events_not_a_list",
            "event_without_node", "node_not_text", "event_not_an_object", "inputs_not_an_object",
            "warnings_not_a_list",
        ],
    )
    def test_unreadable_trace_line_exits_2(self, tmp_path, capsys, edit):
        trace_path = self.traces_for(tmp_path, "baseline_allow.json")
        doc = json.loads(trace_path.read_text(encoding="utf-8").splitlines()[0])
        trace_path.write_text(json.dumps(edit(doc)) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace_path), "--request", doc["request_id"]]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "written, version",
        [(6, 5), (7, 5), (5, 6), (5, 7)],
        ids=["v6_line_marked_5", "v7_line_marked_5", "v5_golden_line_marked_6", "v5_golden_line_marked_7"],
    )
    def test_a_line_marked_with_the_other_event_shape_exits_2(self, tmp_path, capsys, written, version):
        """Version 5 writes a check's inputs in another place than versions
        6 and 7, so a line whose version was edited across that change is
        refused, not explained without its inputs."""
        if written == 7:
            source = self.traces_for(tmp_path, "red_zone_dangerous.json")
        elif written == 6:
            source = REPO_ROOT / "tests" / "golden" / "v6" / "red_zone_dangerous.jsonl"
        else:
            source = REPO_ROOT / "tests" / "golden" / "renamed_unknown.jsonl"
        doc = json.loads(source.read_text(encoding="utf-8").splitlines()[0])
        assert doc["trace_version"] == written
        trace_path = tmp_path / "edited.jsonl"
        trace_path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace_path), "--request", doc["request_id"]]) == 0
        assert "zone " in capsys.readouterr().out
        trace_path.write_text(json.dumps({**doc, "trace_version": version}) + "\n", encoding="utf-8")
        assert main(["explain", "--trace", str(trace_path), "--request", doc["request_id"]]) == 2
        captured = capsys.readouterr()
        assert "cannot read trace" in captured.err
        assert captured.out == ""

    def test_missing_trace_file_exits_2(self, tmp_path):
        assert main(["explain", "--trace", str(tmp_path / "ghost.jsonl"), "--request", "x"]) == 2
