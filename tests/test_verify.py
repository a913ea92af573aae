"""verify_trace as an auditor uses it: many traces on one config, some of
them edited, none of them allowed to crash the audit or to change what the
next verify sees."""

import copy
import dataclasses
import functools
import importlib.util
import json
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fetchguard import (
    ContextSnapshot,
    Decision,
    DecisionEngine,
    DecisionTrace,
    EmotionSample,
    FetchRequest,
    PolicyConfig,
    ReplayError,
    UserGroup,
    default_config,
    read_traces,
    replay,
    verify_trace,
)
from fetchguard.bt import TickListener
from fetchguard.errors import FetchguardError
from fetchguard.engine import STAGES, TRACE_VERSION, _EvalState, canonical_json, redecide
from fetchguard.formats import RESERVED, STEPS, _events_as_written
from fetchguard.ordering import COOLDOWN_SCOPES, CooldownState
from fetchguard.privacy import PersonalRegistry
from reference_readers import (
    reference_cooldowns_restore,
    reference_decision_from_dict,
    reference_registry_restore,
    reference_request_from_dict,
    reference_trace_from_dict,
    reference_user_snapshot,
)
from test_golden import (
    FROZEN_FINGERPRINT,
    GOLDEN_FILES,
    STRUCTURE_NODES,
    V3,
    V3_FILES,
    V4,
    V4_FILES,
    as_version_5,
    fingerprint_of,
    slice_pre_state,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
#: The golden files decided under the frozen household, tests/golden/config.json.
FROZEN_FILES = [path for path in GOLDEN_FILES if fingerprint_of(path) == FROZEN_FINGERPRINT]


def load_default():
    return PolicyConfig.load(ROOT / "configs" / "default.json")


def load_golden():
    return PolicyConfig.load(GOLDEN / "config.json")


def make_request(user, obj, emotion=EmotionSample(0.5, 0.0), now=0, request_id="req-000"):
    context = ContextSnapshot(room="kitchen", adult_present=True, verbal_affirmation=True, timestamp=now)
    return FetchRequest(request_id, user, obj, emotion, context, now)


def copy_of(trace):
    return DecisionTrace.from_dict(json.loads(trace.to_json()))


def refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def golden_traces():
    """The plain and the audit golden lines decided under the frozen household."""
    plain = [t for p in FROZEN_FILES if p.parent == GOLDEN for t in read_traces(p)]
    audit = [t for p in FROZEN_FILES if p.parent != GOLDEN for t in read_traces(p)]
    return plain, audit


def decide_mid_session(config):
    """A trace whose pre-state holds an active dangerous cool-down and the
    initial personal tag."""
    engine = DecisionEngine(config)
    engine.decide(make_request("alice", "knife", now=0))
    _, trace = engine.decide(make_request("alice", "knife", now=60, request_id="req-001"))
    assert trace.pre_state["cooldowns"]["users"]["alice"]["active"] == {"dangerous": 1800}
    assert verify_trace(trace, config).ok
    return trace


@pytest.fixture()
def mid_session_trace(shipped_config):
    return decide_mid_session(shipped_config)


def with_fixed_facts(pre_state, config, board_primed=True):
    """A version 6 pre-state as versions 2 to 5 wrote it: with the config's
    cool-down scope, and board_primed, which any bool verifies."""
    return {
        "cooldowns": {"scope": config.cooldown_scope, **pre_state["cooldowns"]},
        "personal_registry": pre_state["personal_registry"],
        "board_primed": board_primed,
    }


def as_legacy(trace, version, pre_state):
    """A current trace as version 1 to 5 wrote it, given the pre-state that
    version wrote. The event stream is rebuilt by the function verify_trace
    uses; the golden tests pin that function to the committed version 1, 3,
    4 and 5 lines."""
    old = copy_of(trace)
    old.pre_state, old.trace_version = copy.deepcopy(pre_state), version
    old.events = _events_as_written(old, version)
    return old


def as_version_5_trace(trace, config, board_primed=True):
    return as_legacy(trace, 5, with_fixed_facts(trace.pre_state, config, board_primed))


def _unknown_safety_class(trace):
    trace.pre_state["cooldowns"]["users"]["alice"]["active"] = {"spooky": 1800}


def _missing_cooldowns(trace):
    del trace.pre_state["cooldowns"]


def _galaxy_scope(trace):
    trace.pre_state["cooldowns"]["scope"] = "galaxy"


def _non_integer_expiry(trace):
    trace.pre_state["cooldowns"]["users"]["alice"]["active"]["dangerous"] = "soon"


def _null_valence(trace):
    trace.request["emotion"]["valence"] = None


def _half_restorable(trace):
    # The cool-downs restore; the registry entry lacks its tagger.
    trace.pre_state["cooldowns"]["users"]["alice"]["active"] = {"mind_altering": 99999}
    trace.pre_state["personal_registry"] = {"diary": {"grants": []}}


def _undecidable(trace):
    # A last request that is not an object id is refused when the
    # cool-downs are restored, before anything is decided.
    trace.pre_state["cooldowns"]["users"]["alice"]["last_requested"] = 5
    trace.pre_state["board_primed"] = True


def _text_now(trace):
    trace.request["now"] = "x"


def _fractional_timestamp(trace):
    trace.request["context"]["timestamp"] = 1.5


def _text_flag(trace):
    trace.request["context"]["adult_present"] = "yes"


def _text_expiry(trace):
    trace.pre_state["cooldowns"]["users"]["alice"]["active"]["dangerous"] = "1800"


def _fractional_expiry(trace):
    trace.pre_state["cooldowns"]["users"]["alice"]["active"]["dangerous"] = 1800.9


def _flag_expiry(trace):
    trace.pre_state["cooldowns"]["users"]["alice"]["active"]["dangerous"] = True


def _numeric_board_primed(trace):
    trace.pre_state["board_primed"] = 1


def _non_finite_board_primed(trace):
    trace.pre_state["board_primed"] = math.nan


def _numeric_tagger(trace):
    trace.pre_state["personal_registry"] = {"knife": {"tagged_by": 7, "grants": []}}


def _grants_as_an_object(trace):
    trace.pre_state["personal_registry"] = {"knife": {"tagged_by": "alice", "grants": {"bob": 1}}}


def _numeric_grantee(trace):
    trace.pre_state["personal_registry"] = {"knife": {"tagged_by": "alice", "grants": ["bob", 7]}}


def _scope_deleted(trace):
    del trace.pre_state["cooldowns"]["scope"]


def _users_deleted(trace):
    del trace.pre_state["cooldowns"]["users"]


def _last_requested_deleted(trace):
    del trace.pre_state["cooldowns"]["users"]["alice"]["last_requested"]


def _active_deleted(trace):
    del trace.pre_state["cooldowns"]["users"]["alice"]["active"]


def _grants_deleted(trace):
    # The requested knife is untagged here, so the edit adds an entry that
    # lacks only its grants.
    trace.pre_state["personal_registry"] = {"knife": {"tagged_by": "alice"}}


def _board_primed_deleted(trace):
    del trace.pre_state["board_primed"]


def _fixed_facts_deleted(trace):
    # Left with the shape version 6 writes, on a line of an older version.
    del trace.pre_state["cooldowns"]["scope"], trace.pre_state["board_primed"]


def _neither_window(trace):
    # The engine arms windows only for dangerous and mind_altering objects.
    trace.pre_state["cooldowns"]["users"]["alice"]["active"]["neither"] = 1800


def _household_scope(trace):
    # A user-scope line dressed as a household-scope one: the slice is
    # consistent with itself, but the config keeps cool-downs per user.
    cooldowns = trace.pre_state["cooldowns"]
    cooldowns["scope"] = "household"
    cooldowns["users"] = {"__household__": cooldowns["users"].pop("alice")}


EDITS = [
    (_unknown_safety_class, "recorded pre_state cannot be restored"),
    (_missing_cooldowns, "recorded pre_state cannot be restored"),
    (_galaxy_scope, "recorded pre_state cannot be restored"),
    (_non_integer_expiry, "recorded pre_state cannot be restored"),
    (_null_valence, "recorded request cannot be read"),
    (_half_restorable, "recorded pre_state cannot be restored"),
    (_undecidable, "recorded pre_state cannot be restored"),
    (_text_now, "recorded request cannot be read"),
    (_fractional_timestamp, "recorded request cannot be read"),
    (_text_flag, "recorded request cannot be read"),
    (_text_expiry, "recorded pre_state cannot be restored"),
    (_fractional_expiry, "recorded pre_state cannot be restored"),
    (_flag_expiry, "recorded pre_state cannot be restored"),
    (_numeric_board_primed, "recorded pre_state cannot be restored"),
    (_non_finite_board_primed, "recorded pre_state cannot be restored"),
    (_numeric_tagger, "recorded pre_state cannot be restored"),
    (_grants_as_an_object, "recorded pre_state cannot be restored"),
    (_numeric_grantee, "recorded pre_state cannot be restored"),
    (_scope_deleted, "recorded pre_state cannot be restored"),
    (_users_deleted, "recorded pre_state cannot be restored"),
    (_last_requested_deleted, "recorded pre_state cannot be restored"),
    (_active_deleted, "recorded pre_state cannot be restored"),
    (_grants_deleted, "recorded pre_state cannot be restored"),
    (_board_primed_deleted, "recorded pre_state cannot be restored"),
    (_fixed_facts_deleted, "recorded pre_state cannot be restored"),
    (_neither_window, "recorded pre_state cannot be restored"),
    (_household_scope, "recorded pre_state cannot be restored"),
]
#: The edits to what only lines before version 6 hold, the cool-down scope
#: and board_primed, which run on the trace as version 5 wrote it.
ON_VERSION_5 = {
    _galaxy_scope, _undecidable, _numeric_board_primed, _non_finite_board_primed, _scope_deleted,
    _board_primed_deleted, _fixed_facts_deleted, _household_scope,
}


def edited_copy(trace, config, edit):
    """A copy of a fresh trace, as version 5 wrote it if ON_VERSION_5 names
    the edit, with the edit applied."""
    edited = as_version_5_trace(trace, config) if edit in ON_VERSION_5 else copy_of(trace)
    assert verify_trace(edited, config).ok
    edit(edited)
    return edited


class TestEditedTracesFailClosed:
    @pytest.mark.parametrize("edit, named", EDITS, ids=lambda e: getattr(e, "__name__", ""))
    def test_edit_is_a_named_mismatch_not_an_exception(self, shipped_config, mid_session_trace, edit, named):
        edited = edited_copy(mid_session_trace, shipped_config, edit)
        result = verify_trace(edited, shipped_config)
        assert (result.ok, result.decision) == (False, None)
        assert len(result.mismatches) == 1
        assert result.mismatches[0].startswith(named)
        with pytest.raises(ReplayError):
            replay(edited, shipped_config)

    @pytest.mark.parametrize("edit, named", EDITS, ids=lambda e: getattr(e, "__name__", ""))
    def test_next_verify_after_a_failed_one_is_unaffected(self, mid_session_trace, edit, named):
        config = load_default()
        first_engine = DecisionEngine(config)
        _, first = first_engine.decide(make_request("alice", "towel"))
        assert first.pre_state == {"cooldowns": {"users": {}}, "personal_registry": {}}
        tampered = copy_of(mid_session_trace)
        tampered.request["context"]["verbal_affirmation"] = False
        expected = [verify_trace(t, load_default()) for t in (mid_session_trace, first, tampered)]

        edited = edited_copy(mid_session_trace, config, edit)
        assert not verify_trace(edited, config).ok
        assert [verify_trace(t, config) for t in (mid_session_trace, first, tampered)] == expected
        assert [r.ok for r in expected] == [True, True, False]

    def test_a_user_scope_line_on_a_household_config_is_refused(self, shipped_config):
        data = shipped_config.to_dict()
        data["cooldown_scope"] = "household"
        household = PolicyConfig.from_dict(data)
        engine = DecisionEngine(household)
        engine.decide(make_request("alice", "knife", now=0))
        _, trace = engine.decide(make_request("alice", "knife", now=60, request_id="req-001"))
        assert verify_trace(trace, household).ok
        edited = as_version_5_trace(trace, household)
        assert verify_trace(edited, household).ok
        cooldowns = edited.pre_state["cooldowns"]
        cooldowns["scope"] = "user"
        cooldowns["users"] = {"alice": cooldowns["users"].pop("__household__")}
        result = verify_trace(edited, household)
        assert len(result.mismatches) == 1
        assert result.mismatches[0].startswith("recorded pre_state cannot be restored")

    @pytest.mark.parametrize("expiry", ["1800", 1800.9, True])
    def test_a_golden_expiry_that_is_not_an_int_is_refused(self, golden_config, expiry):
        line = (GOLDEN / "repeat_dangerous_green.jsonl").read_text(encoding="utf-8").splitlines()[1]
        data = json.loads(line)
        assert data["request_id"] == "repeat_dangerous_green:001"
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        data["pre_state"]["cooldowns"]["users"]["alice"]["active"]["dangerous"] = expiry
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert len(result.mismatches) == 1
        assert result.mismatches[0].startswith("recorded pre_state cannot be restored")


def _golden_privacy_line():
    line = (GOLDEN / "privacy_personal.jsonl").read_text(encoding="utf-8").splitlines()[2]
    data = json.loads(line)
    assert data["request_id"] == "privacy_personal:002"
    assert data["pre_state"]["personal_registry"] == {"diary": {"tagged_by": "alice", "grants": ["bob"]}}
    return data


class TestWindowsOnlyForFlaggedClasses:
    @pytest.mark.parametrize("path, deciding", [
        ("under5_denial.jsonl", "eligibility"),
        ("repeat_dangerous_green.jsonl", "none"),
    ])
    def test_a_neither_window_is_refused_wherever_the_line_is_decided(self, golden_config, path, deciding):
        # A line denied before the emotion gate never reads the window, so
        # only the restore can refuse it.
        data = json.loads((GOLDEN / path).read_text(encoding="utf-8").splitlines()[0])
        assert data["decision"]["deciding_policy"] == deciding
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        users = data["pre_state"]["cooldowns"]["users"]
        record = users.setdefault(data["request"]["user_id"], {"last_requested": None, "active": {}})
        record["active"]["neither"] = 10**9
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert (result.ok, result.decision) == (False, None)
        assert len(result.mismatches) == 1
        assert result.mismatches[0].startswith("recorded pre_state cannot be restored")


class TestRequestIdCompared:
    @pytest.mark.parametrize("forged", ["privacy_personal:003", "", 7, None])
    def test_an_edit_to_only_the_line_request_id_is_one_named_mismatch(self, golden_config, forged):
        data = _golden_privacy_line()
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        data["request_id"] = forged
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert result.mismatches == ["request_id differs from the recorded request"]
        assert not result.ok and result.decision is not None

    def test_every_golden_line_carries_one_request_id(self):
        traces = [t for p in GOLDEN_FILES for t in read_traces(p)]
        assert all(t.request_id == t.request["request_id"] for t in traces)


class TestRequestComparedWithTheRerun:
    @pytest.mark.parametrize("where", [(), ("context",), ("emotion",)], ids=["request", "context", "emotion"])
    def test_a_key_added_to_a_recorded_request_is_one_named_mismatch(
        self, golden_config, shipped_config, mid_session_trace, where
    ):
        golden = json.loads((GOLDEN / "vehicle_ban.jsonl").read_text(encoding="utf-8").splitlines()[0])
        for data, config in ((golden, golden_config), (json.loads(mid_session_trace.to_json()), shipped_config)):
            assert verify_trace(DecisionTrace.from_dict(data), config).ok
            block = data["request"]
            for step in where:
                block = block[step]
            block["foo"] = 1
            result = verify_trace(DecisionTrace.from_dict(data), config)
            assert result.mismatches == ["request differs from the re-run's request"]
            assert not result.ok and result.decision is not None

    @pytest.mark.parametrize("where", [(), ("context",), ("emotion",)], ids=["request", "context", "emotion"])
    def test_a_key_added_in_memory_to_a_fresh_traces_request_is_named(self, shipped_config, where):
        # A trace straight from decide() holds one request dict, as its
        # request and as knowledge_check's echo, so the edit reaches both.
        _, trace = DecisionEngine(shipped_config).decide(make_request("alice", "towel"))
        assert trace.request is trace.events[0]["request"]
        block = trace.request
        for step in where:
            block = block[step]
        block["foo"] = 1
        result = verify_trace(trace, shipped_config)
        assert "request differs from the re-run's request" in result.mismatches
        assert not result.ok and result.decision is not None

    def test_a_non_finite_sensor_value_put_in_memory_is_named(self, shipped_config):
        # The re-run writes the token the line would hold, not the float.
        _, trace = DecisionEngine(shipped_config).decide(make_request("alice", "towel"))
        trace.request["emotion"]["valence"] = math.nan
        result = verify_trace(trace, shipped_config)
        assert "request differs from the re-run's request" in result.mismatches
        assert not result.ok


def _golden_grants_as_an_object(entry):
    entry["grants"] = {"bob": 1}


def _golden_numeric_tagger(entry):
    entry["tagged_by"] = 7


def _golden_grants_deleted(entry):
    del entry["grants"]


#: Every key but trace_version that a line must carry, as paths into it.
REQUIRED_KEYS = [
    ("audit_all",),
    ("warnings",),
    ("pre_state", "cooldowns", "scope"),
    ("pre_state", "cooldowns", "users"),
    ("pre_state", "cooldowns", "users", "alice", "last_requested"),
    ("pre_state", "cooldowns", "users", "alice", "active"),
    ("pre_state", "personal_registry", "diary", "grants"),
    ("pre_state", "board_primed"),
]


class TestEveryKeyRequired:
    @pytest.mark.parametrize("path", REQUIRED_KEYS, ids=lambda path: ".".join(path))
    def test_a_golden_line_missing_a_key_is_a_named_failure(self, golden_config, path):
        # A version 1 line: its pre-state is not compared, so only the
        # restore stands between a deleted key and a verified line.
        data = _golden_privacy_line()
        assert "trace_version" not in data
        *parents, key = path
        parent = data
        for step in parents:
            parent = parent[step]
        del parent[key]
        if path[0] != "pre_state":
            with pytest.raises(KeyError, match=key):
                DecisionTrace.from_dict(data)
            return
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert result.mismatches == [f"recorded pre_state cannot be restored: {KeyError(key)!r}"]

    def test_a_golden_line_missing_both_fixed_facts_is_a_named_failure(self, golden_config):
        # Without its scope and board_primed a version 1 pre-state has the
        # shape version 6 writes; the line's version still asks for both.
        data = _golden_privacy_line()
        del data["pre_state"]["cooldowns"]["scope"], data["pre_state"]["board_primed"]
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert result.mismatches == [f"recorded pre_state cannot be restored: {KeyError('scope')!r}"]

    @pytest.mark.parametrize("extra", [{"foo": 1}, {"trace_version": 1}], ids=["unknown_key", "explicit_version_1"])
    def test_a_golden_line_with_a_key_the_engine_does_not_write_is_refused_on_read(self, extra):
        data = json.loads((GOLDEN / "vehicle_ban.jsonl").read_text(encoding="utf-8").splitlines()[0])
        assert DecisionTrace.from_dict(data).to_dict() == data
        with pytest.raises(ValueError, match=re.escape(f"keys the engine does not write: {sorted(extra)}")):
            DecisionTrace.from_dict({**data, **extra})

    def test_a_version_3_line_with_an_unknown_key_is_refused_on_read(self, mid_session_trace):
        data = json.loads(mid_session_trace.to_json())
        data["foo"] = 1
        with pytest.raises(ValueError, match="keys the engine does not write"):
            DecisionTrace.from_dict(data)

    @pytest.mark.parametrize("flag", [1, 0, "yes", None, [0]], ids=repr)
    def test_an_audit_all_that_is_not_a_bool_is_refused_on_read(self, mid_session_trace, flag):
        data = json.loads(mid_session_trace.to_json())
        data["audit_all"] = flag
        with pytest.raises(TypeError, match="audit_all must be bool"):
            DecisionTrace.from_dict(data)

    def test_warnings_as_text_are_not_read_as_a_list(self, shipped_config, mid_session_trace):
        data = json.loads(mid_session_trace.to_json())
        assert data["warnings"] == []
        data["warnings"] = ""
        result = verify_trace(DecisionTrace.from_dict(data), shipped_config)
        assert result.mismatches == ["warnings differ from the recorded warnings"]


class TestRegistryTakenAsRecorded:
    @pytest.mark.parametrize(
        "edit", [_golden_grants_as_an_object, _golden_numeric_tagger, _golden_grants_deleted], ids=lambda e: e.__name__
    )
    def test_a_golden_registry_entry_of_the_wrong_type_is_refused(self, golden_config, edit):
        data = _golden_privacy_line()
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        edit(data["pre_state"]["personal_registry"]["diary"])
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert len(result.mismatches) == 1
        assert result.mismatches[0].startswith("recorded pre_state cannot be restored")


def _zone_upper_case(decision):
    decision["effective_zone"] = decision["effective_zone"].upper()


def _group_repeated(decision):
    decision["allowed_groups_at_leaf"].append(decision["allowed_groups_at_leaf"][-1])


def _groups_reversed(decision):
    decision["allowed_groups_at_leaf"].reverse()


GROUP_NAMES = [g.value for g in UserGroup]
ZONE_TEXTS = ["green", "yellow", "orange", "red", "GREEN", "Red"]
DECISION_BLOCKS = st.fixed_dictionaries(
    {
        "verdict": st.sampled_from(["allow", "deny"]),
        "deciding_policy": st.sampled_from(["none", "emotion", "personal"]),
        "reason": st.sampled_from(["no policy violation", "personal object, access not granted"]),
        "effective_zone": st.sampled_from(ZONE_TEXTS),
        "allowed_groups_at_leaf": st.lists(st.sampled_from(GROUP_NAMES), max_size=4)
        | st.sets(st.sampled_from(GROUP_NAMES), max_size=4).map(sorted),
    }
)


def _written_form(data):
    """The block the engine would write for the decision `data` names."""
    return {
        **data,
        "effective_zone": data["effective_zone"].lower(),
        "allowed_groups_at_leaf": sorted(set(data["allowed_groups_at_leaf"])),
    }


def _read_decision(data):
    try:
        return Decision.from_dict(data)
    except ValueError:
        assert data != _written_form(data)
        return None


class TestDecisionBlockAsWritten:
    @pytest.mark.parametrize(
        "edit, message",
        [
            # A zone text matches exactly, as every enum text does.
            (_zone_upper_case, "unknown zone 'GREEN'"),
            (_group_repeated, "not in the form the engine writes"),
            (_groups_reversed, "not in the form the engine writes"),
        ],
        ids=["_zone_upper_case", "_group_repeated", "_groups_reversed"],
    )
    def test_a_golden_decision_block_the_engine_would_not_write_is_refused(self, golden_config, edit, message):
        data = _golden_privacy_line()
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        edit(data["decision"])
        with pytest.raises(ValueError, match=message):
            DecisionTrace.from_dict(data)

    @pytest.mark.parametrize("group", ["purple", ["HA"], 3])
    def test_a_group_that_is_no_group_text_is_a_value_error(self, group):
        data = _golden_privacy_line()["decision"]
        data["allowed_groups_at_leaf"] = [group]
        with pytest.raises(ValueError, match="is not a valid UserGroup"):
            Decision.from_dict(data)
        with pytest.raises(ValueError):
            UserGroup(group)

    @settings(max_examples=300, deadline=None)
    @given(first=DECISION_BLOCKS, second=DECISION_BLOCKS)
    def test_decisions_differ_as_values_exactly_when_their_blocks_differ(self, first, second):
        a, b = _read_decision(first), _read_decision(second)
        if a is not None:
            assert canonical_json(a.to_dict()) == canonical_json(first)
        if a is not None and b is not None:
            assert (a != b) == (canonical_json(first) != canonical_json(second))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def _outcome(dump, value):
    try:
        return dump(value)
    except ValueError:
        return ValueError


class TestStrictJson:
    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_canonical_json_writes_what_json_dumps_writes(self, value):
        def dumps(data):
            return json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)

        assert _outcome(canonical_json, value) == _outcome(dumps, value)

    @pytest.mark.parametrize(
        "valence, arousal",
        [(math.nan, 0.0), (math.inf, -math.inf), (-math.inf, math.nan)],
    )
    def test_non_finite_emotion_decides_and_its_trace_is_strict_json(self, shipped_config, valence, arousal):
        engine = DecisionEngine(shipped_config)
        decision, trace = engine.decide(make_request("alice", "towel", emotion=EmotionSample(valence, arousal)))
        assert decision.verdict in ("allow", "deny")
        line = trace.to_json()
        parsed = DecisionTrace.from_dict(json.loads(line, parse_constant=refuse_constant))
        assert parsed.to_json() == line
        assert verify_trace(parsed, shipped_config).ok
        restored = FetchRequest.from_dict(parsed.request).emotion
        for got, want in ((restored.valence, valence), (restored.arousal, arousal)):
            assert (math.isnan(got) and math.isnan(want)) or got == want

    @settings(max_examples=60, deadline=None)
    @given(
        valence=st.floats(allow_nan=True, allow_infinity=True),
        arousal=st.floats(allow_nan=True, allow_infinity=True),
        user=st.sampled_from(["alice", "bob", "dave", "grace", "stranger"]),
        obj=st.sampled_from(["knife", "sleeping_pills", "car_keys", "diary", "anvil"]),
    )
    def test_any_sensor_value_gives_a_strict_trace_that_verifies(self, shipped_config, valence, arousal, user, obj):
        engine = DecisionEngine(shipped_config)
        _, trace = engine.decide(make_request(user, obj, emotion=EmotionSample(valence, arousal)))
        parsed = DecisionTrace.from_dict(json.loads(trace.to_json(), parse_constant=refuse_constant))
        assert verify_trace(parsed, shipped_config).ok

    def test_canonical_json_refuses_bare_non_finite_numbers(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    @pytest.mark.parametrize("value", ["nan", "1.5", [0.1]])
    def test_other_sensor_strings_and_shapes_are_refused_on_read(self, value):
        data = make_request("alice", "towel").to_dict()
        data["emotion"]["arousal"] = value
        with pytest.raises((TypeError, ValueError)):
            FetchRequest.from_dict(data)


def stdlib_json(trace):
    """The oracle for to_json: the standard library's strict, sorted, compact
    JSON of the trace's dict."""
    return json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False)


def written(write, trace):
    """What write(trace) returns, or the type of what it raises."""
    try:
        return write(trace)
    except Exception as exc:
        return type(exc)


def _listed(trace):
    return trace.events if isinstance(trace.events, list) else []


def _first(trace):
    first = trace.events[0] if trace.events else None
    return first if isinstance(first, dict) else {}


#: The text to_json writes in place of a fresh trace's request while it
#: writes the rest, and a text that writes it too, after an escaped quote.
MARKS = ["\x00request", 'a"\x00request']
ORACLE_SENSORS = st.sampled_from([0.5, -0.3, -0.9, 0.9, 0, 1, 2.5, math.nan, math.inf, -math.inf, 10**400, -(2**1024)])
ORACLE_REQUESTS = st.builds(
    lambda user, obj, valence, arousal, now, request_id: make_request(
        user, obj, EmotionSample(valence, arousal), now, request_id
    ),
    st.sampled_from(["alice", "bob", "dave", "grace", "stranger", *MARKS]),
    st.sampled_from(["knife", "sleeping_pills", "car_keys", "towel", "diary", "anvil"]),
    ORACLE_SENSORS,
    ORACLE_SENSORS,
    st.integers(0, 20_000),
    st.text(max_size=3) | st.sampled_from(MARKS),
)
#: Edits to a decided trace in memory, by name. Some keep its echo the
#: request itself, some break that in each way a line read back can, and
#: some put in a value that JSON cannot hold.
TRACE_EDITS = {
    "echo an equal copy": lambda t: _first(t).update(request=copy.deepcopy(t.request)),
    "echo now as a float": lambda t: _first(t).update(request={**t.request, "now": float(t.request["now"])}),
    "echo gone": lambda t: _first(t).pop("request", None),
    "echo beside another input": lambda t: _first(t).update(extra=1),
    "echo nested as version 5 wrote it": lambda t: _first(t).update(inputs={"request": _first(t).pop("request", None)}),
    "first event with another key": lambda t: _first(t).update(audit=True),
    "first event renamed": lambda t: _first(t).update(node="knowledge_check_"),
    "first event last": lambda t: (events := _listed(t)) and events.append(events.pop(0)),
    "first event a list": lambda t: (events := _listed(t)) and events.__setitem__(0, ["knowledge_check"]),
    "no events": lambda t: setattr(t, "events", []),
    "events a tuple": lambda t: setattr(t, "events", tuple(t.events)),
    "request a copy": lambda t: setattr(t, "request", copy.deepcopy(t.request)),
    "request edited in place": lambda t: t.request.update(now=t.request["now"] + 1, room=MARKS[0]),
    "a warning": lambda t: t.warnings.append("a note"),
    "warnings hold the marks": lambda t: t.warnings.extend(MARKS),
    "request_id an int": lambda t: setattr(t, "request_id", 7),
    "request_id ends in a mark": lambda t: setattr(t, "request_id", MARKS[1]),
    "request_id a dict": lambda t: setattr(t, "request_id", {"b": [1.5, None]}),
    "fingerprint null": lambda t: setattr(t, "config_fingerprint", None),
    "fingerprint a list": lambda t: setattr(t, "config_fingerprint", [MARKS[0]]),
    "version 1": lambda t: setattr(t, "trace_version", 1),
    "NaN in pre_state": lambda t: t.pre_state.update(x=math.nan),
    "an object in pre_state": lambda t: t.pre_state.update(y=object()),
    "a long int in pre_state": lambda t: t.pre_state.update(z=10**5000),
    "an object in the request": lambda t: t.request.update(x=object()),
    "infinity in the request": lambda t: t.request.update(y=math.inf),
    "fingerprint an object": lambda t: setattr(t, "config_fingerprint", object()),
}


class TestToJsonIsTheStdlibsJson:
    # Two faults, one in the request: the stdlib refuses the one it meets
    # first in key order, the request first within events.
    @example(audit_all=False, requests=[make_request("alice", "towel")],
             edits=["an object in the request", "NaN in pre_state"])
    @example(audit_all=False, requests=[make_request("alice", "towel")],
             edits=["infinity in the request", "fingerprint an object"])
    @settings(max_examples=300, deadline=None)
    @given(
        audit_all=st.booleans(),
        requests=st.lists(ORACLE_REQUESTS, min_size=1, max_size=4),
        edits=st.lists(st.sampled_from(list(TRACE_EDITS)), max_size=4),
    )
    def test_a_decided_trace_and_any_edit_of_it(self, shipped_config, audit_all, requests, edits):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        traces = [engine.decide(request)[1] for request in requests]
        for trace in traces:
            assert trace.to_json() == stdlib_json(trace)
        trace = traces[-1]
        for edit in edits:
            TRACE_EDITS[edit](trace)
            assert written(DecisionTrace.to_json, trace) == written(stdlib_json, trace)

    def test_every_golden_line(self):
        paths = GOLDEN_FILES + V3_FILES + V4_FILES
        traces = [trace for path in paths for trace in read_traces(path)]
        assert {trace.trace_version for trace in traces} == {1, 3, 4, 5}
        assert any(trace.audit_all for trace in traces)
        for trace in traces:
            assert trace.to_json() == stdlib_json(trace)


_MIX_SPEC = importlib.util.spec_from_file_location("perfbench_mix", ROOT / "perfbench" / "mix.py")
mix = importlib.util.module_from_spec(_MIX_SPEC)
# Registered before it runs: its dataclasses look their module up.
sys.modules["perfbench_mix"] = mix
_MIX_SPEC.loader.exec_module(mix)


def _mix_lines(config, prefix, audit_all, count):
    """Lines decided on the benchmark's seeded household traffic
    (perfbench/mix.py), its registry writes applied as they come."""
    engine = DecisionEngine(config, audit_all=audit_all)
    stream = mix.EventStream(config, 17, prefix)
    lines = []
    while len(lines) < count:
        event = stream.next_event()
        if isinstance(event, mix.Write):
            try:
                if event.grantee is None:
                    engine.apply_tag(event.actor, event.object_id)
                else:
                    engine.apply_grant(event.actor, event.object_id, event.grantee)
            except FetchguardError:
                pass
            continue
        lines.append(engine.decide(event)[1].to_json())
    return lines


#: household_mix lines first, then audit_all lines, then every golden line
#: (versions 1 and 5, plain and audit).
READER_LINES = (
    _mix_lines(default_config(), "hm", False, 40)
    + _mix_lines(default_config(), "ar", True, 40)
    + [line for path in GOLDEN_FILES for line in path.read_text(encoding="utf-8").splitlines()]
)


class Text(str):
    """A str subclass, as a decoder hook could hand over."""


def _swap_bool_int(value):
    if type(value) is bool:
        return int(value)
    return bool(value % 2) if type(value) is int else value


def _as_float(value):
    if type(value) is float:
        return value + 0.5
    # An int past the float range, such as 10**400, has no float to become.
    return float(value) if type(value) is int and abs(value) <= sys.float_info.max else value


def _other_case(value):
    return (value.upper() if value.islower() else value.lower()) if isinstance(value, str) else value


def _as_text(value):
    return Text(value) if isinstance(value, str) else value


def _unsorted(value):
    return value[::-1] if isinstance(value, list) else value


def _repeated(value):
    return value + value[:1] if isinstance(value, list) else value


#: A step that names the first key of a block keyed by an id: a pre-state's
#: cool-down record or registry entry.
ANY = "<any>"
USERS = ("pre_state", "cooldowns", "users", ANY)
ENTRY = ("pre_state", "personal_registry", ANY)
#: The values the readers and the pre-state restores read, by their path in
#: a line; an int step is a list's item. A window for "neither" is one the
#: engine never arms.
READ_PATHS = [
    ("trace_version",), ("request_id",), ("config_fingerprint",), ("audit_all",), ("request",),
    ("pre_state",), ("warnings",), ("events",), ("decision",),
    ("request", "request_id"), ("request", "user_id"), ("request", "object_id"), ("request", "now"),
    ("request", "emotion"), ("request", "context"),
    ("request", "emotion", "valence"), ("request", "emotion", "arousal"),
    ("request", "context", "room"), ("request", "context", "adult_present"),
    ("request", "context", "verbal_affirmation"), ("request", "context", "timestamp"),
    ("decision", "verdict"), ("decision", "deciding_policy"), ("decision", "reason"),
    ("decision", "effective_zone"), ("decision", "allowed_groups_at_leaf"),
    USERS + ("last_requested",), USERS + ("active", "dangerous"), USERS + ("active", "mind_altering"),
    USERS + ("active", "neither"), ENTRY + ("tagged_by",), ENTRY + ("grants",), ENTRY + ("grants", 0),
]
#: The objects a reader requires exactly the keys of.
OBJECT_PATHS = [(), ("request",), ("request", "emotion"), ("request", "context"), ("decision",)]
TRANSFORMS = [_swap_bool_int, _as_float, _other_case, _as_text, _unsorted, _repeated]
GROUP_LISTS = st.lists(
    st.sampled_from(GROUP_NAMES + ["purple", "", "ha", 3, None, 1.5, True, ["HA"], {"HA": 1}]), max_size=4
)
ODD_VALUES = GROUP_LISTS | st.sampled_from(
    [True, False, 0, 1, 5, 6, 2.5, -1.0, None, "NaN", "Infinity", "-Infinity", "nan", "inf", "bogus",
     "Yellow", "U", {"U": 1}, [], {}, Text("alice"), Text("NaN"), "alice", 10**400]
)
READER_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(READ_PATHS), ODD_VALUES),
    st.tuples(st.just("map"), st.sampled_from(READ_PATHS), st.sampled_from(TRANSFORMS)),
    st.tuples(st.just("drop"), st.sampled_from(READ_PATHS), st.none()),
    st.tuples(st.just("add"), st.sampled_from(OBJECT_PATHS), st.sampled_from(["foo", "trace_version", "Verdict"])),
)


def _key_in(block, step):
    """The key or index that `step` names in block, present or not, or None
    when it names none: ANY a dict's first key, an int a list's item."""
    if isinstance(block, dict):
        return next(iter(block), None) if step == ANY else step
    if isinstance(block, list) and type(step) is int and step < len(block):
        return step
    return None


def _within(data, path):
    for step in path:
        key = _key_in(data, step)
        if key is None or (isinstance(data, dict) and key not in data):
            return None
        data = data[key]
    return data


def _apply_reader_edit(data, edit):
    """One edit; an edit whose place an earlier edit removed does nothing."""
    kind, path, arg = edit
    if kind == "add":
        block = _within(data, path)
        if isinstance(block, dict):
            block[arg] = 1
        return
    block = _within(data, path[:-1])
    key = _key_in(block, path[-1])
    if key is None:
        return
    present = key in block if isinstance(block, dict) else True
    if kind == "drop":
        if present:
            del block[key]
    elif kind == "set":
        block[key] = copy.deepcopy(arg)
    elif present:
        block[key] = arg(block[key])


def _read_with(reader, data):
    try:
        return "read", reader(data)
    except Exception as exc:  # the exception's type and text are compared
        return "refused", type(exc), str(exc)


#: The requesters a roster-scoped restore keeps records of their own for.
READER_ROSTER = frozenset(user.user_id for user in default_config().users)


def _cooldowns_read(restore, user_slice, snapshot, scope):
    """What a cool-down restore under `scope` holds, and the one-record
    slice it writes for each of its record keys and for a requester on and
    off the roster; reprs, so that types and key order count too."""
    state = restore(snapshot, scope=scope, roster=READER_ROSTER)
    slices = [user_slice(state, uid) for uid in [*state._records, "alice", "mallory"]]
    return state.scope, state.roster, repr(state._records), repr(slices)


def _registry_read(restore, snapshot):
    registry = restore(snapshot)
    return repr(registry._tags), registry.snapshot()


def _first_line(test):
    """The first reader line whose pre-state passes `test` on its first
    cool-down record and its first registry entry."""
    for index, line in enumerate(READER_LINES):
        pre_state = json.loads(line)["pre_state"]
        record = next(iter(pre_state["cooldowns"]["users"].values()), {})
        if test(record, next(iter(pre_state["personal_registry"].values()), {})):
            return index
    raise AssertionError("no reader line passes the test")


BOTH_WINDOWS = _first_line(lambda record, entry: len(record.get("active", {})) == 2)
GRANTED = _first_line(lambda record, entry: bool(entry.get("grants")))


class TestReadersAgreeWithTheReferences:
    """The readers and the pre-state restores against their earlier form
    (tests/reference_readers.py), on real lines edited the ways a line can
    be wrong: equal objects, or the same exception with the same text."""

    GROUPS = ("decision", "allowed_groups_at_leaf")
    CONTEXT = ("request", "context")
    EMOTION = ("request", "emotion")

    @settings(max_examples=500, deadline=None)
    @given(line=st.integers(0, len(READER_LINES) - 1), edits=st.lists(READER_EDITS, max_size=3))
    @example(line=0, edits=[])
    @example(line=0, edits=[("set", GROUPS, "U")])
    @example(line=0, edits=[("set", GROUPS, {"U": 1})])
    @example(line=0, edits=[("set", GROUPS, ["U", "HA"])])
    @example(line=0, edits=[("set", GROUPS, ["HA", ["HA"]])])
    @example(line=0, edits=[("set", GROUPS, ["purple", 3])])
    @example(line=0, edits=[("set", GROUPS, 3)])
    @example(line=0, edits=[("map", ("decision", "effective_zone"), _other_case)])
    @example(line=0, edits=[("set", ("trace_version",), 1)])
    @example(line=0, edits=[("add", (), "foo"), ("drop", ("warnings",), None)])
    @example(line=0, edits=[("map", ("audit_all",), _swap_bool_int)])
    @example(line=0, edits=[("map", ("request", "context", "adult_present"), _swap_bool_int)])
    @example(line=0, edits=[("map", ("request", "now"), _as_float)])
    @example(line=0, edits=[("set", ("trace_version",), 10**400), ("map", ("trace_version",), _as_float)])
    @example(line=0, edits=[("map", ("request", "user_id"), _as_text), ("map", ("request", "object_id"), _as_text)])
    @example(line=0, edits=[("set", ("request", "emotion", "valence"), "NaN")])
    @example(line=0, edits=[("set", ("request", "emotion", "arousal"), "Infinity")])
    @example(line=0, edits=[("set", ("request", "emotion", "valence"), "bogus")])
    @example(line=0, edits=[("set", ("request", "emotion", "valence"), Text("NaN"))])
    @example(line=0, edits=[("drop", ("request", "request_id"), None), ("drop", ("request", "emotion"), None)])
    @example(line=0, edits=[("set", ("request", "now"), None), ("set", ("request", "user_id"), 3)])
    @example(line=0, edits=[("set", CONTEXT + ("room",), 3), ("set", CONTEXT + ("adult_present",), 1)])
    @example(line=0, edits=[("set", EMOTION + ("valence",), True), ("set", EMOTION + ("arousal",), None)])
    @example(line=0, edits=[("set", ("request", "emotion", "arousal"), [0.5])])
    @example(line=len(READER_LINES) - 1, edits=[("set", ("trace_version",), 1)])
    @example(line=BOTH_WINDOWS, edits=[])
    @example(line=BOTH_WINDOWS, edits=[("set", USERS + ("active", "dangerous"), "bogus")])
    @example(line=BOTH_WINDOWS, edits=[("map", USERS + ("active", "mind_altering"), _swap_bool_int)])
    @example(line=BOTH_WINDOWS, edits=[("map", USERS + ("active", "dangerous"), _as_float)])
    @example(line=BOTH_WINDOWS, edits=[("set", USERS + ("active", "neither"), 5)])
    @example(line=BOTH_WINDOWS, edits=[("set", USERS + ("last_requested",), 3)])
    @example(line=BOTH_WINDOWS, edits=[("map", USERS + ("last_requested",), _as_text)])
    @example(line=GRANTED, edits=[])
    @example(line=GRANTED, edits=[("set", ENTRY + ("tagged_by",), 3)])
    @example(line=GRANTED, edits=[("map", ENTRY + ("tagged_by",), _as_text)])
    @example(line=GRANTED, edits=[("set", ENTRY + ("grants",), "alice")])
    @example(line=GRANTED, edits=[("set", ENTRY + ("grants", 0), None)])
    @example(line=GRANTED, edits=[("map", ENTRY + ("grants", 0), _as_text)])
    @example(line=GRANTED, edits=[("drop", ENTRY + ("grants",), None), ("set", ENTRY + ("tagged_by",), None)])
    def test_same_object_or_same_refusal(self, line, edits):
        data = json.loads(READER_LINES[line])
        for edit in edits:
            _apply_reader_edit(data, edit)
        assert _read_with(DecisionTrace.from_dict, data) == _read_with(reference_trace_from_dict, data)
        request, decision = data.get("request"), data.get("decision")
        assert _read_with(FetchRequest.from_dict, request) == _read_with(reference_request_from_dict, request)
        assert _read_with(Decision.from_dict, decision) == _read_with(reference_decision_from_dict, decision)
        cooldowns = _within(data, ("pre_state", "cooldowns"))
        for scope in COOLDOWN_SCOPES:
            ours = functools.partial(_cooldowns_read, CooldownState.restore, CooldownState.snapshot, scope=scope)
            theirs = functools.partial(_cooldowns_read, reference_cooldowns_restore, reference_user_snapshot, scope=scope)
            assert _read_with(ours, cooldowns) == _read_with(theirs, cooldowns)
        registry = _within(data, ("pre_state", "personal_registry"))
        ours = functools.partial(_registry_read, PersonalRegistry.restore)
        theirs = functools.partial(_registry_read, reference_registry_restore)
        assert _read_with(ours, registry) == _read_with(theirs, registry)

    def test_the_lines_are_of_both_ends_of_the_versions_and_both_modes(self):
        traces = [DecisionTrace.from_dict(json.loads(line)) for line in READER_LINES]
        # The committed lines are of the oldest version and of version 5,
        # the decided ones of the newest.
        assert {t.trace_version for t in traces} == {1, 5, TRACE_VERSION}
        assert {t.audit_all for t in traces} == {False, True}
        assert all(t.request_id.startswith("hm-") for t in traces[:40])


ROSTER = ["alice", "bob", "carol", "dave", "erin", "grace", "henry"]
CATALOG = ["knife", "sleeping_pills", "cough_syrup", "car_keys", "towel", "toy_block", "peanut_butter", "safety_scissors", "diary"]
# Any int too: one beyond float range must clamp like an infinity.
SENSOR = st.floats(allow_nan=True, allow_infinity=True) | st.integers() | st.sampled_from([10**400, -(10**400), 2**1024])
ANY_REQUEST = st.builds(
    FetchRequest,
    request_id=st.just("req"),
    user_id=st.sampled_from(ROSTER) | st.text(),
    object_id=st.sampled_from(CATALOG) | st.text(),
    emotion=st.builds(EmotionSample, SENSOR, SENSOR),
    context=st.builds(ContextSnapshot, st.text(), st.booleans(), st.booleans(), st.integers()),
    now=st.integers(),
)


class TestAnyRequestDecides:
    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @settings(max_examples=100, deadline=None)
    @given(requests=st.lists(ANY_REQUEST, max_size=6))
    def test_any_requests_decide_into_strict_traces_that_verify(self, shipped_config, audit_all, requests):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        for request in requests:
            decision, trace = engine.decide(request)
            assert decision.verdict in ("allow", "deny")
            parsed = DecisionTrace.from_dict(json.loads(trace.to_json(), parse_constant=refuse_constant))
            assert verify_trace(parsed, shipped_config).ok


def whole_household(engine, board_primed):
    """What a version 1 trace recorded as its pre-state: every cool-down
    record and the whole registry, with the cool-down scope and
    board_primed."""
    whole = {"cooldowns": engine.cooldowns.snapshot(), "personal_registry": engine.registry.snapshot()}
    return with_fixed_facts(whole, engine.config, board_primed)


@pytest.fixture()
def bob_after_alice(shipped_config):
    """Bob's trace at now=60, after alice armed a dangerous window that
    expires at 1800, and the whole household just before bob's decision."""
    live = DecisionEngine(shipped_config)
    live.decide(make_request("alice", "knife", now=0))
    whole = whole_household(live, board_primed=True)
    _, trace = live.decide(make_request("bob", "towel", now=60, request_id="req-001"))
    assert whole["cooldowns"]["users"]["alice"]["active"] == {"dangerous": 1800}
    assert trace.pre_state["cooldowns"]["users"] == {}
    return whole, trace


def _alice_expiry_moved(whole, trace):
    whole["cooldowns"]["users"]["alice"]["active"]["dangerous"] = 1799
    trace.pre_state = whole


def _record_added_for_carol(whole, trace):
    trace.pre_state["cooldowns"]["users"]["carol"] = {"last_requested": "towel", "active": {}}


def _tag_added_for_another_object(whole, trace):
    trace.pre_state["personal_registry"]["knife"] = {"tagged_by": "alice", "grants": []}


class TestVersion2PreState:
    @pytest.mark.parametrize(
        "edit",
        [_alice_expiry_moved, _record_added_for_carol, _tag_added_for_another_object],
        ids=lambda e: e.__name__,
    )
    def test_an_edit_the_decision_does_not_read_is_a_mismatch(self, shipped_config, bob_after_alice, edit):
        whole, trace = bob_after_alice
        edited = copy_of(trace)
        edit(whole, edited)
        result = verify_trace(edited, shipped_config)
        assert result.mismatches == ["pre_state differs from the recorded pre_state"]
        # A version 1 trace is not compared this way: the same edit verifies,
        # as it did when every trace held the whole household.
        legacy = with_fixed_facts(edited.pre_state, shipped_config)
        assert verify_trace(as_legacy(edited, 1, legacy), shipped_config).ok

    def test_a_pre_state_canonical_json_refuses_is_a_mismatch(self, shipped_config, bob_after_alice):
        _, trace = bob_after_alice
        edited = copy_of(trace)
        # The restore ignores a key it does not know, but canonical JSON
        # refuses the value.
        edited.pre_state["sensor"] = math.nan
        assert verify_trace(edited, shipped_config).mismatches == ["pre_state differs from the recorded pre_state"]

    def test_new_traces_are_version_6(self, mid_session_trace):
        assert mid_session_trace.trace_version == 6
        assert '"trace_version":6' in mid_session_trace.to_json()

    def test_golden_version_1_lines_read_as_version_1_and_write_back_unchanged(self):
        for path in FROZEN_FILES:
            for line in path.read_text(encoding="utf-8").splitlines():
                trace = DecisionTrace.from_dict(json.loads(line))
                assert trace.trace_version == 1
                assert trace.to_json() == line

    @pytest.mark.parametrize("version", [0, 7, "2", True, 2.0, None])
    def test_an_unknown_version_is_refused_on_read(self, mid_session_trace, version):
        data = json.loads(mid_session_trace.to_json())
        data["trace_version"] = version
        with pytest.raises(ValueError, match="trace_version"):
            DecisionTrace.from_dict(data)

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(ANY_REQUEST, max_size=8))
    def test_each_trace_verifies_sliced_and_as_a_whole_household(self, shipped_config, audit_all, requests):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        for primed, request in enumerate(requests):
            # Whether the engine had decided before, as versions 1 to 5 wrote.
            primed = bool(primed)
            before = whole_household(engine, primed)
            _, trace = engine.decide(request)
            assert trace.trace_version == 6
            assert verify_trace(copy_of(trace), shipped_config).ok
            sliced = with_fixed_facts(trace.pre_state, shipped_config, primed)
            for version in (5, 4, 3, 2):
                assert verify_trace(as_legacy(trace, version, sliced), shipped_config).ok, version
            assert verify_trace(as_legacy(trace, 1, before), shipped_config).ok


PRE_STATE_DIFFERS = "pre_state differs from the recorded pre_state"


def canonically_same(fresh, recorded):
    """The reference: pre-states compared as canonical JSON, where a value
    canonical JSON refuses (NaN, say) is a difference."""
    try:
        return canonical_json(fresh) == canonical_json(recorded)
    except (TypeError, ValueError):
        return False


def paths_into(value, path=()):
    """The path of every dict entry and list item under value, containers
    included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    found = []
    for key, item in items:
        found.append(path + (key,))
        found.extend(paths_into(item, path + (key,)))
    return found


#: Stand-ins for any leaf: each type a pre-state holds and some it does not,
#: including values such as 1, 1.0 and True that Python counts as equal but
#: JSON writes differently.
STAND_INS = [
    None, True, False, 0, 1, 1.0, 1800, 1800.0, -1, math.nan, math.inf,
    "", "alice", "knife", "1800", "user", [], ["bob"], {}, {"dangerous": 1800},
]


def single_leaf_edits(pre_state):
    """Every edit of one place in a pre-state: a type or value swap, a
    deletion, or a key added beside it."""
    edits = []
    for path in paths_into(pre_state):
        edits.extend(("swap", path, value) for value in STAND_INS)
        edits.append(("delete", path, None))
    for path in [()] + [p for p in paths_into(pre_state) if isinstance(reach(pre_state, p), dict)]:
        edits.extend(("add", path + ("extra",), value) for value in (math.nan, 0, None))
    return edits


def reach(value, path):
    for step in path:
        value = value[step]
    return value


def apply_edit(pre_state, edit):
    how, path, value = edit
    *parents, last = path
    parent = reach(pre_state, parents)
    if how == "delete":
        del parent[last]
    else:
        parent[last] = value


class TestPreStateComparedAsValue:
    """Restore refuses every leaf of a type the engine does not write, so
    comparing pre-states as values is as strict as comparing their canonical
    JSON."""

    @settings(max_examples=300, deadline=None)
    @given(
        requests=st.lists(
            st.builds(
                make_request,
                st.sampled_from(ROSTER + ["stranger"]),
                st.sampled_from(CATALOG),
                now=st.integers(0, 20000),
            ),
            min_size=1,
            max_size=6,
        ),
        granted=st.booleans(),
        data=st.data(),
    )
    def test_single_leaf_edits_get_the_verdict_of_the_canonical_json_compare(self, shipped_config, requests, granted, data):
        engine = DecisionEngine(shipped_config)
        if granted:
            engine.apply_grant("alice", "diary", "bob")
        traces = [engine.decide(request)[1] for request in requests]
        edited = copy_of(data.draw(st.sampled_from(traces)))
        apply_edit(edited.pre_state, data.draw(st.sampled_from(single_leaf_edits(edited.pre_state))))
        result = verify_trace(edited, shipped_config)
        try:
            _, fresh = redecide(edited, shipped_config)
        except ReplayError:
            assert (result.ok, result.decision) == (False, None)
            return
        assert (PRE_STATE_DIFFERS in result.mismatches) == (not canonically_same(fresh.pre_state, edited.pre_state))


def golden_as_version_2(line):
    data = json.loads(line)
    slice_pre_state(data)
    data["trace_version"] = 2
    return DecisionTrace.from_dict(data)


def _policy_renamed(trace):
    event = next(e for e in trace.events if e["node"] == "emotion_ok")
    event["policy"] = "structure"


def _structural_inputs_added(trace):
    event = next(e for e in trace.events if e["node"] == "decision_sequence")
    assert event["inputs"] == {}
    event["inputs"]["note"] = "added"


def _gate_request_field_edited(trace):
    event = next(e for e in trace.events if e["node"] == "eligibility_ok")
    event["inputs"]["user_id"] = "mallory"


class TestVersion3Events:
    """Version 3 writes each value of a decision once; the echo of the
    request in knowledge_check stays, and version 1 and 2 event streams are
    rebuilt from the re-run, never taken from the recorded line."""

    def test_an_edited_request_shows_in_a_line_denied_before_the_gate_that_reads_it(self, shipped_config):
        # Nothing after the eligibility denial reads adult_present: only the
        # knowledge_check echo of the request sees the edit.
        engine = DecisionEngine(shipped_config)
        decision, trace = engine.decide(make_request("alice", "unicorn"))
        assert (decision.verdict, decision.deciding_policy) == ("deny", "eligibility")
        assert [e["node"] for e in trace.events][2:4] == ["eligibility_ok", "eligibility_violation"]
        edited = copy_of(trace)
        edited.request["context"]["adult_present"] = False
        result = verify_trace(edited, shipped_config)
        assert result.mismatches == ["event stream differs from the recorded events"]

    def test_golden_lines_as_version_2_verify(self, golden_config):
        for path in FROZEN_FILES:
            for line in path.read_text(encoding="utf-8").splitlines():
                trace = golden_as_version_2(line)
                assert trace.to_json() != line
                assert verify_trace(trace, golden_config).ok, trace.request_id

    @pytest.mark.parametrize(
        "edit", [_policy_renamed, _structural_inputs_added, _gate_request_field_edited], ids=lambda e: e.__name__
    )
    def test_an_edited_version_2_event_is_a_mismatch(self, golden_config, edit):
        line = (GOLDEN / "vehicle_ban.jsonl").read_text(encoding="utf-8").splitlines()[0]
        trace = golden_as_version_2(line)
        edit(trace)
        result = verify_trace(trace, golden_config)
        assert result.mismatches == ["event stream differs from the recorded events"]


class ExitRecorder(TickListener):
    """Every node exit of a tick as (node, outcome), in tick order: the
    events version 3 wrote, without their inputs."""

    def __init__(self):
        self.exits = []

    def exit(self, node, status):
        self.exits.append((node.name, status.value))


def _gate_outcome_flipped(trace):
    event = next(e for e in trace.events if e["node"] == "ordering_check")
    event["outcome"] = "failure"


def _accept_dropped(trace):
    trace.events = [e for e in trace.events if e["node"] != "accept"]


def _warnings_copy_emptied(trace):
    trace.events[0]["inputs"]["warnings"] = []


def _cut_to_version_4(trace):
    trace.events = [e for e in trace.events if "inputs" in e]
    del trace.events[0]["inputs"]["warnings"]


class TestVersion4Events:
    """Version 4 writes only the leaf events; the structure-only events and
    knowledge_check's copy of the warnings that version 3 wrote are rebuilt
    from the re-run, through its version 4 events, to verify a version 3
    line."""

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @settings(max_examples=150, deadline=None)
    @given(requests=st.lists(ANY_REQUEST, max_size=8))
    def test_the_version_3_rebuild_is_what_a_tick_visits(self, shipped_config, audit_all, requests):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        probe = DecisionEngine(shipped_config)
        for request in requests:
            _, trace = engine.decide(request)
            probe.restore_state(trace.pre_state)
            state, recorder = _EvalState(request), ExitRecorder()
            probe.tree.tick(state, recorder)
            leaves = [e for e in trace.events if not e.get("audit")]
            assert state.events == leaves
            trace = dataclasses.replace(trace, pre_state=with_fixed_facts(trace.pre_state, shipped_config))
            version_4 = _events_as_written(trace, 4)
            leaf_exits = [(node, outcome) for node, outcome in recorder.exits if node not in STRUCTURE_NODES]
            assert [(e["node"], e["outcome"]) for e in version_4[: len(leaves)]] == leaf_exits
            rebuilt = _events_as_written(trace, 3)
            assert [(e["node"], e["outcome"]) for e in rebuilt[: len(recorder.exits)]] == recorder.exits
            assert rebuilt[len(recorder.exits):] == version_4[len(leaves):]
            assert all(e.get("audit") for e in version_4[len(leaves):])
            assert verify_trace(as_legacy(trace, 4, trace.pre_state), shipped_config).ok

    @pytest.mark.parametrize(
        "edit",
        [_gate_outcome_flipped, _accept_dropped, _warnings_copy_emptied, _cut_to_version_4],
        ids=lambda e: e.__name__,
    )
    def test_an_edited_version_3_event_is_a_mismatch(self, golden_config, edit):
        line = (V3 / "unknown_ids.jsonl").read_text(encoding="utf-8").splitlines()[0]
        trace = DecisionTrace.from_dict(json.loads(line))
        assert verify_trace(trace, golden_config).ok
        edit(trace)
        result = verify_trace(trace, golden_config)
        assert result.mismatches == ["event stream differs from the recorded events"]


#: Real version 4 lines: one denied at category/context after emotion_ok,
#: one denied at eligibility whose audit pass evaluated every later check.
VERSION_4_LINES = {
    "plain": (V4 / "cooldown_boundaries.jsonl", 1),
    "audit": (V4 / "audit" / "under5_denial.jsonl", 1),
}

#: Each fact version 4 wrote and version 5 leaves out, as (line, node, key
#: in the event or in its inputs).
DROPPED_FACTS = [
    ("plain", "ordering_ok", "outcome"),
    ("plain", "category_context_violation", "reason"),
    ("plain", "knowledge_check", "mode"),
    ("plain", "emotion_ok", "cooldown_profile"),
    ("plain", "emotion_ok", "escalation_steps"),
    ("plain", "category_context_ok", "matrix_checks"),
    ("audit", "emotion_ok", "cooldown_profile"),
    ("audit", "emotion_ok", "escalation_steps"),
    ("audit", "category_context_ok", "matrix_checks"),
]

OTHER_TEXT = {"success": "failure", "failure": "success", "refresh": "ingest", "ingest": "refresh"}


def version_4_line(which):
    path, index = VERSION_4_LINES[which]
    return path.read_text(encoding="utf-8").splitlines()[index]


def event_of(data, node):
    return next(e for e in data["events"] if e["node"] == node)


def holder_of(data, node, key):
    """The dict in `data` that holds `key` of `node`'s event: the event for
    an outcome, its inputs for anything else."""
    event = event_of(data, node)
    return event if key == "outcome" else event.setdefault("inputs", {})


def edited(value):
    if isinstance(value, list):
        return value + ["edited"]
    if isinstance(value, int):
        return value + 1
    return OTHER_TEXT.get(value, value + " (edited)")


class TestVersion5Events:
    """Version 5 leaves out the facts DROPPED_FACTS names; verify_trace
    rebuilds them from the re-run to compare an older line, so an edit to
    one still shows, and so does a version 5 line that writes one back."""

    @pytest.mark.parametrize("which, node, key", DROPPED_FACTS, ids=lambda v: str(v))
    def test_an_edited_version_4_fact_is_a_mismatch(self, golden_config, which, node, key):
        data = json.loads(version_4_line(which))
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        assert event_of(data, node).get("audit", False) == (which == "audit")
        holder = holder_of(data, node, key)
        holder[key] = edited(holder[key])
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert result.mismatches == ["event stream differs from the recorded events"]

    @pytest.mark.parametrize("which, node, key", DROPPED_FACTS, ids=lambda v: str(v))
    def test_a_version_5_line_that_writes_a_fact_back_is_a_mismatch(self, golden_config, which, node, key):
        line = version_4_line(which)
        value = holder_of(json.loads(line), node, key)[key]
        data = json.loads(as_version_5(line))
        assert verify_trace(DecisionTrace.from_dict(data), golden_config).ok
        holder = holder_of(data, node, key)
        assert key not in holder
        holder[key] = value
        result = verify_trace(DecisionTrace.from_dict(data), golden_config)
        assert result.mismatches == ["event stream differs from the recorded events"]


class TestFormatSteps:
    def test_the_steps_write_every_older_version_newest_first(self):
        # A TRACE_VERSION bump without its down-step fails here at once;
        # version 1 wrote version 2's events.
        assert [writes for writes, _ in STEPS] == list(range(TRACE_VERSION - 1, 1, -1))


class RecordingEngine(DecisionEngine):
    """An engine that records the keys of every inputs dict its stage
    evaluators return, before the node is set on it."""

    def __init__(self, *args, **kwargs):
        self.input_keys = []
        # Set before the tree is built, which looks each evaluator up.
        for stage in STAGES:
            setattr(self, f"_eval_{stage}", self._recording(getattr(self, f"_eval_{stage}")))
        super().__init__(*args, **kwargs)

    def _recording(self, evaluate):
        def recorded(st):
            result = evaluate(st)
            self.input_keys.append(set(result[0]))
            return result

        return recorded


def flattened(event):
    """A version 5 event as version 6 writes it: its inputs beside its node."""
    return {**{key: value for key, value in event.items() if key != "inputs"}, **event.get("inputs", {})}


def mix_traces(engine, seed, count):
    """`count` traces decided on the benchmark's seeded household traffic
    (perfbench/mix.py), its registry writes applied as they come."""
    stream = mix.EventStream(engine.config, seed, "flat")
    traces = []
    while len(traces) < count:
        event = stream.next_event()
        if isinstance(event, mix.Write):
            try:
                if event.grantee is None:
                    engine.apply_tag(event.actor, event.object_id)
                else:
                    engine.apply_grant(event.actor, event.object_id, event.grantee)
            except FetchguardError:
                pass
            continue
        traces.append(engine.decide(event)[1])
    return traces


def assert_flat(engine, traces):
    """No evaluator's inputs use a key RESERVED names, only audit events
    write an outcome and the audit mark, and flattening the version 5
    down-step of a line's events gives its events back."""
    assert engine.input_keys and not any(keys & set(RESERVED) for keys in engine.input_keys)
    for trace in traces:
        for event in trace.events:
            if event.get("audit"):
                assert event["audit"] is True and event["outcome"] in ("success", "failure", "skipped")
            else:
                assert not {"outcome", "audit"} & set(event), event
        assert [flattened(e) for e in _events_as_written(trace, 5)] == trace.events


class TestFlatEvents:
    """Version 6 writes an event's inputs beside its node, so node, outcome
    and audit are the only keys an input may not have, and the version 5
    down-step loses nothing."""

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 60))
    def test_no_input_is_reserved_and_flattening_undoes_the_down_step(self, shipped_config, audit_all, seed, count):
        engine = RecordingEngine(shipped_config, audit_all=audit_all)
        assert_flat(engine, mix_traces(engine, seed, count))

    def test_a_stream_with_skipped_audit_stages_too(self, shipped_config):
        engine = RecordingEngine(shipped_config, audit_all=True)
        traces = mix_traces(engine, 17, 300)
        outcomes = {e.get("outcome") for t in traces for e in t.events}
        assert outcomes == {None, "success", "failure", "skipped"}
        assert_flat(engine, traces)

    def test_an_audit_event_is_its_inputs_beside_the_reserved_keys(self, shipped_config):
        engine = DecisionEngine(shipped_config, audit_all=True)
        _, trace = engine.decide(make_request("dave", "towel"))
        personal = trace.events[-1]
        assert personal == {
            "node": "personal_ok", "outcome": "success", "audit": True, "object_tagged": False, "access": "ok"
        }
        assert _events_as_written(trace, 5)[-1] == {
            "node": "personal_ok", "outcome": "success", "audit": True,
            "inputs": {"object_tagged": False, "access": "ok"},
        }


def _scope_written_back(trace, config):
    trace.pre_state["cooldowns"]["scope"] = config.cooldown_scope


def _board_primed_written_back(trace, config):
    trace.pre_state["board_primed"] = True


def _both_written_back(trace, config):
    trace.pre_state = with_fixed_facts(trace.pre_state, config)


def _inputs_nested_back(trace, config):
    trace.events = _events_as_written(trace, 5)


class TestVersion6:
    """A version 6 line that writes back what only older lines held, in
    part or in whole, is one named mismatch: the restore does not read
    them, and the re-run's pre-state lacks them."""

    @pytest.mark.parametrize("edit, named", [
        (_scope_written_back, PRE_STATE_DIFFERS),
        (_board_primed_written_back, PRE_STATE_DIFFERS),
        (_both_written_back, PRE_STATE_DIFFERS),
        (_inputs_nested_back, "event stream differs from the recorded events"),
    ], ids=lambda e: getattr(e, "__name__", ""))
    def test_a_fact_of_an_older_version_written_back_is_one_named_mismatch(self, shipped_config, mid_session_trace, edit, named):
        edited = copy_of(mid_session_trace)
        edit(edited, shipped_config)
        result = verify_trace(edited, shipped_config)
        assert len(result.mismatches) == 1
        assert result.mismatches[0].startswith(named)

    @pytest.mark.parametrize("board_primed", [False, True])
    def test_an_older_line_verifies_with_either_board_primed(self, shipped_config, mid_session_trace, board_primed):
        # No re-run reads it, so both verify, as they did before version 6.
        for version in (5, 4):
            legacy = with_fixed_facts(mid_session_trace.pre_state, shipped_config, board_primed)
            assert verify_trace(as_legacy(mid_session_trace, version, legacy), shipped_config).ok


class TestLookups:
    def test_lookups_match_a_scan_of_the_lists(self, shipped_config):
        for user in shipped_config.users:
            assert shipped_config.user_by_id(user.user_id) is user
        for obj in shipped_config.objects:
            assert shipped_config.object_by_id(obj.object_id) is obj
        assert shipped_config.user_by_id("stranger") is None
        assert shipped_config.object_by_id("anvil") is None


class TestOneReplayEnginePerConfig:
    def test_fifty_verifies_hash_the_config_once_and_build_one_engine(self, monkeypatch):
        plain, audit = golden_traces()
        traces = plain[:25] + audit[:25]
        config = load_golden()
        calls = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(DecisionEngine, "__init__", counting("init", DecisionEngine.__init__))
        monkeypatch.setattr(PolicyConfig, "canonical_bytes", counting("hash", PolicyConfig.canonical_bytes))
        assert all(verify_trace(t, config).ok for t in traces)
        assert calls["init"] <= 1
        assert calls["hash"] <= 1

    def test_fingerprint_mismatch_is_refused_before_an_engine_is_built(self, monkeypatch, mid_session_trace):
        mismatched = copy_of(mid_session_trace)
        mismatched.config_fingerprint = "0" * 64
        built = []
        original = DecisionEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DecisionEngine, "__init__", counting)
        result = verify_trace(mismatched, load_default())
        assert result.mismatches == ["config fingerprint does not match the trace"]
        assert built == []

    def test_verdicts_do_not_depend_on_what_was_verified_before(self):
        plain, audit = golden_traces()
        rng = random.Random(7)
        traces = rng.sample(plain, 15) + rng.sample(audit, 15)
        for trace in rng.sample(plain, 5) + rng.sample(audit, 5):
            tampered = copy_of(trace)
            tampered.request["context"]["adult_present"] = not tampered.request["context"]["adult_present"]
            traces.append(tampered)
        for trace in rng.sample(plain, 3):
            mismatched = copy_of(trace)
            mismatched.config_fingerprint = "f" * 64
            traces.append(mismatched)
        # Decided under the golden lines' config, so every trace shares one.
        mid_session = decide_mid_session(load_golden())
        for edit, _ in EDITS:
            traces.append(edited_copy(mid_session, load_golden(), edit))
        rng.shuffle(traces)

        shared = load_golden()
        results = [verify_trace(t, shared) for t in traces]
        assert results == [verify_trace(t, load_golden()) for t in traces]
        assert any(r.ok for r in results) and not all(r.ok for r in results)

    def test_verifying_leaves_a_live_engine_alone(self):
        config = load_golden()
        live = DecisionEngine(config)
        live.decide(make_request("alice", "knife", now=0))
        live.decide(make_request("bob", "sleeping_pills", now=10, request_id="req-001"))
        _, last = live.decide(make_request("carol", "car_keys", now=20, request_id="req-002"))
        before = (live.cooldowns.snapshot(), live.registry.snapshot())
        plain, audit = golden_traces()
        for trace in plain[:10] + audit[:10] + [last]:
            assert verify_trace(trace, config).ok
        assert (live.cooldowns.snapshot(), live.registry.snapshot()) == before
