import copy
import dataclasses
import functools
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fetchguard import (
    ALLOW,
    ConfigError,
    ContextSnapshot,
    DecisionEngine,
    DecisionTrace,
    DENY,
    EmotionSample,
    FetchguardError,
    FetchRequest,
    PermissionDeniedError,
    PolicyConfig,
    ReplayError,
    SafetyClass,
    UserGroup,
    Zone,
    classify_user_group,
    default_config,
    node_names,
    replay,
    verify_trace,
    zone_of,
)
from fetchguard.engine import STAGES, canonical_json
from fetchguard.formats import RESERVED, _POLICY_OF
from fetchguard.matrix import MATRIX_CHECKS, MatrixEntry
from fetchguard.model import INT_BOUND
from fetchguard.ordering import CooldownDurations
from test_emotion import rebuilding_clamped
from test_golden import GOLDEN_FILES, V3_FILES, V4_FILES
from test_reference_engine import CONFIGS, random_stream

GREEN = EmotionSample(0.5, 0.0)
YELLOW = EmotionSample(-0.3, 0.0)
ORANGE = EmotionSample(-0.9, -0.9)
RED = EmotionSample(-0.9, 0.9)

ZONE_SAMPLES = [GREEN, YELLOW, ORANGE, RED]


def make_request(user, obj, emotion=GREEN, context=None, now=0, request_id="req-000"):
    if context is None:
        context = ContextSnapshot(room="kitchen", adult_present=True, verbal_affirmation=True, timestamp=now)
    return FetchRequest(request_id, user, obj, emotion, context, now)


def outcomes(config, audit_all, events, shift):
    """What a fresh engine makes of a random_stream with every time moved by
    shift: each request's decision, and whether each write was taken."""
    engine, made = DecisionEngine(config, audit_all=audit_all), []
    for event in events:
        if event["type"] == "request":
            now = event["now"] + shift
            context = ContextSnapshot(event["room"], event["adult_present"], event["verbal_affirmation"], now)
            emotion = EmotionSample(event["valence"], event["arousal"])
            made.append(engine.decide(FetchRequest("req", event["user"], event["object"], emotion, context, now))[0])
            continue
        try:
            if event["type"] == "tag_personal":
                engine.apply_tag(event["actor"], event["object"])
            else:
                engine.apply_grant(event["actor"], event["object"], event["grantee"])
            made.append(True)
        except FetchguardError:
            made.append(False)
    return made


class TestAdminEvents:
    def test_reset_applies_an_initial_tags_grants(self):
        data = default_config().to_dict()
        data["personal_tags"][0]["grants"] = ["bob"]
        engine = DecisionEngine(PolicyConfig.from_dict(data))
        engine.apply_tag("henry", "towel")
        engine.reset()
        assert engine.registry.snapshot() == {"diary": {"tagged_by": "alice", "grants": ["bob"]}}
        assert engine.decide(make_request("bob", "diary", context=ContextSnapshot("bedroom", True, True)))[0].verdict == ALLOW

    def test_tagging_an_unknown_object_is_refused(self, engine):
        with pytest.raises(ConfigError, match="cannot tag unknown object 'ghost'"):
            engine.apply_tag("alice", "ghost")

    @pytest.mark.parametrize(
        "grantee, error, message",
        [("ghost", ConfigError, "unregistered user 'ghost'"), ("dave", PermissionDeniedError, "'dave' is under the minimum age")],
    )
    def test_a_grant_to_an_unregistered_or_under_five_user_is_refused(self, engine, grantee, error, message):
        with pytest.raises(error, match=message):
            engine.apply_grant("alice", "diary", grantee)
        assert engine.registry.snapshot("diary") == {"diary": {"tagged_by": "alice", "grants": []}}


class TestTreeConstruction:
    def test_policy_gates_in_order(self, shipped_config):
        names = node_names(DecisionEngine(shipped_config).tree)
        gates = [n for n in names if n in ("eligibility_gate", "ordering_check", "emotion_check", "category_context_check", "personal_check")]
        assert gates == [
            "eligibility_gate",
            "ordering_check",
            "emotion_check",
            "category_context_check",
            "personal_check",
        ]

    def test_two_builds_are_structurally_identical(self, shipped_config):
        assert node_names(DecisionEngine(shipped_config).tree) == node_names(DecisionEngine(shipped_config).tree)

    def test_invalid_config_refuses_to_build(self, shipped_config):
        data = shipped_config.to_dict()
        data["matrix"].pop()
        bad = PolicyConfig.from_dict(data)
        with pytest.raises(ConfigError):
            DecisionEngine(bad)


class TestDecideExamples:
    def test_under_five_denied_at_eligibility(self, engine):
        decision, _ = engine.decide(make_request("dave", "toy_block"))
        assert decision.verdict == DENY
        assert decision.deciding_policy == "eligibility"

    def test_red_zone_dangerous_denied_by_empty_matrix_row(self, engine):
        decision, _ = engine.decide(make_request("alice", "knife", emotion=RED))
        assert decision.verdict == DENY
        assert decision.deciding_policy == "emotion"
        assert decision.effective_zone is Zone.RED
        assert decision.allowed_groups_at_leaf == frozenset()

    def test_green_neither_allowed_for_household_adult(self, engine):
        decision, _ = engine.decide(make_request("alice", "towel", emotion=EmotionSample(0.2, 0.1)))
        assert decision.verdict == ALLOW
        assert decision.deciding_policy == "none"
        assert UserGroup.HA in decision.allowed_groups_at_leaf

    def test_unknown_object_denied_by_default(self, engine):
        decision, trace = engine.decide(make_request("alice", "plasma_torch"))
        assert decision.verdict == DENY
        assert decision.deciding_policy == "eligibility"
        assert "unknown object" in decision.reason
        assert any("unknown object" in w for w in trace.warnings)

    def test_unknown_user_becomes_group_u_with_warning(self, engine):
        decision, trace = engine.decide(make_request("stranger", "towel"))
        assert decision.verdict == ALLOW  # U is admitted for neither/green
        assert any("unknown user" in w for w in trace.warnings)
        decision, _ = engine.decide(make_request("stranger", "knife", now=10))
        assert decision.verdict == DENY  # but never for dangerous objects

    def test_allow_invariant_group_in_leaf_groups(self, engine):
        decision, _ = engine.decide(make_request("grace", "towel"))
        assert decision.verdict == ALLOW
        assert UserGroup.FRA in decision.allowed_groups_at_leaf

    @pytest.mark.parametrize(
        "room, adult, verbal, failed",
        [
            ("kitchen", True, True, None),
            ("kitchen", True, False, "verbal_affirmation"),
            ("kitchen", False, True, "adult_present"),
            ("garage", True, True, "room_appropriate"),
            ("garage", False, False, "verbal_affirmation"),
        ],
    )
    def test_each_matrix_check_names_itself_when_it_fails(self, shipped_config, room, adult, verbal, failed):
        data = shipped_config.to_dict()
        # Every live dangerous row asks all three, so no tighter row asks less.
        for row in data["matrix"]:
            if row["request_class"] == "dangerous" and row["allowed_groups"]:
                row["required_checks"] = ["adult_present", "room_appropriate", "verbal_affirmation"]
        engine = DecisionEngine(PolicyConfig.from_dict(data))
        context = ContextSnapshot(room=room, adult_present=adult, verbal_affirmation=verbal, timestamp=0)
        decision, trace = engine.decide(make_request("alice", "knife", context=context))
        if failed is None:
            assert decision.verdict == ALLOW
            return
        assert (decision.verdict, decision.deciding_policy) == (DENY, "context")
        assert decision.reason == f"required check failed: {failed}"
        ok_event = next(e for e in trace.events if e["node"] == "category_context_ok")
        assert ok_event["failed_check"] == failed


class TestStateCoupling:
    def test_allow_arms_cooldown_exactly(self, engine):
        decision, _ = engine.decide(make_request("alice", "knife", now=100))
        assert decision.verdict == ALLOW
        assert engine.cooldowns.expiry("alice", SafetyClass.DANGEROUS) == 100 + 1800

    def test_deny_resets_cooldown_exactly(self, engine):
        decision, _ = engine.decide(make_request("alice", "sleeping_pills", emotion=RED, now=7))
        assert decision.verdict == DENY
        assert engine.cooldowns.expiry("alice", SafetyClass.MIND_ALTERING) == 7 + 14400

    def test_unknown_object_leaves_cooldowns_untouched(self, engine):
        engine.decide(make_request("alice", "no_such_thing", now=5))
        assert engine.cooldowns.snapshot()["users"] == {}

    def test_same_class_escalation_after_grant(self, engine):
        first, _ = engine.decide(make_request("alice", "knife", now=0, context=ContextSnapshot("kitchen", True, True, 0)))
        assert first.verdict == ALLOW
        # 60 s later, same class on cool-down: green escalates to yellow,
        # whose row demands verbal affirmation.
        quiet = ContextSnapshot(room="kitchen", adult_present=True, verbal_affirmation=False, timestamp=60)
        second, trace = engine.decide(make_request("alice", "knife", now=60, context=quiet, request_id="req-001"))
        assert second.verdict == DENY
        assert second.deciding_policy == "context"
        assert second.effective_zone is Zone.YELLOW

    def test_vehicle_ban_during_mind_altering_cooldown(self, engine):
        first, _ = engine.decide(make_request("alice", "sleeping_pills", now=0))
        assert first.verdict == ALLOW
        second, _ = engine.decide(make_request("alice", "car_keys", now=3600, request_id="req-001"))
        assert second.verdict == DENY
        assert second.deciding_policy == "ordering"
        third, _ = engine.decide(make_request("alice", "car_keys", now=14401, request_id="req-002"))
        assert third.verdict == ALLOW

    def test_emotion_clamp_notes_in_trace(self, engine):
        decision, trace = engine.decide(make_request("alice", "towel", emotion=EmotionSample(1.5, 0.0)))
        assert decision.verdict == ALLOW
        assert any("clamped" in w for w in trace.warnings)


class TestTraceShape:
    def test_policy_event_order_is_fixed(self, engine):
        _, trace = engine.decide(make_request("alice", "towel"))
        stage_order = []
        for event in trace.events:
            policy = _POLICY_OF[event["node"]]
            if policy in STAGES and policy not in stage_order:
                stage_order.append(policy)
        assert stage_order == list(STAGES)

    def test_no_policy_events_after_the_deciding_one(self, engine):
        _, trace = engine.decide(make_request("dave", "toy_block"))
        policies = [_POLICY_OF[e["node"]] for e in trace.events]
        assert set(policies) & set(STAGES) == {"eligibility"}

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @pytest.mark.parametrize("user, obj", [("alice", "knife"), ("dave", "toy_block")])
    def test_events_write_each_value_once(self, shipped_config, audit_all, user, obj):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        engine.decide(make_request(user, "knife", now=0))
        _, trace = engine.decide(make_request(user, obj, now=60))
        violations = [e for e in trace.events if e["node"].endswith("_violation")]
        assert all(e == {"node": e["node"]} for e in violations)
        inputs = {e["node"]: {k: v for k, v in e.items() if k not in RESERVED} for e in trace.events if e not in violations}
        assert all("policy" not in e and "inputs" not in e and inputs[e["node"]] for e in trace.events if e not in violations)
        assert all("outcome" not in e for e in trace.events if not e.get("audit"))
        assert inputs["knowledge_check"] == {"request": trace.request}
        assert inputs["blackboard_update"] == {"last_request": "knife"}
        assert not {"user_id", "object_id"} & set(inputs["eligibility_ok"])
        # Denied at eligibility, dave's plain trace has no later gate events.
        assert "last_request" not in inputs.get("ordering_ok", {})
        assert not {"room", "adult_present", "verbal_affirmation"} & set(inputs.get("category_context_ok", {}))
        assert not {"cooldown_profile", "escalation_steps"} & set(inputs.get("emotion_ok", {}))
        assert "matrix_checks" not in inputs.get("category_context_ok", {})

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @pytest.mark.parametrize(
        "user, obj, verbal, deciding",
        [
            ("alice", "towel", True, "none"),
            ("dave", "toy_block", True, "eligibility"),
            ("alice", "anvil", True, "eligibility"),
            ("bob", "knife", True, "emotion"),
            ("alice", "knife", False, "context"),
            ("bob", "diary", True, "personal"),
        ],
    )
    def test_events_are_the_leaves_the_tick_reached(self, shipped_config, audit_all, user, obj, verbal, deciding):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        engine.decide(make_request("alice", "knife", now=0))
        context = ContextSnapshot(room="kitchen", adult_present=True, verbal_affirmation=verbal, timestamp=60)
        decision, trace = engine.decide(make_request(user, obj, context=context, now=60))
        assert decision.deciding_policy == deciding
        failed = "category_context" if deciding == "context" else deciding
        stages = STAGES[: STAGES.index(failed) + 1] if decision.verdict == DENY else STAGES
        expected = ["knowledge_check", "blackboard_update"] + [f"{stage}_ok" for stage in stages]
        if decision.verdict == DENY:
            expected.append(f"{failed}_violation")
        assert [e["node"] for e in trace.events if not e.get("audit")] == expected

    def test_traces_are_byte_identical_modulo_request_id(self, shipped_config):
        def run(request_id):
            engine = DecisionEngine(shipped_config)
            _, trace = engine.decide(make_request("alice", "knife", emotion=RED, request_id=request_id))
            return trace.to_json()

        first = run("A")
        second = run("B")
        assert first != second
        assert first.replace('"A"', '"X"') == second.replace('"B"', '"X"')

    @pytest.mark.parametrize("v, a", [(1, 0), (-1, 0), (0, 0), (0.5, -0.25)])
    def test_in_range_samples_write_the_lines_a_rebuilt_sample_wrote(self, shipped_config, monkeypatch, v, a):
        def lines():
            engine = DecisionEngine(shipped_config, audit_all=True)
            return [engine.decide(make_request(user, "knife", emotion=EmotionSample(v, a), now=60 * i))[1].to_json()
                    for i, user in enumerate(["alice", "bob", "dave"])]

        fast = lines()
        monkeypatch.setattr(EmotionSample, "clamped", rebuilding_clamped)
        assert fast == lines()

    def test_trace_lists_are_fresh_for_every_trace(self, shipped_config):
        engine = DecisionEngine(shipped_config)
        _, first = engine.decide(make_request("alice", "towel"))
        inputs = {e["node"]: e for e in first.events}
        for node, name in [
            ("emotion_ok", "allowed_groups"),
            ("emotion_ok", "required_checks"),
            ("ordering_ok", "active_cooldowns"),
        ]:
            assert type(inputs[node][name]) is list
            inputs[node][name].append("edited")
        _, second = DecisionEngine(shipped_config).decide(make_request("alice", "towel"))
        assert "edited" not in second.to_json()

    def test_trace_roundtrips_through_json(self, engine):
        _, trace = engine.decide(make_request("alice", "towel"))
        clone = DecisionTrace.from_dict(json.loads(trace.to_json()))
        assert clone.to_json() == trace.to_json()


def _scribble(node):
    """Edit in place every dict and list inside node."""
    if isinstance(node, dict):
        for value in list(node.values()):
            _scribble(value)
        node["scribbled"] = True
    elif isinstance(node, list):
        for value in node:
            _scribble(value)
        node.append("scribbled")


CLAMPED = EmotionSample(1.5, 0.0)
#: Every trace of this stream has warnings, and most a pre-state with a
#: cool-down record or a personal tag in it.
PRIVATE_STREAM = [
    make_request("alice", "knife", emotion=CLAMPED, now=0, request_id="p-0"),
    make_request("alice", "diary", emotion=CLAMPED, now=60, request_id="p-1"),
    make_request("mallory", "anvil", now=120, request_id="p-2"),
    make_request("alice", "knife", emotion=CLAMPED, now=180, request_id="p-3"),
    make_request("mallory", "knife", now=240, request_id="p-4"),
    make_request("mallory", "sleeping_pills", now=300, request_id="p-5"),
]
TRACE_CONTAINERS = ["warnings", "events", "request", "pre_state"]


def _warning_added(data):
    data["warnings"].append("edited")


def _unrestorable_record_added(data):
    data["pre_state"]["cooldowns"]["users"]["mallory"] = {"last_requested": "knife", "active": {"dangerous": "bogus"}}


def _verify_leaves_alone(trace, config, ok):
    line, before = trace.to_json(), copy.deepcopy(trace)
    assert verify_trace(trace, config).ok is ok
    assert trace.to_json() == line
    assert trace == before


def _verify_leaves_it_and_its_tampered_copies_alone(trace, config):
    """verify_trace changes nothing in a line that verifies, nor in two
    copies that do not: one whose warnings fail after the whole re-run, and
    one whose pre-state cannot be restored."""
    _verify_leaves_alone(trace, config, True)
    line = trace.to_json()
    for tamper in (_warning_added, _unrestorable_record_added):
        data = json.loads(line)
        tamper(data)
        _verify_leaves_alone(DecisionTrace.from_dict(data), config, False)


class TestTracesAreTheirOwn:
    """A trace's containers belong to it alone: editing one trace's
    warnings, events, request or pre-state changes no other trace, no later
    decision and no engine's state."""

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @pytest.mark.parametrize("part", TRACE_CONTAINERS)
    def test_editing_a_decided_trace(self, shipped_config, audit_all, part):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        twin = DecisionEngine(shipped_config, audit_all=audit_all)
        earlier = []
        for request in PRIVATE_STREAM:
            _, trace = engine.decide(request)
            assert trace.warnings
            # The next decision is the one an engine whose traces nobody
            # edited makes.
            assert trace.to_json() == twin.decide(request)[1].to_json()
            lines = [t.to_json() for t in earlier]
            state = (engine.cooldowns.snapshot(), engine.registry.snapshot())
            _scribble(getattr(trace, part))
            assert [t.to_json() for t in earlier] == lines
            assert (engine.cooldowns.snapshot(), engine.registry.snapshot()) == state
            earlier.append(trace)

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    @pytest.mark.parametrize("part", TRACE_CONTAINERS)
    def test_editing_a_verified_trace(self, audit_all, part):
        config = default_config()
        engine = DecisionEngine(config, audit_all=audit_all)
        twin = DecisionEngine(config, audit_all=audit_all)
        for request in PRIVATE_STREAM:
            _, trace = engine.decide(request)
            assert trace.to_json() == twin.decide(request)[1].to_json()
            line = trace.to_json()
            assert verify_trace(trace, config).ok
            replayer = config._replayer
            state = (replayer.cooldowns.snapshot(), replayer.registry.snapshot())
            user_state = (engine.cooldowns.snapshot(), engine.registry.snapshot())
            _scribble(getattr(trace, part))
            assert (replayer.cooldowns.snapshot(), replayer.registry.snapshot()) == state
            assert (engine.cooldowns.snapshot(), engine.registry.snapshot()) == user_state
            assert verify_trace(DecisionTrace.from_dict(json.loads(line)), config).ok

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit_all"])
    def test_verifying_a_decided_trace_changes_nothing_in_it(self, shipped_config, audit_all):
        engine = DecisionEngine(shipped_config, audit_all=audit_all)
        for request in PRIVATE_STREAM:
            _verify_leaves_it_and_its_tampered_copies_alone(engine.decide(request)[1], shipped_config)

    def test_verifying_a_golden_line_changes_nothing_in_it(self, shipped_config, golden_config):
        configs = {config.fingerprint(): config for config in (shipped_config, golden_config)}
        for path in GOLDEN_FILES + V3_FILES + V4_FILES:
            for line in path.read_text(encoding="utf-8").splitlines():
                trace = DecisionTrace.from_dict(json.loads(line))
                _verify_leaves_it_and_its_tampered_copies_alone(trace, configs[trace.config_fingerprint])


ALICE_ON_COOLDOWN = {"last_requested": "knife", "active": {"dangerous": 1800}}


class TestHistoryIsNotRead:
    """A trace records the requester's cool-down record and the requested
    object's registry entry, nothing else."""

    def decide_after(self, config, users, request):
        engine = DecisionEngine(config)
        engine.restore_state({"cooldowns": {"users": users}, "personal_registry": engine.registry.snapshot()})
        return engine.decide(request)[1]

    def test_ten_thousand_other_records_leave_the_trace_line_unchanged(self, shipped_config):
        crowd = {
            f"remembered-{i:05d}": {"last_requested": "sleeping_pills", "active": {"mind_altering": 20000}}
            for i in range(10_000)
        }
        request = make_request("alice", "knife", now=60)
        alone = self.decide_after(shipped_config, {"alice": ALICE_ON_COOLDOWN}, request)
        crowded = self.decide_after(shipped_config, {**crowd, "alice": ALICE_ON_COOLDOWN}, request)
        assert crowded.to_json() == alone.to_json()
        assert crowded.pre_state == {"cooldowns": {"users": {"alice": ALICE_ON_COOLDOWN}}, "personal_registry": {}}

    def test_a_requester_without_a_record_gets_an_empty_slice(self, shipped_config):
        trace = self.decide_after(shipped_config, {"alice": ALICE_ON_COOLDOWN}, make_request("bob", "towel"))
        assert trace.pre_state["cooldowns"] == {"users": {}}

    def test_an_unknown_requester_records_the_shared_record(self, shipped_config):
        users = {"alice": ALICE_ON_COOLDOWN, "__unknown__": ALICE_ON_COOLDOWN}
        trace = self.decide_after(shipped_config, users, make_request("mallory", "knife", now=60))
        assert trace.pre_state["cooldowns"] == {"users": {"__unknown__": ALICE_ON_COOLDOWN}}
        assert verify_trace(trace, shipped_config).ok

    def test_the_requested_object_brings_its_registry_entry(self, engine):
        _, towel = engine.decide(make_request("bob", "towel"))
        _, diary = engine.decide(make_request("bob", "diary", request_id="req-001"))
        assert towel.pre_state["personal_registry"] == {}
        assert diary.pre_state["personal_registry"] == {"diary": {"tagged_by": "alice", "grants": []}}

    def test_a_line_recording_a_closed_window_still_verifies(self, shipped_config):
        # Lines written before closed windows were dropped at the
        # requester's next request hold them in their pre-state.
        trace = self.decide_after(shipped_config, {"dave": ALICE_ON_COOLDOWN}, make_request("dave", "towel", now=2100))
        assert trace.pre_state["cooldowns"] == {"users": {"dave": ALICE_ON_COOLDOWN}}
        line = json.loads(trace.to_json())
        assert line["trace_version"] == 6
        assert verify_trace(DecisionTrace.from_dict(line), shipped_config).ok

    def test_household_scope_records_the_household_record(self):
        data = default_config().to_dict()
        data["cooldown_scope"] = "household"
        config = PolicyConfig.from_dict(data)
        engine = DecisionEngine(config)
        engine.decide(make_request("alice", "knife", now=0))
        _, trace = engine.decide(make_request("bob", "knife", now=60, request_id="req-001"))
        assert trace.pre_state["cooldowns"] == {"users": {"__household__": ALICE_ON_COOLDOWN}}
        assert verify_trace(trace, config).ok


class TestStateIsBoundedByTheRoster:
    """Under the shipped "roster" scope each roster member keeps their own
    cool-down record and every requester the roster lacks shares one, so a
    new id neither grows the state nor escapes an open window."""

    def test_a_hundred_thousand_made_up_ids_leave_at_most_roster_plus_one_records(self, shipped_config, engine):
        # Every tenth request comes from a roster member, so that their
        # records fill in too.
        roster = [u.user_id for u in shipped_config.users]
        catalog = [o.object_id for o in shipped_config.objects]
        for i in range(100_000):
            user = roster[i // 10 % len(roster)] if i % 10 == 0 else f"made-up-{i}"
            engine.decide(make_request(user, catalog[i % len(catalog)], now=i))
        records = engine.cooldowns.snapshot()["users"]
        assert len(records) <= len(roster) + 1
        assert set(records) == {*roster, "__unknown__"}

    def test_a_new_id_does_not_escape_an_open_window(self, engine):
        # mallory is denied the knife and the window opens all the same.
        assert engine.decide(make_request("mallory", "knife", now=0))[0].verdict == DENY
        for user in ("mallory", "mallory2"):
            decision, _ = engine.decide(make_request(user, "towel", now=10))
            assert (decision.verdict, decision.deciding_policy) == (DENY, "emotion"), user

    def test_per_id_records_restore_under_roster_scope(self, shipped_config):
        # A snapshot keyed by made-up ids restores, and keeps them; no
        # request reads them, so an unknown requester's slice is empty. It
        # is in the shape trace versions 2 to 5 wrote, which the benchmark's
        # remembered state still uses.
        made_up = {f"remembered-{i:05d}": ALICE_ON_COOLDOWN for i in range(3)}
        engine = DecisionEngine(shipped_config)
        engine.restore_state(
            {
                "cooldowns": {"scope": "roster", "users": made_up},
                "personal_registry": engine.registry.snapshot(),
                "board_primed": True,
            }
        )
        assert engine.cooldowns.snapshot()["users"] == made_up
        assert engine.cooldowns.scope == "roster"
        decision, trace = engine.decide(make_request("remembered-00000", "towel", now=60))
        assert decision.verdict == ALLOW
        assert trace.pre_state["cooldowns"] == {"users": {}}
        assert verify_trace(trace, shipped_config).ok


class TestReplay:
    def test_replay_reproduces_decision(self, shipped_config, engine):
        decision, trace = engine.decide(make_request("alice", "knife", emotion=RED))
        replayed = replay(trace, shipped_config)
        assert replayed.to_dict() == decision.to_dict()

    def test_replay_of_mid_session_request(self, shipped_config, engine):
        engine.decide(make_request("alice", "knife", now=0))
        decision, trace = engine.decide(make_request("alice", "knife", now=60, request_id="req-001"))
        assert verify_trace(trace, shipped_config).ok
        assert replay(trace, shipped_config).to_dict() == decision.to_dict()

    def test_replay_refused_on_fingerprint_mismatch(self, engine):
        _, trace = engine.decide(make_request("alice", "towel"))
        data = default_config().to_dict()
        data["durations"]["dangerous_s"] = 60
        edited = PolicyConfig.from_dict(data)
        with pytest.raises(ReplayError):
            replay(trace, edited)

    def test_tampered_context_flips_decision_and_is_detected(self, shipped_config, engine):
        # A yellow-zone dangerous fetch passes only with verbal affirmation;
        # flipping that boolean in the recorded request flips the decision.
        engine.decide(make_request("alice", "knife", now=0))
        decision, trace = engine.decide(
            make_request("alice", "knife", now=60, request_id="req-001")
        )
        assert decision.verdict == ALLOW
        tampered = DecisionTrace.from_dict(json.loads(trace.to_json()))
        tampered.request["context"]["verbal_affirmation"] = False
        result = verify_trace(tampered, shipped_config)
        assert not result.ok
        assert result.decision.verdict == DENY

    def test_tampered_event_snapshot_is_detected(self, shipped_config, engine):
        _, trace = engine.decide(make_request("alice", "towel"))
        tampered = DecisionTrace.from_dict(json.loads(trace.to_json()))
        for event in tampered.events:
            if event["node"] == "emotion_ok":
                event["base_zone"] = "red"
        result = verify_trace(tampered, shipped_config)
        assert not result.ok


class TestAuditMode:
    def test_audit_mode_keeps_verdict_but_adds_events(self, shipped_config):
        plain = DecisionEngine(shipped_config)
        audit = DecisionEngine(shipped_config, audit_all=True)
        request = make_request("dave", "toy_block")
        d1, t1 = plain.decide(request)
        d2, t2 = audit.decide(request)
        assert d1.to_dict() == d2.to_dict()
        audit_events = [e for e in t2.events if e.get("audit")]
        assert [e["node"] for e in audit_events] == ["ordering_ok", "emotion_ok", "category_context_ok", "personal_ok"]
        assert not any(e.get("audit") for e in t1.events)

    def test_audit_traces_replay_too(self, shipped_config):
        engine = DecisionEngine(shipped_config, audit_all=True)
        _, trace = engine.decide(make_request("alice", "knife", emotion=RED))
        assert verify_trace(trace, shipped_config).ok

    @staticmethod
    def pre_states(config, stream, audit_all):
        engine = DecisionEngine(config, audit_all=audit_all)
        return [canonical_json(engine.decide(request)[1].pre_state) for request in stream]

    def test_the_audit_pass_leaves_expired_windows_as_plain_mode_does(self, shipped_config):
        # alice's knife window has expired when the unknown object is denied
        # at eligibility, and the audit pass then evaluates ordering.
        stream = [
            make_request("alice", "knife", now=0),
            make_request("alice", "unicorn", now=2000),
            make_request("alice", "towel", now=2100),
        ]
        plain = self.pre_states(shipped_config, stream, audit_all=False)
        assert '"dangerous":1800' in plain[2]
        assert self.pre_states(shipped_config, stream, audit_all=True) == plain

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
    def test_an_ineligible_request_closes_the_requesters_windows(self, shipped_config, audit_all):
        # dave (4) is denied at eligibility, yet his towel request at 2000
        # drops the knife window that closed at 1800. (A request for an
        # unknown object writes nothing: see the test above.)
        stream = [
            make_request("dave", "knife", now=0),
            make_request("dave", "towel", now=2000),
            make_request("dave", "towel", now=2100),
        ]
        third = json.loads(self.pre_states(shipped_config, stream, audit_all)[2])
        assert third["cooldowns"] == {"users": {"dave": {"last_requested": "towel", "active": {}}}}

    @settings(max_examples=100, deadline=None)
    @given(
        stream=st.lists(
            st.builds(
                make_request,
                st.sampled_from(["alice", "bob", "dave", "stranger"]),
                st.sampled_from(["knife", "sleeping_pills", "car_keys", "towel", "unicorn"]),
                emotion=st.sampled_from(ZONE_SAMPLES),
                now=st.integers(min_value=0, max_value=20_000),
            ),
            max_size=8,
        )
    )
    def test_plain_and_audit_runs_record_the_same_pre_states(self, shipped_config, stream):
        stream.sort(key=lambda request: request.now)
        assert self.pre_states(shipped_config, stream, audit_all=True) == self.pre_states(
            shipped_config, stream, audit_all=False
        )


class TestZoneMonotonicity:
    def test_worsening_zone_never_flips_deny_to_allow(self, shipped_config):
        users = ["alice", "bob", "carol", "erin", "grace", "stranger"]
        objects = ["towel", "knife", "sleeping_pills", "car_keys", "peanut_butter"]
        contexts = [
            ContextSnapshot("kitchen", True, True, 0),
            ContextSnapshot("garage", False, False, 0),
        ]
        for user in users:
            for object_id in objects:
                for context in contexts:
                    verdicts = []
                    for sample in ZONE_SAMPLES:
                        engine = DecisionEngine(shipped_config)
                        decision, _ = engine.decide(
                            make_request(user, object_id, emotion=sample, context=context)
                        )
                        verdicts.append(decision.verdict)
                    seen_deny = False
                    for verdict in verdicts:
                        if seen_deny:
                            assert verdict == DENY
                        seen_deny = seen_deny or verdict == DENY


ROSTER = [u.user_id for u in default_config().users] + ["stranger"]
CATALOG = [o.object_id for o in default_config().objects]
SAMPLES = st.builds(EmotionSample, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
REQUESTS = st.builds(
    make_request,
    st.sampled_from(ROSTER),
    st.sampled_from(CATALOG),
    emotion=SAMPLES,
    context=st.builds(ContextSnapshot, st.sampled_from(["kitchen", "garage", "bedroom"]), st.booleans(), st.booleans()),
    now=st.integers(1800, 10**6),
)


def verdict(config, request, *openers, tagger=None):
    """The verdict on a fresh engine, after the opener requests and the
    tagger's personal tag on the requested object, if any are given."""
    engine = DecisionEngine(config)
    for opener in openers:
        engine.decide(opener)
    if tagger is not None:
        engine.apply_tag(tagger, request.object_id)
    return engine.decide(request)[0].verdict


class TestTighteningLaws:
    """A request the shipped config denies stays denied when it gets tighter:
    a worse zone, a context flag gone false, a cool-down window opened
    first, or the object tagged personal first by someone else. The first
    three laws also hold on every config validate() accepts that edits one
    row of the shipped matrix."""

    @settings(max_examples=150, deadline=None)
    @given(request=REQUESTS, other=SAMPLES)
    def test_a_worse_zone_keeps_a_denial(self, shipped_config, request, other):
        def zone(r):
            return zone_of(r.emotion.clamped()[0], shipped_config.zone_table)

        looser, tighter = sorted([request, dataclasses.replace(request, emotion=other)], key=zone)
        if verdict(shipped_config, looser) == DENY:
            assert verdict(shipped_config, tighter) == DENY

    @pytest.mark.parametrize("flag", ["adult_present", "verbal_affirmation"])
    @settings(max_examples=100, deadline=None)
    @given(request=REQUESTS)
    def test_a_context_flag_gone_false_keeps_a_denial(self, shipped_config, flag, request):
        looser, tighter = (
            dataclasses.replace(request, context=dataclasses.replace(request.context, **{flag: value}))
            for value in (True, False)
        )
        if verdict(shipped_config, looser) == DENY:
            assert verdict(shipped_config, tighter) == DENY

    @pytest.mark.parametrize("opener", ["knife", "sleeping_pills"], ids=["dangerous", "mind_altering"])
    @settings(max_examples=100, deadline=None)
    @given(request=REQUESTS, earlier=st.integers(0, 1799))
    def test_an_opened_cooldown_keeps_a_denial(self, shipped_config, opener, request, earlier):
        # The opener arms its window whatever its own verdict, and the
        # shorter (dangerous) window is still open at the request.
        first = make_request(request.user_id, opener, now=request.now - earlier, request_id="opener")
        if verdict(shipped_config, request) == DENY:
            assert verdict(shipped_config, request, first) == DENY

    @settings(max_examples=100, deadline=None)
    @given(request=REQUESTS, tagger=st.sampled_from(sorted(default_config().admin.all_designators())))
    def test_a_designators_tag_keeps_a_denial(self, shipped_config, request, tagger):
        # Another designator's tag, on an object untagged or already theirs.
        tagged_by = {tag.object_id: tag.tagged_by for tag in shipped_config.personal_tags}
        assume(tagger != request.user_id and tagged_by.get(request.object_id, tagger) == tagger)
        if verdict(shipped_config, request) == DENY:
            assert verdict(shipped_config, request, tagger=tagger) == DENY

    @settings(max_examples=150, deadline=None)
    @given(
        request=REQUESTS,
        earlier=st.lists(st.tuples(st.sampled_from(CATALOG), st.integers(0, 1799)), max_size=3),
        renamed=st.text(max_size=8),
    )
    def test_a_new_id_keeps_an_unknown_requesters_denial(self, shipped_config, request, earlier, renamed):
        # The rename law: mallory's earlier requests, up to 1799 s before,
        # open windows that another unknown id cannot leave behind.
        assume(renamed != "mallory" and shipped_config.user_by_id(renamed) is None)
        firsts = [
            make_request("mallory", obj, now=request.now - ago, request_id=f"earlier-{i}")
            for i, (obj, ago) in enumerate(sorted(earlier, key=lambda e: -e[1]))
        ]
        if verdict(shipped_config, dataclasses.replace(request, user_id="mallory"), *firsts) == DENY:
            assert verdict(shipped_config, dataclasses.replace(request, user_id=renamed), *firsts) == DENY

    @settings(max_examples=300, deadline=None)
    @given(
        configs=st.sampled_from(CONFIGS),
        audit_all=st.booleans(),
        rnd=st.randoms(use_true_random=True),
        shift=st.integers(-(10**9), 10**9),
    )
    def test_a_shifted_clock_changes_no_decision(self, configs, audit_all, rnd, shift):
        # The time-shift law: only the time between requests is read, so
        # moving every now and context timestamp by one constant changes no
        # decision and no write's outcome.
        _, config = configs
        events = random_stream(rnd)
        assert outcomes(config, audit_all, events, shift) == outcomes(config, audit_all, events, 0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_worse_zone_keeps_a_denial_on_an_edited_matrix(self, data):
        config, key, request = aimed_at_an_edited_row(data)
        first = openers(request, key.cooldown_profile)
        samples = [request.emotion, data.draw(st.sampled_from(ZONE_SAMPLES))]
        looser, tighter = (dataclasses.replace(request, emotion=s) for s in sorted(samples, key=ZONE_SAMPLES.index))
        if verdict(config, looser, *first) == DENY:
            assert verdict(config, tighter, *first) == DENY

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_an_opened_cooldown_keeps_a_denial_on_an_edited_matrix(self, data):
        # The edited row is the looser side when the opened class is not in
        # its profile, and the tighter side when it is.
        config, key, request = aimed_at_an_edited_row(data)
        opened = data.draw(st.sampled_from(list(OPENER)))
        looser, tighter = key.cooldown_profile - {opened}, key.cooldown_profile | {opened}
        if verdict(config, request, *openers(request, looser)) == DENY:
            assert verdict(config, request, *openers(request, tighter)) == DENY

    @pytest.mark.parametrize("flag", ["adult_present", "verbal_affirmation"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_context_flag_gone_false_keeps_a_denial_on_an_edited_matrix(self, flag, data):
        config, key, request = aimed_at_an_edited_row(data)
        first = openers(request, key.cooldown_profile)
        looser, tighter = (
            dataclasses.replace(request, context=dataclasses.replace(request.context, **{flag: value}))
            for value in (True, False)
        )
        if verdict(config, looser, *first) == DENY:
            assert verdict(config, tighter, *first) == DENY


#: Each roster user's group under the shipped region; an unknown id is U.
GROUP_OF = {
    **{u.user_id: classify_user_group(u, default_config().region) for u in default_config().users},
    "stranger": UserGroup.U,
}
ROSTER_GROUPS = sorted(set(GROUP_OF.values()))
OBJECTS_OF = {c: [o.object_id for o in default_config().objects if o.safety_class is c] for c in SafetyClass}
CONTEXTS = st.builds(ContextSnapshot, st.sampled_from(["kitchen", "garage"]), st.booleans(), st.booleans())
SHIPPED_MATRIX = default_config().matrix
#: The object whose request opens each class's cool-down window.
OPENER = {SafetyClass.DANGEROUS: "knife", SafetyClass.MIND_ALTERING: "sleeping_pills"}


def openers(request, profile):
    """The requests, 10 s before `request` and by its user, that open the
    window of each class in `profile`."""
    return [make_request(request.user_id, obj, now=request.now - 10) for c, obj in OPENER.items() if c in profile]


def aimed_at_an_edited_row(data):
    """(config, key, request): a config from accepted_matrix_edits(), its
    edited row's key, and a request that looks that row up once the
    windows of the row's profile are open: an object of the row's class, a
    sample whose effective zone is the row's zone, and a user of the group
    the edit added, or of any group the row admits if it added none. A
    group the edit did not add meets the shipped rows on every side."""
    key, config = data.draw(st.sampled_from(accepted_matrix_edits()))
    groups = config.matrix[key].allowed_groups
    groups = (groups - SHIPPED_MATRIX[key].allowed_groups) or groups
    user = data.draw(st.sampled_from([user for user, group in GROUP_OF.items() if group in groups]))
    step = 1 if key.request_class in key.cooldown_profile else 0
    request = make_request(
        user,
        data.draw(st.sampled_from(OBJECTS_OF[key.request_class])),
        emotion=ZONE_SAMPLES[int(key.zone) - step],
        context=data.draw(CONTEXTS),
        now=10_000,
    )
    return config, key, request


@functools.cache
def accepted_matrix_edits():
    """(key, config) for every config that toggles one group or one check on
    one row of the shipped matrix and that validate() accepts, where the row
    can be looked up and admits a roster user. An open window of the
    requested class escalates the zone once, so no lookup asks for such a
    row in green."""
    shipped = default_config()
    edits = []
    for key, entry in shipped.matrix.items():
        if key.request_class in key.cooldown_profile and key.zone is Zone.GREEN:
            continue
        toggles = [MatrixEntry(entry.allowed_groups ^ {g}, entry.required_checks) for g in ROSTER_GROUPS]
        toggles += [MatrixEntry(entry.allowed_groups, entry.required_checks ^ {c}) for c in MATRIX_CHECKS]
        for edited in toggles:
            config = dataclasses.replace(shipped, matrix={**shipped.matrix, key: edited})
            if config.validate().ok and edited.allowed_groups.intersection(ROSTER_GROUPS):
                edits.append((key, config))
    return edits


class TestRequestTypes:
    @pytest.mark.parametrize(
        "part, field, value",
        [
            (None, "now", "x"),
            (None, "now", 1.5),
            (None, "now", True),
            (None, "user_id", 7),
            ("context", "timestamp", math.nan),
            ("context", "adult_present", "yes"),
            ("context", "room", None),
            ("emotion", "valence", None),
            ("emotion", "arousal", False),
        ],
    )
    def test_a_mistyped_value_is_refused_when_built(self, part, field, value):
        request = make_request("alice", "towel")
        built = request if part is None else getattr(request, part)
        with pytest.raises(TypeError):
            dataclasses.replace(built, **{field: value})

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "part, field", [(None, "now"), ("context", "timestamp"), ("emotion", "valence"), ("emotion", "arousal")]
    )
    def test_an_int_no_trace_can_write_is_refused_when_built(self, part, field, sign):
        request = make_request("alice", "towel")
        built = request if part is None else getattr(request, part)
        with pytest.raises(ValueError, match=f"{field} has more than 4299 digits"):
            dataclasses.replace(built, **{field: sign * 10**5000})

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_the_largest_accepted_ints_decide_write_and_verify(self, shipped_config, sign):
        # Python writes and reads ints of up to 4,300 digits; a request's
        # are kept a digit shorter, so that an expiry a window's length on
        # still writes.
        largest = sign * (10**4299 - 1)
        engine = DecisionEngine(shipped_config)
        context = ContextSnapshot("kitchen", True, True, largest)
        lines = [
            engine.decide(FetchRequest(f"big-{i}", "alice", obj, EmotionSample(largest, -largest), context, largest))[1]
            .to_json()
            for i, obj in enumerate(["knife", "towel"])
        ]
        assert engine.cooldowns.expiry("alice", SafetyClass.DANGEROUS) == largest + 1800
        assert str(largest + 1800) in lines[1]
        for line in lines:
            assert verify_trace(DecisionTrace.from_dict(json.loads(line)), shipped_config).ok
        one_more = largest + sign
        for build in (
            lambda: dataclasses.replace(make_request("alice", "towel"), now=one_more),
            lambda: dataclasses.replace(context, timestamp=one_more),
            lambda: EmotionSample(one_more, 0.0),
            lambda: EmotionSample(0.0, one_more),
        ):
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("key", ["dangerous_s", "mind_altering_s"])
    @pytest.mark.parametrize("duration", [10**4300 - 1, INT_BOUND], ids=["4300_digits", "bound"])
    def test_a_duration_no_trace_can_write_is_refused_at_load(self, shipped_config, key, duration):
        # A window's expiry is a clock reading plus a duration, and it is in
        # the next line's pre_state.
        data = shipped_config.to_dict()
        data["durations"][key] = duration
        refusal = f"durations: {key} has more than 4299 digits, which no trace can write"
        with pytest.raises(ConfigError, match=refusal):
            PolicyConfig.from_dict(data)
        with pytest.raises(ValueError, match=f"{key} has more than 4299 digits"):
            CooldownDurations(**{"dangerous": 1, "mind_altering": 1, key[: -len("_s")]: duration})

    def test_the_largest_accepted_duration_decides_writes_and_verifies(self, shipped_config):
        data = shipped_config.to_dict()
        data["durations"]["dangerous_s"] = INT_BOUND - 1
        config = PolicyConfig.from_dict(data)
        assert config.validate().ok
        engine = DecisionEngine(config)
        knife, first = engine.decide(make_request("alice", "knife", now=1))
        assert knife.verdict == ALLOW
        _, second = engine.decide(make_request("alice", "towel", now=2, request_id="req-001"))
        assert second.pre_state["cooldowns"]["users"]["alice"]["active"] == {"dangerous": INT_BOUND}
        for trace in (first, second):
            assert verify_trace(DecisionTrace.from_dict(json.loads(trace.to_json())), config).ok

    def test_checks_never_convert(self, engine):
        _, trace = engine.decide(make_request("alice", "towel", emotion=EmotionSample(0, 1)))
        assert '"emotion":{"arousal":1,"valence":0}' in trace.to_json()
