"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (or `-s` to see the lines).
"""

import json
import random
from pathlib import Path

from fetchguard import (
    AdminHierarchy,
    ContextSnapshot,
    CooldownDurations,
    CooldownState,
    DecisionEngine,
    DecisionTrace,
    DENY,
    EmotionSample,
    FetchRequest,
    MatrixEntry,
    ObjectSpec,
    PolicyConfig,
    Region,
    Relationship,
    SafetyClass,
    UserGroup,
    UserProfile,
    Zone,
    default_config,
    load_scenario,
    replay,
    run_scenario,
    validate_matrix,
    validate_zone_table,
    verify_trace,
    zone_of,
)
from fetchguard.matrix import ALL_GROUPS, MatrixKey
from fetchguard.engine import canonical_json

from reference_bt import random_tree, reference_tick
from test_bt import Visits

D = SafetyClass.DANGEROUS
M = SafetyClass.MIND_ALTERING
N = SafetyClass.NEITHER

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))

ZONE_SAMPLES = {
    Zone.GREEN: EmotionSample(0.5, 0.0),
    Zone.YELLOW: EmotionSample(-0.3, 0.0),
    Zone.ORANGE: EmotionSample(-0.9, -0.9),
    Zone.RED: EmotionSample(-0.9, 0.9),
}

KNIFE = ObjectSpec("knife", "Knife", D, "kitchen")
PILLS = ObjectSpec("pills", "Pills", M, "medicine")
TOWEL = ObjectSpec("towel", "Towel", N, "bathroom")
CAR_KEYS = ObjectSpec("car_keys", "Car keys", N, "vehicle")

GROUP_PROFILES = {
    UserGroup.HA: ("ha", 30, Relationship.HOUSEHOLD),
    UserGroup.HT: ("ht", 15, Relationship.HOUSEHOLD),
    UserGroup.HC: ("hc", 8, Relationship.HOUSEHOLD),
    UserGroup.FAA: ("faa", 30, Relationship.FAMILY),
    UserGroup.FAT: ("fat", 15, Relationship.FAMILY),
    UserGroup.FAC: ("fac", 8, Relationship.FAMILY),
    UserGroup.FRA: ("fra", 30, Relationship.FRIEND),
    UserGroup.FRT: ("frt", 15, Relationship.FRIEND),
    UserGroup.FRC: ("frc", 8, Relationship.FRIEND),
    UserGroup.U: ("u", 30, Relationship.UNKNOWN),
    UserGroup.INELIGIBLE: ("inel", 4, Relationship.HOUSEHOLD),
}


def lab_config(users, objects):
    """A purpose-built household with the shipped tables and no category rules."""
    shipped = default_config()
    return PolicyConfig(
        region=Region("canada", 19),
        durations=shipped.durations,
        cooldown_scope="user",
        zone_table=shipped.zone_table,
        matrix=shipped.matrix,
        category_rules=[],
        objects=objects,
        users=users,
        admin=AdminHierarchy(owner=users[0].user_id),
        personal_tags=[],
    )


def friendly_context(now=0):
    return ContextSnapshot(room="kitchen", adult_present=True, verbal_affirmation=True, timestamp=now)


def test_criterion_1_cooldown_constants_exact():
    durations = default_config().durations
    state = CooldownState()
    state.on_granted("u", KNIFE, 0, durations)
    assert state.expiry("u", D) == 1800
    assert state.active_cooldowns("u", 1799) == {D}
    assert state.active_cooldowns("u", 1801) == frozenset()

    state = CooldownState()
    state.on_granted("u", PILLS, 0, durations)
    assert state.expiry("u", M) == 14400
    assert state.active_cooldowns("u", 14399) == {M}
    assert state.active_cooldowns("u", 14401) == frozenset()

    # Same constants end to end through the engine.
    engine = DecisionEngine(default_config())
    decision, _ = engine.decide(
        FetchRequest("a1", "alice", "knife", ZONE_SAMPLES[Zone.GREEN], friendly_context(), 0)
    )
    assert decision.verdict == "allow"
    assert engine.cooldowns.expiry("alice", D) == 1800
    assert engine.cooldowns.active_cooldowns("alice", 1799) == {D}
    assert engine.cooldowns.active_cooldowns("alice", 1801) == frozenset()
    print("ACCEPTANCE PASS 1: cool-down constants exact (dangerous 1800 s, mind-altering 14400 s)")


def test_criterion_2_denial_reset_matches_brute_force_oracle():
    rng = random.Random(424242)
    objects = [KNIFE, PILLS, TOWEL, CAR_KEYS]
    users = ["a", "b", "c"]
    for _ in range(1000):
        durations = CooldownDurations(
            dangerous=rng.randint(1, 5000), mind_altering=rng.randint(1, 30000)
        )
        state = CooldownState()
        oracle: dict = {}
        now = 0
        for _ in range(12):
            now += rng.randint(0, 800)
            user = rng.choice(users)
            obj = rng.choice(objects)
            denied = rng.random() < 0.5
            if denied:
                state.on_denied(user, obj, now, durations)
            else:
                state.on_granted(user, obj, now, durations)
            # The requester's closed windows go at each of their requests;
            # denied-or-granted, a flagged object's window resets to a full
            # duration.
            for cls in (D, M):
                if oracle.get((user, cls), now + 1) <= now:
                    del oracle[(user, cls)]
            if obj.safety_class in (D, M):
                oracle[(user, obj.safety_class)] = now + durations.for_class(obj.safety_class)
            probe = rng.choice(users)
            expected = frozenset(
                cls for (u, cls), exp in oracle.items() if u == probe and exp > now
            )
            assert state.active_cooldowns(probe, now) == expected
            for cls in (D, M):
                assert state.expiry(probe, cls) == oracle.get((probe, cls))
    print("ACCEPTANCE PASS 2: denial reset exact over 1000 randomized sequences vs oracle")


def test_criterion_3_vehicle_ban_exhaustive_over_groups_and_zones():
    users = [
        UserProfile(uid, age, rel)
        for uid, age, rel in (GROUP_PROFILES[g] for g in GROUP_PROFILES)
    ]
    config = lab_config(users, [PILLS, CAR_KEYS])
    checked = 0
    for group, (uid, _age, _rel) in GROUP_PROFILES.items():
        for zone, sample in ZONE_SAMPLES.items():
            engine = DecisionEngine(config)
            engine.cooldowns.on_granted(uid, PILLS, 0, config.durations)
            decision, _ = engine.decide(
                FetchRequest(f"v-{uid}-{zone.as_str()}", uid, "car_keys", sample, friendly_context(10), 10)
            )
            assert decision.verdict == DENY, (group, zone)
            checked += 1
    assert checked == len(GROUP_PROFILES) * 4
    print(f"ACCEPTANCE PASS 3: vehicle ban denied 100% of {checked} group x zone cases")


def test_criterion_4_under_five_denied_everywhere():
    users = [
        UserProfile("kid_household", 4, Relationship.HOUSEHOLD),
        UserProfile("kid_family", 4, Relationship.FAMILY),
        UserProfile("kid_friend", 4, Relationship.FRIEND),
        UserProfile("kid_unknown", 4, Relationship.UNKNOWN),
        UserProfile("adult", 30, Relationship.HOUSEHOLD),
    ]
    objects = [KNIFE, PILLS, TOWEL]
    config = lab_config([users[-1]] + users[:-1], objects)
    checked = 0
    engine = DecisionEngine(config)
    for user in users[:-1]:
        for obj in objects:
            for zone, sample in ZONE_SAMPLES.items():
                engine.reset()
                decision, _ = engine.decide(
                    FetchRequest("k", user.user_id, obj.object_id, sample, friendly_context(), 0)
                )
                assert decision.verdict == DENY
                assert decision.deciding_policy == "eligibility"
                checked += 1
    assert checked == 4 * 3 * 4
    print(f"ACCEPTANCE PASS 4: age-4 requesters denied at eligibility in 100% of {checked} cases")


def test_criterion_5_zone_totality_and_anchors():
    table = default_config().zone_table
    assert validate_zone_table(table).ok
    for iv in range(-100, 101):
        for ia in range(-100, 101):
            zone_of(EmotionSample(iv / 100.0, ia / 100.0), table)
    assert zone_of(EmotionSample(-1.0, 1.0), table) is Zone.RED
    assert zone_of(EmotionSample(-1.0, -1.0), table) is Zone.ORANGE
    for ia in range(-100, 101, 20):
        assert zone_of(EmotionSample(1.0, ia / 100.0), table) is Zone.GREEN
    print("ACCEPTANCE PASS 5: 0.01-resolution sweep total; anchors red/orange/green hold")


def test_criterion_6_matrix_laws_and_violation_detection():
    assert validate_matrix(default_config().matrix).ok
    assert len(default_config().matrix) == 48

    short = dict(default_config().matrix)
    del short[MatrixKey(frozenset(), N, Zone.GREEN)]
    assert "missing-key" in validate_matrix(short).codes()

    bumpy = dict(default_config().matrix)
    # Red suddenly admits a teen that every better zone refuses.
    bumpy[MatrixKey(frozenset(), D, Zone.RED)] = MatrixEntry(frozenset({UserGroup.HA, UserGroup.HT}))
    assert "zone-monotonicity" in validate_matrix(bumpy).codes()

    leaky = dict(default_config().matrix)
    leaky[MatrixKey(frozenset(), N, Zone.GREEN)] = MatrixEntry(ALL_GROUPS | {UserGroup.INELIGIBLE})
    assert "ineligible-group" in validate_matrix(leaky).codes()
    print("ACCEPTANCE PASS 6: matrix validator passes shipped default, catches 3 violations")


def test_criterion_7_bt_oracle_equivalence_500_trees():
    rng = random.Random(20260101)
    for i in range(500):
        tree = random_tree(rng, max_depth=5, max_nodes=20)
        listener = Visits()
        status = tree.tick({}, listener)
        ref_visits: list = []
        ref_status = reference_tick(tree, {}, ref_visits)
        assert status is ref_status, f"tree #{i}"
        assert listener.entered == ref_visits, f"tree #{i}"
    print("ACCEPTANCE PASS 7: 500 random trees match the reference interpreter exactly")


def test_criterion_8_replay_closure_over_corpus():
    config = default_config()
    assert len(SCENARIOS) >= 12
    replayed = 0
    for path in SCENARIOS:
        result = run_scenario(config, load_scenario(path))
        assert result.ok, result.summary()
        for trace in result.traces:
            fresh = replay(trace, config)
            assert canonical_json(fresh.to_dict()) == canonical_json(trace.decision.to_dict())
            assert verify_trace(trace, config).ok
            replayed += 1
    # Tampered traces must be detected.
    result = run_scenario(config, load_scenario(SCENARIOS[0]))
    tampered = DecisionTrace.from_dict(json.loads(result.traces[0].to_json()))
    tampered.request["emotion"]["valence"] = -0.9
    tampered.request["emotion"]["arousal"] = 0.9
    assert not verify_trace(tampered, config).ok
    print(
        f"ACCEPTANCE PASS 8: {replayed} traces across {len(SCENARIOS)} scenarios replay "
        "byte-identically; tampering detected"
    )


def test_criterion_9_worsening_zone_never_flips_deny_to_allow():
    config = default_config()
    user_ids = [u.user_id for u in config.users] + ["stranger"]
    object_ids = [o.object_id for o in config.objects]
    rng = random.Random(7_7_7)
    rooms = ["kitchen", "bathroom", "garage", "playroom"]
    engine = DecisionEngine(config)
    ordered_zones = [Zone.GREEN, Zone.YELLOW, Zone.ORANGE, Zone.RED]
    for case in range(200):
        user = rng.choice(user_ids)
        object_id = rng.choice(object_ids)
        context = ContextSnapshot(
            room=rng.choice(rooms),
            adult_present=rng.random() < 0.5,
            verbal_affirmation=rng.random() < 0.5,
            timestamp=0,
        )
        arm_dangerous = rng.random() < 0.3
        arm_mind_altering = rng.random() < 0.3
        verdicts = []
        for zone in ordered_zones:
            engine.reset()
            if arm_dangerous:
                engine.cooldowns.on_granted(user, KNIFE, 0, config.durations)
            if arm_mind_altering:
                engine.cooldowns.on_granted(user, PILLS, 0, config.durations)
            decision, _ = engine.decide(
                FetchRequest(f"m{case}", user, object_id, ZONE_SAMPLES[zone], context, 100)
            )
            verdicts.append(decision.verdict)
        denied = False
        for verdict in verdicts:
            if denied:
                assert verdict == DENY, (user, object_id, verdicts)
            denied = denied or verdict == DENY
    print("ACCEPTANCE PASS 9: 200 random requests stay denied as the zone worsens")
