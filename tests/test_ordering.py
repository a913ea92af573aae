import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fetchguard import (
    ConfigError,
    CooldownDurations,
    CooldownState,
    ObjectSpec,
    SafetyClass,
    Zone,
    escalate,
    default_config,
    ordering_restrictions,
)

D = SafetyClass.DANGEROUS
M = SafetyClass.MIND_ALTERING
N = SafetyClass.NEITHER

KNIFE = ObjectSpec("knife", "Knife", D, "kitchen")
PILLS = ObjectSpec("pills", "Pills", M, "medicine")
TOWEL = ObjectSpec("towel", "Towel", N, "bathroom")
CAR_KEYS = ObjectSpec("car_keys", "Car keys", N, "vehicle")

DEFAULTS = default_config().durations


class TestGrant:
    def test_dangerous_grant_arms_exact_30_minutes(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        assert state.expiry("alice", D) == 1800

    def test_mind_altering_grant_arms_exact_4_hours(self):
        state = CooldownState()
        state.on_granted("alice", PILLS, 0, DEFAULTS)
        assert state.expiry("alice", M) == 14400

    def test_neither_grant_leaves_cooldowns_untouched(self):
        state = CooldownState()
        state.on_granted("alice", TOWEL, 0, DEFAULTS)
        assert state.active_cooldowns("alice", 1) == frozenset()
        assert state.last_requested("alice") == "towel"


class TestDeny:
    def test_denied_mind_altering_resets_to_full_window(self):
        state = CooldownState()
        state.on_granted("alice", PILLS, -14200, DEFAULTS)  # expiry at t=200
        assert state.expiry("alice", M) == 200
        state.on_granted("alice", PILLS, 100, DEFAULTS)
        assert state.expiry("alice", M) == 100 + 14400

    def test_denied_neither_changes_no_cooldown(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        state.on_granted("alice", TOWEL, 100, DEFAULTS)
        assert state.expiry("alice", D) == 1800
        assert state.last_requested("alice") == "towel"

    def test_denied_dangerous_with_no_prior_cooldown_creates_one(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 50, DEFAULTS)
        assert state.expiry("alice", D) == 50 + 1800


class TestActiveWindows:
    def test_fresh_state_has_no_active_cooldowns(self):
        assert CooldownState().active_cooldowns("alice", 0) == frozenset()

    def test_boundary_probes_around_expiry(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        assert state.active_cooldowns("alice", 1799) == {D}
        assert state.active_cooldowns("alice", 1801) == frozenset()

    def test_both_classes_can_be_active(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        state.on_granted("alice", PILLS, 10, DEFAULTS)
        assert state.active_cooldowns("alice", 100) == {D, M}

    def test_closed_windows_go_at_the_next_request(self):
        # Reading leaves a closed window; the requester's next grant or
        # denial, here of a neither-class object, drops it.
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        assert state.active_cooldowns("alice", 5000) == frozenset()
        assert state.snapshot()["users"]["alice"]["active"] == {"dangerous": 1800}
        state.on_granted("alice", TOWEL, 5000, DEFAULTS)
        assert state.snapshot()["users"]["alice"]["active"] == {}

    def test_a_window_closing_at_now_goes_and_one_closing_a_second_later_stays(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)  # closes at 1800
        state.on_granted("alice", PILLS, -14400 + 1801, DEFAULTS)  # closes at 1801
        state.on_granted("alice", TOWEL, 1800, DEFAULTS)
        assert state.snapshot()["users"]["alice"]["active"] == {"mind_altering": 1801}
        state.on_granted("alice", TOWEL, 1801, DEFAULTS)
        assert state.snapshot()["users"]["alice"]["active"] == {}

    def test_a_grant_with_every_window_open_keeps_them_all(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        state.on_granted("alice", PILLS, 10, DEFAULTS)
        state.on_granted("alice", KNIFE, 1799, DEFAULTS)
        assert state.snapshot()["users"]["alice"]["active"] == {"dangerous": 3599, "mind_altering": 14410}

    @pytest.mark.parametrize("now", [0, 9, 10, 1799, 1800, 1801, 5000, 14409, 14410, 14411, 10**6])
    def test_active_cooldowns_only_reads(self, now):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        state.on_granted("alice", PILLS, 10, DEFAULTS)
        before = state.snapshot()
        assert state.active_cooldowns("alice", now) == {cls for cls, expiry in ((D, 1800), (M, 14410)) if expiry > now}
        assert state.snapshot() == before

    def test_per_user_isolation(self):
        state = CooldownState()
        state.on_granted("alice", KNIFE, 0, DEFAULTS)
        assert state.active_cooldowns("bob", 10) == frozenset()
        state.on_granted("bob", PILLS, 10, DEFAULTS)
        assert state.active_cooldowns("alice", 20) == {D}
        assert state.expiry("alice", M) is None


class TestRestrictions:
    def test_vehicle_ban_under_mind_altering_cooldown(self):
        restriction = ordering_restrictions(frozenset({M}), CAR_KEYS)
        assert restriction.vehicle_ban

    def test_no_cooldowns_no_restriction(self):
        restriction = ordering_restrictions(frozenset(), KNIFE)
        assert not restriction.vehicle_ban
        assert restriction.escalation_steps == 0

    def test_same_class_escalates_one_step(self):
        restriction = ordering_restrictions(frozenset({D}), KNIFE)
        assert restriction.escalation_steps == 1
        assert escalate(Zone.GREEN, restriction.escalation_steps) is Zone.YELLOW

    def test_cross_class_does_not_escalate(self):
        assert ordering_restrictions(frozenset({D}), PILLS).escalation_steps == 0
        assert ordering_restrictions(frozenset({M}), TOWEL).escalation_steps == 0

    def test_escalation_monotone_over_the_whole_domain(self):
        # Exhaustive: adding the matching class never lowers the effective zone.
        profiles = [frozenset(), frozenset({D}), frozenset({M}), frozenset({D, M})]
        objects = [KNIFE, PILLS, TOWEL]
        for zone in Zone:
            for obj in objects:
                for active in profiles:
                    if SafetyClass.MIND_ALTERING in active and obj.category == "vehicle":
                        continue
                    base = ordering_restrictions(active, obj)
                    effective = escalate(zone, base.escalation_steps)
                    assert effective >= zone
                    larger = ordering_restrictions(active | {obj.safety_class}, obj) if obj.safety_class is not N else base
                    assert escalate(zone, larger.escalation_steps) >= effective


class TestDurations:
    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ConfigError):
            replace(DEFAULTS, dangerous=0)
        with pytest.raises(ConfigError):
            replace(DEFAULTS, mind_altering=-5)


# -- brute-force oracle ------------------------------------------------------

class OracleCooldowns:
    """Plain dict re-statement of the cool-down rules."""

    def __init__(self, durations):
        self.durations = durations
        self.expiry = {}

    def apply(self, user, obj, now):
        # Grants and denials have identical window arithmetic.
        if obj.safety_class is D:
            self.expiry[(user, D)] = now + self.durations.dangerous
        elif obj.safety_class is M:
            self.expiry[(user, M)] = now + self.durations.mind_altering

    def active(self, user, now):
        return frozenset(
            cls for (u, cls), exp in self.expiry.items() if u == user and exp > now
        )


def test_randomized_sequences_match_oracle():
    rng = random.Random(99)
    objects = [KNIFE, PILLS, TOWEL, CAR_KEYS]
    users = ["alice", "bob", "carol"]
    for _ in range(200):
        durations = CooldownDurations(
            dangerous=rng.randint(1, 4000), mind_altering=rng.randint(1, 20000)
        )
        state = CooldownState()
        oracle = OracleCooldowns(durations)
        now = 0
        for _ in range(25):
            now += rng.randint(0, 600)
            user = rng.choice(users)
            obj = rng.choice(objects)
            if rng.random() < 0.5:
                state.on_granted(user, obj, now, durations)
            else:
                state.on_granted(user, obj, now, durations)
            oracle.apply(user, obj, now)
            probe = rng.choice(users)
            assert state.active_cooldowns(probe, now) == oracle.active(probe, now)


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=500),
            st.sampled_from([KNIFE, PILLS, TOWEL]),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_denial_never_shortens_an_expiry(ops):
    # Triggers only happen at past instants, so a reset to now + duration
    # can never move an expiry backwards.
    state = CooldownState()
    now = 0
    for dt, obj, granted in ops:
        now += dt
        before = {cls: state.expiry("u", cls) for cls in (D, M)}
        if granted:
            state.on_granted("u", obj, now, DEFAULTS)
        else:
            state.on_granted("u", obj, now, DEFAULTS)
        if not granted and obj.safety_class in (D, M):
            old = before[obj.safety_class]
            new = state.expiry("u", obj.safety_class)
            assert new == now + DEFAULTS.for_class(obj.safety_class)
            if old is not None:
                assert new >= old
