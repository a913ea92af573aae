import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fetchguard.matrix
from fetchguard import (
    CategoryRule,
    CheckResult,
    ConfigError,
    ContextSnapshot,
    DecisionEngine,
    MatrixEntry,
    MatrixKey,
    ObjectSpec,
    PolicyConfig,
    Relationship,
    SafetyClass,
    UserGroup,
    UserProfile,
    Zone,
    category_checks,
    default_config,
    escalate,
    matrix_lookup,
    validate_matrix,
)
from fetchguard.matrix import (
    ALL_CLASSES,
    ALL_GROUPS,
    ALL_KEYS,
    ALL_PROFILES,
    ALL_ZONES,
    CATEGORY_CHECKS,
    MATRIX_CHECKS,
)
from reference_matrix import reference_gate4, reference_validate_matrix

ROOT = Path(__file__).resolve().parent.parent

D = SafetyClass.DANGEROUS
M = SafetyClass.MIND_ALTERING
N = SafetyClass.NEITHER

NONE = frozenset()
g = UserGroup


def key(profile, cls, zone):
    return MatrixKey(frozenset(profile), cls, zone)


class TestDefaultMatrixAnchors:
    def test_red_dangerous_denies_everyone(self):
        entry = matrix_lookup(default_config().matrix, key(NONE, D, Zone.RED))
        assert entry.allowed_groups == frozenset()

    def test_orange_mind_altering_denies_everyone(self):
        entry = matrix_lookup(default_config().matrix, key(NONE, M, Zone.ORANGE))
        assert entry.allowed_groups == frozenset()

    def test_green_neither_admits_every_group_including_u(self):
        entry = matrix_lookup(default_config().matrix, key(NONE, N, Zone.GREEN))
        assert entry.allowed_groups == ALL_GROUPS
        assert g.U in entry.allowed_groups

    def test_u_is_admitted_only_for_neither_green_no_cooldown(self):
        for k, entry in default_config().matrix.items():
            if g.U in entry.allowed_groups:
                assert k == key(NONE, N, Zone.GREEN)

    def test_red_flagged_requests_empty_for_every_cooldown_profile(self):
        matrix = default_config().matrix
        for profile in ALL_PROFILES:
            for cls in (D, M):
                assert matrix[key(profile, cls, Zone.RED)].allowed_groups == frozenset()

    def test_dangerous_never_reaches_below_adult_tier(self):
        for k, entry in default_config().matrix.items():
            if k.request_class in (D, M):
                assert entry.allowed_groups <= {g.HA, g.FAA, g.FRA}

    def test_cross_class_cooldown_rows_are_escalated_base_rows(self):
        # The shipped design rule: each row is the base row one zone worse
        # per active class other than the requested one. A same-class
        # cool-down adds no step here; the runtime escalation already
        # tightened the zone.
        matrix = default_config().matrix
        assert len(matrix) == 48
        for k, entry in matrix.items():
            cross = len(k.cooldown_profile - {k.request_class})
            assert entry == matrix[key(NONE, k.request_class, escalate(k.zone, cross))], k


class TestValidator:
    def test_shipped_default_is_law_abiding(self):
        assert validate_matrix(default_config().matrix).ok

    def test_all_48_keys_present(self):
        assert len(default_config().matrix) == 4 * 3 * 4

    def test_missing_key_detected(self):
        matrix = dict(default_config().matrix)
        del matrix[key(NONE, N, Zone.GREEN)]
        report = validate_matrix(matrix)
        assert "missing-key" in report.codes()

    def test_zone_monotonicity_violation_detected(self):
        matrix = dict(default_config().matrix)
        # Red/dangerous suddenly admits HA while yellow admits fewer: illegal.
        matrix[key(NONE, D, Zone.RED)] = MatrixEntry(frozenset({g.HA, g.HT}))
        report = validate_matrix(matrix)
        assert "zone-monotonicity" in report.codes()

    def test_cooldown_monotonicity_violation_detected(self):
        matrix = dict(default_config().matrix)
        matrix[key({D}, N, Zone.RED)] = MatrixEntry(ALL_GROUPS)
        report = validate_matrix(matrix)
        assert "cooldown-monotonicity" in report.codes()

    def test_a_dead_row_between_two_live_rows_keeps_the_check_law(self):
        matrix = dict(default_config().matrix)
        # Red/mind-altering admits HA with no checks; orange admits nobody,
        # and yellow asks for verbal affirmation.
        matrix[key(NONE, M, Zone.RED)] = MatrixEntry(frozenset({g.HA}))
        report = validate_matrix(matrix)
        assert report.codes() == {"zone-monotonicity", "check-monotonicity"}
        assert reference_validate_matrix(matrix).codes() == report.codes()

    def test_ineligible_membership_detected(self):
        matrix = dict(default_config().matrix)
        matrix[key(NONE, N, Zone.GREEN)] = MatrixEntry(ALL_GROUPS | {g.INELIGIBLE})
        report = validate_matrix(matrix)
        assert "ineligible-group" in report.codes()

    def test_checks_on_dead_branch_detected(self):
        matrix = dict(default_config().matrix)
        matrix[key(NONE, M, Zone.RED)] = MatrixEntry(frozenset(), frozenset({"verbal_affirmation"}))
        report = validate_matrix(matrix)
        assert "dead-branch-checks" in report.codes()

    def test_exhaustive_monotonicity_spot_check(self):
        # Re-verify the two laws directly, independent of the validator.
        matrix = default_config().matrix
        for profile in ALL_PROFILES:
            for cls in ALL_CLASSES:
                groups_by_zone = [matrix[key(profile, cls, z)].allowed_groups for z in ALL_ZONES]
                for better, worse in zip(groups_by_zone, groups_by_zone[1:]):
                    assert worse <= better
        for profile in ALL_PROFILES:
            for extra in (D, M):
                if extra in profile:
                    continue
                for cls in ALL_CLASSES:
                    for zone in ALL_ZONES:
                        assert (
                            matrix[key(profile | {extra}, cls, zone)].allowed_groups
                            <= matrix[key(profile, cls, zone)].allowed_groups
                        )

    def test_restriction_monotonicity_end_to_end(self):
        # Exhaustive over the finite domain: for any fixed request class and
        # base zone, the groups admitted under active cool-downs (profile row
        # at the runtime-escalated zone) are a subset of the groups admitted
        # with no cool-downs at the base zone.
        matrix = default_config().matrix
        for profile in ALL_PROFILES:
            for cls in ALL_CLASSES:
                steps = 1 if cls in profile else 0
                for zone in ALL_ZONES:
                    under_cooldown = matrix[key(profile, cls, escalate(zone, steps))]
                    free = matrix[key(NONE, cls, zone)]
                    assert under_cooldown.allowed_groups <= free.allowed_groups

    def test_lookup_on_missing_key_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no row"):
            matrix_lookup({}, key(NONE, N, Zone.GREEN))

    @pytest.mark.parametrize("as_key", [MatrixKey._make, tuple], ids=["MatrixKey", "tuple"])
    def test_a_row_missing_from_a_matrix_is_refused_by_its_key(self, as_key):
        matrix = dict(default_config().matrix)
        del matrix[key({D}, M, Zone.ORANGE)]
        with pytest.raises(ConfigError, match=r"no row for cooldown=dangerous class=mind_altering zone=orange$"):
            matrix_lookup(matrix, as_key((frozenset({D}), M, Zone.ORANGE)))
        assert matrix_lookup(matrix, as_key((frozenset({D}), M, Zone.RED))) is matrix[key({D}, M, Zone.RED)]

    def test_unknown_check_name_rejected(self):
        with pytest.raises(ConfigError):
            MatrixEntry(frozenset({g.HA}), frozenset({"retina_scan"}))


# -- category rules ------------------------------------------------------------


class TestRowTexts:
    """The texts a row carries for traces, against the loops that worked
    them out on every request before."""

    def test_each_row_carries_its_sorted_group_and_check_texts(self):
        matrix = default_config().matrix
        assert len(matrix) == 48
        for entry in matrix.values():
            assert entry.group_texts == tuple(sorted(g.value for g in entry.allowed_groups))
            assert entry.check_texts == tuple(sorted(entry.required_checks))

    def test_row_texts_are_not_fields(self):
        entry = MatrixEntry(frozenset({g.HA, g.FAA}), frozenset({"verbal_affirmation"}))
        assert [f.name for f in dataclasses.fields(entry)] == ["allowed_groups", "required_checks"]
        assert "texts" not in repr(entry)
        other = MatrixEntry(frozenset({g.FAA, g.HA}), frozenset({"verbal_affirmation"}))
        assert (entry, hash(entry)) == (other, hash(other))


def make_context(room="kitchen", adult=True, verbal=True):
    return ContextSnapshot(room=room, adult_present=adult, verbal_affirmation=verbal, timestamp=0)


PEANUT_JAR = ObjectSpec("jar", "Peanut jar", N, "food", frozenset({"peanut"}))
SCISSORS = ObjectSpec("scissors", "Scissors", N, "craft")
PILLS = ObjectSpec("pills", "Pills", M, "medicine")

ALLERGIC_CHILD = UserProfile("kid", 8, Relationship.HOUSEHOLD, frozenset({"peanut"}))
ADULT = UserProfile("adult", 30, Relationship.HOUSEHOLD)


class TestCategoryChecks:
    def test_allergy_screen_blocks_matching_tag(self):
        rules = [CategoryRule("food", frozenset({"allergy_screen"}))]
        result = category_checks(NONE, rules, PEANUT_JAR, g.HC, make_context(), ALLERGIC_CHILD)
        assert not result.passed
        assert result.failed_check == "allergy_screen"

    def test_allergy_screen_passes_without_overlap(self):
        rules = [CategoryRule("food", frozenset({"allergy_screen"}))]
        result = category_checks(NONE, rules, PEANUT_JAR, g.HA, make_context(), ADULT)
        assert result.passed

    @pytest.mark.parametrize("group", [g.HC, g.FAC, g.FRC], ids=lambda group: group.name)
    def test_child_tier_needs_adult_present(self, group):
        rules = [CategoryRule("craft", frozenset({"adult_present_for_child_tier"}))]
        result = category_checks(NONE, rules, SCISSORS, group, make_context(adult=False), ALLERGIC_CHILD)
        assert not result.passed
        assert result.failed_check == "adult_present_for_child_tier"
        assert category_checks(NONE, rules, SCISSORS, group, make_context(adult=True), ALLERGIC_CHILD).passed

    def test_adult_requester_skips_child_tier_check(self):
        rules = [CategoryRule("craft", frozenset({"adult_present_for_child_tier"}))]
        assert category_checks(NONE, rules, SCISSORS, g.HA, make_context(adult=False), ADULT).passed

    def test_verbal_affirmation_required(self):
        rules = [CategoryRule("medicine", frozenset({"verbal_affirmation"}))]
        result = category_checks(NONE, rules, PILLS, g.HA, make_context(verbal=False), ADULT)
        assert not result.passed
        assert result.failed_check == "verbal_affirmation"

    def test_appropriate_rooms_enforced(self):
        rules = [CategoryRule("medicine", frozenset(), frozenset({"bathroom"}))]
        result = category_checks(NONE, rules, PILLS, g.HA, make_context(room="garage"), ADULT)
        assert not result.passed
        assert result.failed_check == "room_appropriate"

    def test_no_matching_rule_is_a_vacuous_pass(self):
        rules = [CategoryRule("food", frozenset({"allergy_screen"}))]
        result = category_checks(NONE, rules, SCISSORS, g.HC, make_context(adult=False), ALLERGIC_CHILD)
        assert result.passed

    def test_wildcard_rule_applies_to_everything(self):
        rules = [CategoryRule("*", frozenset({"verbal_affirmation"}))]
        result = category_checks(NONE, rules, SCISSORS, g.HA, make_context(verbal=False), ADULT)
        assert not result.passed

    def test_a_result_stores_no_verdict_of_its_own(self):
        # passed is read from the failed check, so the two cannot disagree.
        assert [f.name for f in dataclasses.fields(CheckResult)] == ["failed_check", "failed_rule_category"]
        assert CheckResult().passed
        assert not CheckResult("verbal_affirmation").passed
        assert not CheckResult("allergy_screen", "food").passed

    def test_unknown_category_check_rejected(self):
        with pytest.raises(ConfigError):
            CategoryRule("food", frozenset({"blood_test"}))


ROOMS = ("kitchen", "garage", "bathroom")


class TestGateFourInOneFunction:
    """The row's checks and the category rules in one call, against the
    engine's two steps as they were written before (reference_matrix.py)."""

    CATEGORIES = ("food", "craft", "medicine")

    @settings(max_examples=400, deadline=None)
    @given(
        required=st.frozensets(st.sampled_from(MATRIX_CHECKS)),
        rules=st.lists(
            st.builds(
                CategoryRule,
                category=st.sampled_from(CATEGORIES + ("*",)),
                extra_checks=st.frozensets(st.sampled_from(CATEGORY_CHECKS)),
                appropriate_rooms=st.none() | st.frozensets(st.sampled_from(ROOMS)),
            ),
            max_size=4,
        ),
        obj=st.builds(
            ObjectSpec,
            object_id=st.just("thing"),
            display_name=st.just("Thing"),
            safety_class=st.sampled_from(ALL_CLASSES),
            category=st.sampled_from(CATEGORIES),
            allergen_tags=st.frozensets(st.sampled_from(("peanut", "dairy"))),
        ),
        group=st.sampled_from(list(UserGroup)),
        allergies=st.frozensets(st.sampled_from(("peanut", "dairy"))),
        room=st.sampled_from(ROOMS),
        adult=st.booleans(),
        verbal=st.booleans(),
    )
    def test_same_failing_check_rule_category_and_policy(
        self, required, rules, obj, group, allergies, room, adult, verbal
    ):
        entry = MatrixEntry(frozenset({g.HA}), required)
        context = make_context(room=room, adult=adult, verbal=verbal)
        profile = UserProfile("someone", 30, Relationship.HOUSEHOLD, allergies)
        state = SimpleNamespace(
            matrix_entry=entry, obj=obj, group=group, profile=profile, context=context
        )
        # The engine hands gate 4 every rule of its config, as decide() does,
        # and its event is the reference's details beside its node.
        engine = DecisionEngine.__new__(DecisionEngine)
        engine.config, engine._events = SimpleNamespace(category_rules=tuple(rules)), {}
        event, violation = engine._eval_category_context(state)
        details = {key: value for key, value in event.items() if key != "node"}
        assert event["node"] == "category_context_ok"
        assert (details, violation) == reference_gate4(entry, rules, obj, group, context, profile)

        result = category_checks(required, rules, obj, group, context, profile)
        assert result.passed == (violation is None)
        assert result.failed_check == details.get("failed_check")
        assert result.failed_rule_category == details.get("failed_rule_category")

    def test_row_checks_run_before_the_rules_and_name_no_rule(self):
        rules = [CategoryRule("*", frozenset({"verbal_affirmation"}), frozenset({"bathroom"}))]
        context = make_context(room="garage", adult=False, verbal=False)
        result = category_checks(frozenset(MATRIX_CHECKS), rules, SCISSORS, g.HA, context, ADULT)
        assert (result.failed_check, result.failed_rule_category) == ("verbal_affirmation", None)
        result = category_checks(frozenset({"adult_present"}), rules, SCISSORS, g.HA, context, ADULT)
        assert (result.failed_check, result.failed_rule_category) == ("adult_present", None)
        result = category_checks(frozenset({"room_appropriate"}), rules, SCISSORS, g.HA, context, ADULT)
        assert (result.failed_check, result.failed_rule_category) == ("room_appropriate", None)
        result = category_checks(NONE, rules, SCISSORS, g.HA, context, ADULT)
        assert (result.failed_check, result.failed_rule_category) == ("verbal_affirmation", "*")


@st.composite
def edited_default_matrices(draw):
    """The shipped matrix after one to three single-row edits, none of which
    adds a row outside ALL_KEYS."""
    matrix = dict(default_config().matrix)
    groups_in_order = sorted(ALL_GROUPS)
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["add-group", "drop-group", "drop-check", "delete-row", "checks-on-empty-row", "ineligible"]
        kind = draw(st.sampled_from(kinds))
        if kind == "checks-on-empty-row":
            k = draw(st.sampled_from([k for k, e in matrix.items() if not e.allowed_groups]))
            checks = draw(st.frozensets(st.sampled_from(MATRIX_CHECKS), min_size=1))
            matrix[k] = MatrixEntry(frozenset(), matrix[k].required_checks | checks)
            continue
        k = draw(st.sampled_from(list(matrix)))
        groups, checks = matrix[k].allowed_groups, matrix[k].required_checks
        if kind == "delete-row":
            del matrix[k]
        elif kind == "ineligible":
            matrix[k] = MatrixEntry(groups | {g.INELIGIBLE}, checks)
        elif kind == "add-group":
            matrix[k] = MatrixEntry(groups | {draw(st.sampled_from(groups_in_order))}, checks)
        elif kind == "drop-check" and checks:
            matrix[k] = MatrixEntry(groups, checks - {draw(st.sampled_from(sorted(checks)))})
        elif kind == "drop-group" and groups:
            dropped = draw(st.sampled_from(sorted(groups)))
            matrix[k] = MatrixEntry(groups - {dropped}, checks)
    return matrix


class TestKeysAndValidatorDefinedOnce:
    def test_all_keys_are_the_48_shipped_keys(self):
        # The file lists its rows in to_dict's sort order, not ALL_KEYS's.
        assert len(set(ALL_KEYS)) == 48
        assert set(default_config().matrix) == set(ALL_KEYS)

    @settings(max_examples=300, deadline=None)
    @given(matrix=edited_default_matrices())
    def test_one_step_laws_agree_with_the_all_pairs_validator(self, matrix):
        got, want = validate_matrix(matrix), reference_validate_matrix(matrix)
        assert (got.ok, got.codes()) == (want.ok, want.codes())

    def test_the_walk_builds_no_key(self, monkeypatch):
        # The neighbour keys are worked out once, beside ALL_KEYS.
        matrix, built = default_config().matrix, []

        def counting(*args):
            built.append(args)
            return MatrixKey(*args)

        monkeypatch.setattr(fetchguard.matrix, "MatrixKey", counting)
        assert validate_matrix(matrix).ok
        assert built == []

    def test_findings_come_key_major_then_zone_then_each_added_class(self):
        matrix = dict(default_config().matrix)
        matrix[key(NONE, D, Zone.RED)] = MatrixEntry(frozenset({g.HA, g.HT}))
        matrix[key({D}, N, Zone.RED)] = MatrixEntry(ALL_GROUPS)
        matrix[key(NONE, N, Zone.RED)] = MatrixEntry(frozenset({g.HA}))
        looser = matrix[key({M}, D, Zone.GREEN)]
        matrix[key({M}, D, Zone.GREEN)] = MatrixEntry(looser.allowed_groups | {g.FRT}, looser.required_checks)
        matrix[key({N}, N, Zone.GREEN)] = MatrixEntry(ALL_GROUPS)
        # As the validator that built every neighbour key on each call gave them.
        assert [(f.code, f.message) for f in validate_matrix(matrix).findings] == [
            ("unreachable-row", "row cooldown=neither class=neither zone=green can never be looked up"),
            (
                "cooldown-monotonicity",
                "row cooldown=mind_altering class=dangerous zone=green admits groups that "
                "row cooldown=none class=dangerous zone=green does not",
            ),
            (
                "zone-monotonicity",
                "row cooldown=none class=dangerous zone=red admits groups that "
                "row cooldown=none class=dangerous zone=orange does not",
            ),
            (
                "check-monotonicity",
                "row cooldown=none class=dangerous zone=red lacks a check "
                "row cooldown=none class=dangerous zone=orange demands",
            ),
            (
                "check-monotonicity",
                "row cooldown=none class=neither zone=red lacks a check "
                "row cooldown=none class=neither zone=orange demands",
            ),
            (
                "cooldown-monotonicity",
                "row cooldown=dangerous class=neither zone=red admits groups that "
                "row cooldown=none class=neither zone=red does not",
            ),
            (
                "zone-monotonicity",
                "row cooldown=dangerous class=neither zone=red admits groups that "
                "row cooldown=dangerous class=neither zone=orange does not",
            ),
            (
                "check-monotonicity",
                "row cooldown=dangerous class=neither zone=red lacks a check "
                "row cooldown=dangerous class=neither zone=orange demands",
            ),
        ]

    def test_a_tighter_row_that_drops_a_check_is_refused(self):
        # With no checks on orange/dangerous, alice could take the knife in
        # orange without the verbal affirmation yellow asks of her.
        data = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
        row = next(
            r for r in data["matrix"] if (r["cooldown"], r["request_class"], r["zone"]) == ([], "dangerous", "orange")
        )
        assert row["required_checks"] and row["allowed_groups"] == ["HA"]
        row["required_checks"] = []
        config = PolicyConfig.from_dict(data)
        report = config.validate()
        assert report.codes() == {"check-monotonicity"}
        assert not reference_validate_matrix(config.matrix).ok
        with pytest.raises(ConfigError, match="check-monotonicity"):
            DecisionEngine(config)

    def test_a_row_for_a_neither_cooldown_is_unreachable_and_refused(self):
        data = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
        data["matrix"].append({**data["matrix"][0], "cooldown": ["neither"]})
        config = PolicyConfig.from_dict(data)
        assert len(config.matrix) == 49
        report = config.validate()
        assert report.codes() == {"unreachable-row"}
        assert reference_validate_matrix(config.matrix).ok
        with pytest.raises(ConfigError, match="unreachable-row"):
            DecisionEngine(config)
