import json
from pathlib import Path

import pytest

from fetchguard import ConfigError, DecisionEngine, EmotionSample, FetchRequest, PolicyConfig, default_config

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "configs" / "default.json"


class TestDefaults:
    def test_shipped_default_validates_clean(self, shipped_config):
        assert shipped_config.validate().ok

    def test_checked_in_file_matches_code_defaults(self, shipped_config):
        loaded = PolicyConfig.load(DEFAULT_JSON)
        assert loaded.fingerprint() == shipped_config.fingerprint()

    def test_dict_roundtrip_preserves_fingerprint(self, shipped_config):
        clone = PolicyConfig.from_dict(shipped_config.to_dict())
        assert clone.fingerprint() == shipped_config.fingerprint()

    def test_fingerprint_ignores_formatting_but_not_content(self, tmp_path, shipped_config):
        pretty = tmp_path / "pretty.json"
        data = shipped_config.to_dict()
        pretty.write_text(json.dumps(data, indent=4))
        assert PolicyConfig.load(pretty).fingerprint() == shipped_config.fingerprint()

        data["durations"]["dangerous_s"] = 1801
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        assert PolicyConfig.load(edited).fingerprint() != shipped_config.fingerprint()


def broken(mutate):
    data = default_config().to_dict()
    mutate(data)
    return PolicyConfig.from_dict(data)


class TestValidationFindings:
    def test_missing_matrix_row_reported(self):
        config = broken(lambda d: d["matrix"].pop())
        report = config.validate()
        assert "missing-key" in report.codes()

    def test_zone_hole_reported(self):
        config = broken(lambda d: d.__setitem__("zone_table", d["zone_table"][:1]))
        report = config.validate()
        assert "uncovered-point" in report.codes()

    def test_thin_zone_gap_reported_and_engine_refuses_to_build(self):
        gap_table = [
            {"zone": "green", "v_lo": 0.005, "v_hi": 1.0, "a_lo": -1.0, "a_hi": 1.0},
            {"zone": "yellow", "v_lo": -1.0, "v_hi": 0.0, "a_lo": -1.0, "a_hi": 1.0},
        ]
        config = broken(lambda d: d.__setitem__("zone_table", gap_table))
        assert config.validate().codes() == {"uncovered-point"}
        with pytest.raises(ConfigError, match="uncovered-point"):
            DecisionEngine(config)

    def test_unknown_designator_reported(self):
        config = broken(lambda d: d["admin"]["designators"].append("ghost"))
        assert "unknown-designator" in config.validate().codes()

    def test_non_household_designator_reported(self):
        config = broken(lambda d: d["admin"]["designators"].append("erin"))
        assert "non-household-designator" in config.validate().codes()

    def test_unknown_rule_category_reported(self):
        config = broken(
            lambda d: d["category_rules"].append(
                {"category": "submarine", "extra_checks": [], "appropriate_rooms": None}
            )
        )
        assert "unknown-rule-category" in config.validate().codes()

    def test_tag_by_non_designator_reported(self):
        config = broken(
            lambda d: d["personal_tags"].append(
                {"object_id": "towel", "tagged_by": "bob", "grants": []}
            )
        )
        assert "tagger-not-designator" in config.validate().codes()

    def test_underage_grantee_reported(self):
        config = broken(
            lambda d: d["personal_tags"].__setitem__(
                0, {"object_id": "diary", "tagged_by": "alice", "grants": ["dave"]}
            )
        )
        assert "ineligible-grantee" in config.validate().codes()

    @pytest.mark.parametrize("tagger", ["henry", "alice"])
    def test_an_object_tagged_twice_is_reported_and_the_engine_refuses_it(self, tagger):
        # henry's tag would conflict with alice's when the engine tags its
        # registry; alice's own second entry would wipe bob's grant.
        def tag_twice(d):
            d["personal_tags"] = [
                {"object_id": "diary", "tagged_by": "alice", "grants": ["bob"]},
                {"object_id": "diary", "tagged_by": tagger, "grants": []},
            ]

        config = broken(tag_twice)
        assert config.validate().codes() == {"duplicate-tag"}
        with pytest.raises(ConfigError, match="duplicate-tag"):
            DecisionEngine(config)

    @pytest.mark.parametrize(
        "tags",
        [[], [{"object_id": "diary", "tagged_by": "henry", "grants": []}]],
        ids=["no_tags", "tagged_by_another"],
    )
    def test_an_owner_who_has_not_tagged_their_object_is_reported_and_the_engine_refuses_it(self, tags):
        # Untagged, alice's diary would be handed to grace (FRA), green zone,
        # bedroom, adult present.
        config = broken(lambda d: d.__setitem__("personal_tags", tags))
        assert config.validate().codes() == {"untagged-personal-owner"}
        with pytest.raises(ConfigError, match="untagged-personal-owner"):
            DecisionEngine(config)

    def test_duplicate_user_reported(self):
        config = broken(lambda d: d["users"].append(dict(d["users"][0])))
        assert "duplicate-user-id" in config.validate().codes()


class TestParseErrors:
    def test_duplicate_matrix_row_is_a_parse_error(self):
        data = default_config().to_dict()
        data["matrix"].append(dict(data["matrix"][0]))
        with pytest.raises(ConfigError, match="duplicate matrix row"):
            PolicyConfig.from_dict(data)

    def test_unknown_zone_name_is_a_parse_error(self):
        data = default_config().to_dict()
        data["zone_table"][0]["zone"] = "plaid"
        with pytest.raises(ConfigError):
            PolicyConfig.from_dict(data)

    def test_garbage_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            PolicyConfig.load(path)

    def test_unknown_safety_class_is_a_parse_error(self):
        data = default_config().to_dict()
        data["objects"][0]["safety_class"] = "spooky"
        with pytest.raises(ConfigError):
            PolicyConfig.from_dict(data)


def _entry(entries, key, value):
    return next(e for e in entries if e[key] == value)


def _allergies_as_text(data):
    _entry(data["users"], "user_id", "carol")["allergies"] = "peanut"


def _allergen_tags_as_text(data):
    _entry(data["objects"], "object_id", "peanut_butter")["allergen_tags"] = "peanut"


def _flag_as_duration(data):
    data["durations"]["dangerous_s"] = True


def _fractional_adult_age(data):
    data["region"]["adult_age_threshold"] = 19.9


def _numeric_personal_owner(data):
    _entry(data["objects"], "object_id", "diary")["personal_owner"] = 7


def _flag_as_zone_bound(data):
    data["zone_table"][0]["v_lo"] = False


def _numeric_zone_name(data):
    data["zone_table"][0]["zone"] = 3


class TestValuesCheckedNotConverted:
    """The loader refuses a value of the wrong type; converting it could
    turn "peanut" into its letters or true into a one-second window."""

    @pytest.mark.parametrize(
        "edit, field",
        [
            (_allergies_as_text, r"users\[2\]: allergies must be a list of str"),
            (_allergen_tags_as_text, r"objects\[6\]: allergen_tags must be a list of str"),
            (_flag_as_duration, r"durations\.dangerous_s must be int"),
            (_fractional_adult_age, r"region\.adult_age_threshold must be int"),
            (_numeric_personal_owner, r"objects\[8\]: personal_owner must be str or NoneType"),
            (_flag_as_zone_bound, r"zone_table\[0\]: v_lo must be int or float"),
            (_numeric_zone_name, r"zone_table\[0\]: unknown zone 3"),
        ],
        ids=lambda e: getattr(e, "__name__", ""),
    )
    def test_a_value_of_the_wrong_type_is_refused_by_name(self, edit, field):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        edit(data)
        with pytest.raises(ConfigError, match=field):
            PolicyConfig.from_dict(data)

    def test_carol_is_denied_peanut_butter_at_the_allergy_screen(self, engine, friendly_context):
        request = FetchRequest("req", "carol", "peanut_butter", EmotionSample(0.5, 0.0), friendly_context, 0)
        decision, _ = engine.decide(request)
        assert (decision.verdict, decision.deciding_policy) == ("deny", "category")
        assert "allergy_screen" in decision.reason

    def test_integer_zone_bounds_widen_to_the_same_fingerprint(self, shipped_config):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        for rect in data["zone_table"]:
            for bound in ("v_lo", "v_hi", "a_lo", "a_hi"):
                if rect[bound] == int(rect[bound]):
                    rect[bound] = int(rect[bound])
        assert PolicyConfig.from_dict(data).fingerprint() == shipped_config.fingerprint()
