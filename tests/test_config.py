import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fetchguard.config
from fetchguard import ConfigError, DecisionEngine, EmotionSample, FetchRequest, PolicyConfig, default_config
from fetchguard.emotion import Zone
from fetchguard.matrix import ALL_CLASSES, ALL_KEYS, ALL_ZONES, KEY_BY_TEXTS, MATRIX_CHECKS
from fetchguard.model import SafetyClass, UserGroup
from fetchguard.ordering import CooldownDurations
from test_reference_engine import CONFIGS

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "configs" / "default.json"
SHIPPED_FINGERPRINT = "4be17d16502a6f12112338028a8f4502e4e3a5adf0dc1da134ff3485af8e5d04"
GOLDEN_JSON = REPO_ROOT / "tests" / "golden" / "config.json"
GOLDEN_FINGERPRINT = "e769ddc981c73e27ccb52aa99f8945a197a32a83ec9601847e2663f02fec0418"
SHIPPED_DATA = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))


def dumped(config):
    """The bytes canonical_bytes must give: to_dict through json.dumps."""
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()


class TestDefaults:
    def test_shipped_default_validates_clean(self, shipped_config):
        assert shipped_config.validate().ok

    def test_shipped_fingerprint_is_pinned(self, shipped_config):
        assert shipped_config.fingerprint() == SHIPPED_FINGERPRINT
        assert PolicyConfig.load(DEFAULT_JSON).fingerprint() == SHIPPED_FINGERPRINT

    def test_the_golden_config_fingerprint_is_pinned(self, golden_config):
        # The golden lines decided under per-id cool-downs embed this
        # fingerprint, so the frozen copy never follows the shipped file.
        assert golden_config.fingerprint() == GOLDEN_FINGERPRINT
        frozen = json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))
        assert frozen["cooldown_scope"] == "user"

    def test_a_drifted_shipped_file_is_refused_by_name(self, tmp_path, monkeypatch):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        data["durations"]["dangerous_s"] = 1801
        drifted = tmp_path / "default.json"
        drifted.write_text(json.dumps(data), encoding="utf-8")
        monkeypatch.setattr(fetchguard.config, "SHIPPED_CONFIG", drifted)
        with pytest.raises(ConfigError, match=re.escape(f"{drifted}: fingerprint ")):
            default_config()

    def test_each_call_loads_a_config_of_its_own(self):
        first, second = default_config(), default_config()
        assert first == second and first is not second
        # A config is a value: none of these edits can be made in place.
        with pytest.raises(AttributeError):
            first.users.pop()
        with pytest.raises(AttributeError):
            first.matrix.clear()
        with pytest.raises(AttributeError):
            first.personal_tags.clear()
        with pytest.raises(FrozenInstanceError):
            first.durations = replace(first.durations, dangerous=1801)
        assert default_config() == second == first
        # An edited copy is a config of its own, with a fingerprint of its own.
        edited = replace(first, durations=replace(first.durations, dangerous=1801))
        assert edited.fingerprint() != SHIPPED_FINGERPRINT == first.fingerprint()

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


def built_directly(config):
    """config rebuilt by a direct call with list and dict arguments, as a
    test builds a purpose-made household."""
    return PolicyConfig(
        region=config.region,
        durations=config.durations,
        cooldown_scope=config.cooldown_scope,
        zone_table=config.zone_table,
        matrix=dict(config.matrix),
        category_rules=list(config.category_rules),
        objects=list(config.objects),
        users=list(config.users),
        admin=config.admin,
        personal_tags=list(config.personal_tags),
    )


class TestAConfigIsAValue:
    """A built config cannot change, so what it works out once (validation,
    the fingerprint, the id lookups, the replay engine) cannot go stale."""

    def test_an_edit_after_first_use_fails_at_once(self):
        config = default_config()
        assert config.fingerprint() == SHIPPED_FINGERPRINT and config.validate().ok
        with pytest.raises(FrozenInstanceError):
            config.durations = CooldownDurations(dangerous=1, mind_altering=1)
        with pytest.raises(AttributeError):
            config.users.append(config.users[0])
        with pytest.raises(TypeError):
            config.matrix[ALL_KEYS[0]] = config.matrix[ALL_KEYS[1]]
        assert config == default_config() and config.validate().ok
        assert config.fingerprint() == SHIPPED_FINGERPRINT

    def test_the_lists_and_dict_it_was_built_from_change_nothing(self):
        shipped = default_config()
        users, matrix = list(shipped.users), dict(shipped.matrix)
        config = replace(shipped, users=users, matrix=matrix)
        assert config.fingerprint() == SHIPPED_FINGERPRINT and config.validate().ok
        users.append(users[0])
        matrix.clear()
        assert config == shipped and config.validate().ok
        assert PolicyConfig.from_dict(config.to_dict()).fingerprint() == SHIPPED_FINGERPRINT
        DecisionEngine(config)

    def test_an_edited_report_leaves_the_engine_refusing(self):
        data = json.loads(json.dumps(SHIPPED_DATA))
        data["users"].append(data["users"][0])
        config = PolicyConfig.from_dict(data)
        report = config.validate()
        assert "duplicate-user-id" in report.codes()
        report.findings.clear()
        assert "duplicate-user-id" in config.validate().codes()
        with pytest.raises(ConfigError, match="duplicate-user-id"):
            DecisionEngine(config)

    def test_an_extended_report_leaves_the_engine_building(self):
        config = default_config()
        bad = PolicyConfig.from_dict({**SHIPPED_DATA, "cooldown_scope": "street"})
        config.validate().extend(bad.validate())
        assert config.validate().ok
        DecisionEngine(config)

    @pytest.mark.parametrize(
        "parsed",
        [default_config()] + [config for _, config in CONFIGS],
        ids=["shipped"] + [f"{config.cooldown_scope}-{len(config.personal_tags)}-tags" for _, config in CONFIGS],
    )
    def test_every_way_of_building_a_config_gives_one_value(self, parsed):
        ways = [PolicyConfig.from_dict(parsed.to_dict()), replace(parsed), built_directly(parsed)]
        for built in ways:
            assert built == parsed and built.fingerprint() == parsed.fingerprint()
        for built in [parsed, *ways]:
            assert type(built.matrix) is MappingProxyType
            assert {type(getattr(built, name)) for name in ("category_rules", "objects", "users", "personal_tags")} == {tuple}


def broken(mutate):
    data = default_config().to_dict()
    mutate(data)
    return PolicyConfig.from_dict(data)


def _entry(entries, key, value):
    return next(e for e in entries if e[key] == value)


def _user(data, user_id):
    return _entry(data["users"], "user_id", user_id)


def _object(data, object_id):
    return _entry(data["objects"], "object_id", object_id)


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
        def erin_designates(d):
            d["admin"]["designators"].append("erin")
            _user(d, "erin")["admin_role"] = "designator"

        config = broken(erin_designates)
        assert "non-household-designator" in config.validate().codes()

    def test_non_household_owner_reported_and_the_engine_refuses_it(self):
        # The owner can always tag: with the diary untagged, erin (family)
        # could tag the towel.
        def erin_owns(d):
            d["admin"]["owner"] = "erin"
            d["personal_tags"] = []
            _user(d, "erin")["admin_role"] = "owner"
            _user(d, "alice")["admin_role"] = "designator"
            _object(d, "diary")["personal_owner"] = None

        config = broken(erin_owns)
        assert config.validate().codes() == {"non-household-designator"}
        with pytest.raises(ConfigError, match="designator 'erin' is not a household user"):
            DecisionEngine(config)

    def test_a_user_of_unknown_relationship_may_not_administer(self):
        def zed_owns(d):
            d["admin"]["owner"] = "zed"
            d["users"].append(
                {"user_id": "zed", "age_years": 30, "relationship": "unknown", "allergies": [], "admin_role": "owner"}
            )
            _user(d, "alice")["admin_role"] = "designator"

        assert broken(zed_owns).validate().codes() == {"non-household-designator"}

    def test_unknown_rule_category_reported(self):
        config = broken(
            lambda d: d["category_rules"].append(
                {"category": "submarine", "extra_checks": [], "appropriate_rooms": None}
            )
        )
        assert "unknown-rule-category" in config.validate().codes()

    def test_tag_by_non_designator_reported(self):
        def bob_tags(d):
            d["personal_tags"].append({"object_id": "towel", "tagged_by": "bob", "grants": []})
            _object(d, "towel")["personal_owner"] = "bob"

        config = broken(bob_tags)
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
        "tags, owner",
        [([], "None"), ([{"object_id": "diary", "tagged_by": "henry", "grants": []}], "'henry'")],
        ids=["no_tags", "tagged_by_another"],
    )
    def test_an_owner_who_has_not_tagged_their_object_is_refused_at_load(self, tags, owner):
        # Untagged, alice's diary would be handed to grace (FRA), green zone,
        # bedroom, adult present; the file's personal_owner copy must say so.
        with pytest.raises(ConfigError, match=rf"objects\[8\]: personal_owner must be {owner}"):
            broken(lambda d: d.__setitem__("personal_tags", tags))

    @pytest.mark.parametrize(
        "mutate, code",
        [
            (lambda d: d.__setitem__("cooldown_scope", "street"), "bad-scope"),
            (
                lambda d: (_user(d, "erin").__setitem__("user_id", "__unknown__"),
                           _user(d, "grace").__setitem__("user_id", "__household__")),
                "reserved-user-id",
            ),
            (
                lambda d: (d["admin"].__setitem__("owner", "ghost"), _user(d, "alice").__setitem__("admin_role", "designator")),
                "unknown-owner",
            ),
            (
                lambda d: d["personal_tags"].append({"object_id": "ghost", "tagged_by": "alice", "grants": []}),
                "unknown-tagged-object",
            ),
            (lambda d: d["personal_tags"][0].__setitem__("grants", ["ghost"]), "unknown-grantee"),
        ],
        ids=lambda e: e if isinstance(e, str) else "",
    )
    def test_a_finding_is_reported_alone(self, mutate, code):
        assert broken(mutate).validate().codes() == {code}

    def test_validate_prints_the_same_findings_under_any_hash_seed(self, tmp_path):
        # Grants are a set; the findings about them come out in name order.
        data = default_config().to_dict()
        data["personal_tags"][0]["grants"] = ["ghost", "zed", "dave"]
        path = tmp_path / "grants.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        src = str(REPO_ROOT / "src")
        command = [sys.executable, "-c", "from fetchguard.cli import main_entry; main_entry()"]
        outputs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [*command, "validate", "--config", str(path)], capture_output=True, text=True, env=env, timeout=60
            )
            assert run.returncode == 1, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert "3 finding(s)" in outputs[0]

    def test_duplicate_user_reported(self):
        config = broken(lambda d: d["users"].append(dict(d["users"][0])))
        assert "duplicate-user-id" in config.validate().codes()


class TestRestatedFields:
    """A file states each user's admin_role and each object's personal_owner,
    which the admin section and the tags already decide. An absent copy
    reads as the derived value; one that disagrees is refused."""

    def test_absent_copies_give_the_shipped_fingerprint(self):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        for user in data["users"]:
            del user["admin_role"]
        for obj in data["objects"]:
            del obj["personal_owner"]
        assert PolicyConfig.from_dict(data).fingerprint() == SHIPPED_FINGERPRINT

    def test_admin_roles_that_disagree_with_the_admin_section_are_refused(self):
        def roles(d):
            _user(d, "alice")["admin_role"] = "none"
            _user(d, "henry")["admin_role"] = "none"
            _user(d, "erin")["admin_role"] = "owner"

        with pytest.raises(ConfigError, match=r"malformed policy config: users\[0\]: admin_role must be 'owner'"):
            broken(roles)

    @pytest.mark.parametrize(
        "user, role, derived",
        [
            ("bob", "designator", r"users\[1\]: admin_role must be 'member'"),
            ("henry", "member", r"users\[6\]: admin_role must be 'designator'"),
            ("erin", "member", r"users\[4\]: admin_role must be 'none'"),
            ("grace", "owner", r"users\[5\]: admin_role must be 'none'"),
        ],
    )
    def test_each_role_is_read_off_the_admin_section(self, user, role, derived):
        with pytest.raises(ConfigError, match=derived):
            broken(lambda d: _user(d, user).__setitem__("admin_role", role))

    def test_a_personal_owner_naming_an_unregistered_user_is_refused(self):
        with pytest.raises(ConfigError, match=r"objects\[8\]: personal_owner must be 'alice'"):
            broken(lambda d: _object(d, "diary").__setitem__("personal_owner", "ghost"))

    def test_a_personal_owner_on_an_untagged_object_is_refused(self):
        with pytest.raises(ConfigError, match=r"objects\[4\]: personal_owner must be None"):
            broken(lambda d: _object(d, "towel").__setitem__("personal_owner", "alice"))


class TestSameConfigSameFingerprint:
    """Every form the file format reads as the shipped config gives its
    pinned fingerprint: matrix rows and the lists in them in any order, an
    integral zone bound written as an int, and admin_role, personal_owner
    and display_name left out. An absent display_name reads as the object's
    id, so it is left out only where the name is the id."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), named=st.sets(st.integers(0, len(SHIPPED_DATA["objects"]) - 1)))
    def test_every_form_of_the_shipped_config_gives_its_fingerprint(self, seed, named):
        rng = random.Random(seed)
        reference = json.loads(json.dumps(SHIPPED_DATA))
        for i in named:
            reference["objects"][i]["display_name"] = reference["objects"][i]["object_id"]
        expected = PolicyConfig.from_dict(reference).fingerprint() if named else SHIPPED_FINGERPRINT

        edited = json.loads(json.dumps(reference))
        rng.shuffle(edited["matrix"])
        for row in edited["matrix"]:
            for field in ("cooldown", "allowed_groups", "required_checks"):
                rng.shuffle(row[field])
        for rect in edited["zone_table"]:
            for bound, value in rect.items():
                if bound != "zone" and value == int(value) and rng.random() < 0.5:
                    rect[bound] = int(value)
        for entries, key in ((edited["users"], "admin_role"), (edited["objects"], "personal_owner")):
            for entry in entries:
                if rng.random() < 0.5:
                    del entry[key]
        for i in named:
            if rng.random() < 0.5:
                del edited["objects"][i]["display_name"]
        config = PolicyConfig.from_dict(edited)
        assert config.fingerprint() == expected
        assert config.canonical_bytes() == dumped(config)

    @pytest.mark.parametrize("cooldown", [["neither"], ["neither", "dangerous"], ["mind_altering", "neither", "dangerous"]])
    def test_a_config_with_an_unreachable_row_round_trips(self, cooldown):
        data = json.loads(json.dumps(SHIPPED_DATA))
        row = {"cooldown": cooldown, "request_class": "neither", "zone": "red", "allowed_groups": [], "required_checks": []}
        data["matrix"].append(row)
        config = PolicyConfig.from_dict(data)
        written = config.to_dict()
        assert {**row, "cooldown": sorted(cooldown)} in written["matrix"]
        assert PolicyConfig.from_dict(written).to_dict() == written
        assert config.validate().codes() == {"unreachable-row"}
        assert config.fingerprint() != SHIPPED_FINGERPRINT


class TestCanonicalBytes:
    """canonical_bytes writes what json.dumps with sorted keys and no
    whitespace writes, so that no fingerprint moves."""

    def test_the_shipped_and_golden_configs(self, shipped_config, golden_config):
        for config in (shipped_config, golden_config):
            assert config.canonical_bytes() == dumped(config)

    def test_a_nan_zone_bound_still_fingerprints(self):
        data = json.loads(json.dumps(SHIPPED_DATA))
        data["zone_table"][0]["v_lo"] = math.nan
        config = PolicyConfig.from_dict(data)
        assert config.canonical_bytes() == dumped(config)
        assert b'"v_lo":NaN' in config.canonical_bytes()
        assert config.fingerprint() != SHIPPED_FINGERPRINT
        assert "out-of-bounds" in config.validate().codes()


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


def _set(*path):
    """An edit that puts the last item of `path` at the rest of it."""
    *keys, last, value = path

    def edit(data):
        for key in keys:
            data = data[key]
        data[last] = value

    edit.__name__ = ".".join(map(str, path[:-1]))
    return edit


class TestRepeatsRefused:
    """A list the config reads as a set lists each item once. A repeat is
    refused by name rather than collapsed, which would give the file the
    shipped file's fingerprint."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set("matrix", 5, "allowed_groups", ["FAA", "HA", "FAA"]), "matrix[5]: allowed_groups repeats 'FAA'"),
            (_set("matrix", 5, "required_checks", ["verbal_affirmation"] * 2),
             "matrix[5]: required_checks repeats 'verbal_affirmation'"),
            # Collapsed, this row's key would be another row's.
            (_set("matrix", 5, "cooldown", ["dangerous", "dangerous"]), "matrix[5]: cooldown repeats 'dangerous'"),
            (_set("category_rules", 0, "extra_checks", ["allergy_screen", "verbal_affirmation", "allergy_screen"]),
             "category_rules[0]: extra_checks repeats 'allergy_screen'"),
            (_set("category_rules", 3, "appropriate_rooms", ["kitchen", "kitchen"]),
             "category_rules[3]: appropriate_rooms repeats 'kitchen'"),
            (_set("objects", 6, "allergen_tags", ["peanut", "peanut"]), "objects[6]: allergen_tags repeats 'peanut'"),
            (_set("users", 2, "allergies", ["peanut", "peanut"]), "users[2]: allergies repeats 'peanut'"),
            (_set("admin", "designators", ["alice", "henry", "alice"]), "admin: designators repeats 'alice'"),
            (_set("personal_tags", 0, "grants", ["bob", "bob"]), "personal_tags[0]: grants repeats 'bob'"),
        ],
        ids=lambda e: getattr(e, "__name__", ""),
    )
    def test_a_repeated_item_is_refused_by_entry_and_item(self, edit, message):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        edit(data)
        with pytest.raises(ConfigError) as refused:
            PolicyConfig.from_dict(data)
        assert str(refused.value) == f"malformed policy config: {message}"

    def test_a_duplicate_matrix_row_names_both_rows(self):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        data["matrix"].append(dict(data["matrix"][3]))
        with pytest.raises(ConfigError) as refused:
            PolicyConfig.from_dict(data)
        assert str(refused.value) == "malformed policy config: matrix[48]: duplicate matrix row: same key as matrix[3]"

    def test_rows_with_equal_groups_and_checks_share_one_entry(self, shipped_config):
        # Each distinct entry is built once per load; equal rows stay equal.
        config = PolicyConfig.from_dict(SHIPPED_DATA)
        assert len({id(entry) for entry in config.matrix.values()}) == len(set(config.matrix.values())) == 9
        assert config.matrix == shipped_config.matrix
        assert config.fingerprint() == SHIPPED_FINGERPRINT


def _rename(*path):
    """An edit that renames the key second to last in `path` to the last."""
    *keys, old, new = path

    def edit(data):
        for key in keys:
            data = data[key]
        data[new] = data.pop(old)

    edit.__name__ = ".".join(map(str, path))
    return edit


def _two_unknown_keys(data):
    data["users"][2]["zeta"] = 1
    data["users"][2]["alpha"] = 2


class TestRefusalsNameTheirPlace:
    """A refusal the parts of a config raise themselves names the section
    or entry it sits in, as the loader's own refusals do."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_set("matrix", 5, "required_checks", ["bogus"]), "matrix[5]: unknown matrix checks: ['bogus']"),
            (_set("category_rules", 0, "extra_checks", ["bogus"]),
             "category_rules[0]: unknown category checks: ['bogus']"),
            (_set("users", 1, "age_years", -3), "users[1]: user 'bob': negative age"),
            (_set("region", "adult_age_threshold", 3),
             "region: region 'canada': adult_age_threshold must be >= 14, got 3"),
            (_set("durations", "dangerous_s", 0), "durations: cool-down durations must be strictly positive"),
            # Dropped, these would take carol's peanut allergy and the
            # medicine rule's checks away.
            (_rename("users", 2, "allergies", "alergies"), "users[2]: unknown key 'alergies'"),
            (_rename("category_rules", 0, "extra_checks", "extra_check"),
             "category_rules[0]: unknown key 'extra_check'"),
            (_set("comment", "shipped"), "unknown key 'comment'"),
            (_set("region", "nmae", "canada"), "region: unknown key 'nmae'"),
            (_set("durations", "dangerous", 60), "durations: unknown key 'dangerous'"),
            (_set("zone_table", 1, "Zone", "red"), "zone_table[1]: unknown key 'Zone'"),
            (_set("matrix", 5, "zones", "red"), "matrix[5]: unknown key 'zones'"),
            (_set("objects", 3, "allergens", []), "objects[3]: unknown key 'allergens'"),
            (_set("admin", "designator", "bob"), "admin: unknown key 'designator'"),
            (_set("personal_tags", 0, "grant", ["bob"]), "personal_tags[0]: unknown key 'grant'"),
            # Of several, the first in sorted order, whatever the hash seed.
            (_two_unknown_keys, "users[2]: unknown key 'alpha'"),
        ],
        ids=lambda e: getattr(e, "__name__", ""),
    )
    def test_a_refusal_names_its_section_or_entry(self, edit, message):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        edit(data)
        with pytest.raises(ConfigError) as refused:
            PolicyConfig.from_dict(data)
        assert str(refused.value) == f"malformed policy config: {message}"


class TestKnownKeys:
    def test_each_object_allows_exactly_the_keys_to_dict_writes(self, shipped_config):
        written = shipped_config.to_dict()
        keys = {"config": set(written)}
        for section, value in written.items():
            if isinstance(value, dict):
                keys[section] = set(value)
            elif isinstance(value, list):
                keys[section] = set(value[0])
                assert all(set(entry) == keys[section] for entry in value)
        assert {section: set(known) for section, known in fetchguard.config._KEYS.items()} == keys


#: Where each field that holds an enum text sits, and the index its
#: refusal names.
ENUM_FIELDS = {
    "cooldown": ("matrix", 5),
    "request_class": ("matrix", 5),
    "zone": ("matrix", 5),
    "allowed_groups": ("matrix", 5),
    "safety_class": ("objects", 3),
    "relationship": ("users", 4),
}


class TestEnumTextRefusals:
    """A text that names no member is refused with the message the enum
    call gives, whatever the value's JSON type, a list included. A list
    field is edited in its one element."""

    @pytest.mark.parametrize(
        "field, bad, message",
        [
            ("cooldown", "plaid", "matrix[5]: 'plaid' is not a valid SafetyClass"),
            ("cooldown", 3, "matrix[5]: 3 is not a valid SafetyClass"),
            ("cooldown", None, "matrix[5]: None is not a valid SafetyClass"),
            ("cooldown", ["dangerous"], "matrix[5]: ['dangerous'] is not a valid SafetyClass"),
            ("request_class", "plaid", "matrix[5]: 'plaid' is not a valid SafetyClass"),
            ("request_class", 3, "matrix[5]: 3 is not a valid SafetyClass"),
            ("request_class", None, "matrix[5]: None is not a valid SafetyClass"),
            ("request_class", ["dangerous"], "matrix[5]: ['dangerous'] is not a valid SafetyClass"),
            ("zone", "plaid", "matrix[5]: unknown zone 'plaid'"),
            ("zone", 3, "matrix[5]: unknown zone 3"),
            ("zone", None, "matrix[5]: unknown zone None"),
            ("zone", ["green"], "matrix[5]: unknown zone ['green']"),
            ("allowed_groups", "plaid", "matrix[5]: 'plaid' is not a valid UserGroup"),
            ("allowed_groups", 3, "matrix[5]: 3 is not a valid UserGroup"),
            ("allowed_groups", None, "matrix[5]: None is not a valid UserGroup"),
            ("allowed_groups", ["HA"], "matrix[5]: ['HA'] is not a valid UserGroup"),
            ("safety_class", "plaid", "objects[3]: 'plaid' is not a valid SafetyClass"),
            ("safety_class", 3, "objects[3]: 3 is not a valid SafetyClass"),
            ("safety_class", None, "objects[3]: None is not a valid SafetyClass"),
            ("safety_class", ["neither"], "objects[3]: ['neither'] is not a valid SafetyClass"),
            ("relationship", "plaid", "users[4]: 'plaid' is not a valid Relationship"),
            ("relationship", 3, "users[4]: 3 is not a valid Relationship"),
            ("relationship", None, "users[4]: None is not a valid Relationship"),
            ("relationship", ["family"], "users[4]: ['family'] is not a valid Relationship"),
            # A zone matches exactly too, in a matrix row as in a zone-table rect.
            ("zone", "GREEN", "matrix[5]: unknown zone 'GREEN'"),
            ("zone", "Red", "matrix[5]: unknown zone 'Red'"),
        ],
    )
    def test_a_text_that_names_no_member_is_refused_in_the_enums_words(self, field, bad, message):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        section, index = ENUM_FIELDS[field]
        data[section][index][field] = [bad] if field in ("cooldown", "allowed_groups") else bad
        with pytest.raises(ConfigError) as refused:
            PolicyConfig.from_dict(data)
        assert str(refused.value) == f"malformed policy config: {message}"

    @pytest.mark.parametrize(
        "field, text",
        [("cooldown", "Dangerous"), ("request_class", "NEITHER"), ("allowed_groups", "ha"),
         ("safety_class", "Neither"), ("relationship", "FAMILY")],
    )
    def test_a_member_text_in_another_case_is_refused(self, field, text):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        section, index = ENUM_FIELDS[field]
        data[section][index][field] = [text] if field in ("cooldown", "allowed_groups") else text
        with pytest.raises(ConfigError, match=f"'{text}' is not a valid "):
            PolicyConfig.from_dict(data)

    @pytest.mark.parametrize("text", ["GREEN", "Red"])
    def test_a_zone_table_zone_in_another_case_is_refused(self, text):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        data["zone_table"][0]["zone"] = text
        with pytest.raises(ConfigError) as refused:
            PolicyConfig.from_dict(data)
        assert str(refused.value) == f"malformed policy config: zone_table[0]: unknown zone '{text}'"

    @pytest.mark.parametrize("field", ["cooldown", "allowed_groups"])
    def test_a_list_field_that_is_not_a_list_is_refused_by_name(self, field):
        data = json.loads(DEFAULT_JSON.read_text(encoding="utf-8"))
        data["matrix"][5][field] = None
        with pytest.raises(ConfigError) as refused:
            PolicyConfig.from_dict(data)
        assert str(refused.value) == f"malformed policy config: matrix[5]: {field} must be list, got None"


CLASS_TEXTS = [c.value for c in ALL_CLASSES]
ZONE_TEXTS = [z.as_str() for z in ALL_ZONES]
GROUP_TEXTS = [g.value for g in UserGroup]
#: Values a drawn row holds where a text or a list belongs: other JSON
#: types, an unhashable list and object, and a text in no table.
NOT_TEXTS = [None, 3, True, 1.5, ["neither"], {"zone": "red"}, "plaid"]
#: The shipped rows' keys, by the general checks.
SHIPPED_KEYS = [fetchguard.config._read_row(row)[0] for row in SHIPPED_DATA["matrix"]]


def _permuted(texts):
    return st.sets(st.sampled_from(texts)).flatmap(lambda chosen: st.permutations(sorted(chosen)))


def _mostly(accepted, other):
    """Draws from `accepted` three times in four, so that whole rows pass."""
    return st.sampled_from([accepted, accepted, accepted, other]).flatmap(lambda chosen: chosen)


@st.composite
def matrix_rows(draw):
    """A matrix row as a config file or a Python caller may give it: every
    accepted form of each field, those forms in another case or as enum
    members, repeats, other types, a tuple for a list, unhashable items,
    another shipped row's body, and missing fields."""
    row = {
        "cooldown": draw(_mostly(
            st.one_of(_permuted(CLASS_TEXTS), _permuted(list(SafetyClass))),
            st.one_of(
                st.lists(st.sampled_from(CLASS_TEXTS + ["Dangerous", "NEITHER", Zone.RED, *NOT_TEXTS]), max_size=4),
                st.sampled_from([None, "dangerous", ("mind_altering", "dangerous"), ()]),
            ),
        )),
        "request_class": draw(_mostly(
            st.sampled_from(CLASS_TEXTS + list(SafetyClass)),
            st.sampled_from(["Neither", "DANGEROUS", "green", *NOT_TEXTS]),
        )),
        "zone": draw(_mostly(
            st.sampled_from(ZONE_TEXTS),
            st.sampled_from(["GREEN", "Red", Zone.GREEN, Zone.RED, 0, "neither", *NOT_TEXTS]),
        )),
    }
    if draw(st.booleans()):
        other = draw(st.sampled_from(SHIPPED_DATA["matrix"]))
        row["allowed_groups"] = draw(st.permutations(other["allowed_groups"]))
        row["required_checks"] = draw(st.permutations(other["required_checks"]))
    else:
        row["allowed_groups"] = draw(_mostly(
            _permuted(GROUP_TEXTS + [UserGroup.FRC]),
            st.one_of(
                st.lists(st.sampled_from(GROUP_TEXTS + [UserGroup.HA, "ha", *NOT_TEXTS]), min_size=2, max_size=4),
                st.sampled_from([None, "HA", ("HA", "FAA")]),
            ),
        ))
        row["required_checks"] = draw(_mostly(
            _permuted(MATRIX_CHECKS),
            st.one_of(
                st.lists(st.sampled_from([*MATRIX_CHECKS, "Adult_present", "allergy_screen", *NOT_TEXTS]), max_size=3),
                st.sampled_from([None, "adult_present", ("adult_present",)]),
            ),
        ))
    if not draw(_mostly(st.just(True), st.booleans())):
        del row[draw(st.sampled_from(sorted(row)))]
    return row


class TestRowKeyTable:
    """A row's key is looked up in matrix.KEY_BY_TEXTS and each distinct
    body is read once; the general row checks, applied alone, must give the
    same key and entry, or the same refusal."""

    @staticmethod
    def agree(row):
        data = json.loads(json.dumps(SHIPPED_DATA))
        data["matrix"][5] = row
        try:
            key, entry = fetchguard.config._read_row(row)
        except fetchguard.config._REFUSALS as exc:
            with pytest.raises(ConfigError) as refused:
                PolicyConfig.from_dict(data)
            assert str(refused.value) == f"malformed policy config: matrix[5]: {exc}"
            return
        # Keys stay unique: the shipped row holding this key takes row 5's.
        if key in SHIPPED_KEYS and SHIPPED_KEYS.index(key) != 5:
            data["matrix"][SHIPPED_KEYS.index(key)] = SHIPPED_DATA["matrix"][5]
        config = PolicyConfig.from_dict(data)
        assert list(config.matrix)[5] == key
        assert config.matrix[key] == entry
        # Rows with equal groups and checks share one entry.
        assert len({id(e) for e in config.matrix.values()}) == len(set(config.matrix.values()))

    @settings(max_examples=400, deadline=None)
    @given(matrix_rows())
    @example({"cooldown": ["mind_altering", "dangerous"], "request_class": "neither", "zone": "red",
              "allowed_groups": ["HA"], "required_checks": []})
    def test_the_table_and_the_general_checks_agree(self, row):
        self.agree(row)

    def test_every_accepted_key_form(self):
        for n in range(len(CLASS_TEXTS) + 1):
            for cooldown in itertools.permutations(CLASS_TEXTS, n):
                for request_class in CLASS_TEXTS:
                    for zone in ZONE_TEXTS:
                        self.agree({"cooldown": list(cooldown), "request_class": request_class, "zone": zone,
                                    "allowed_groups": [], "required_checks": []})
        assert len(KEY_BY_TEXTS) == 192
        # A reachable key is the ALL_KEYS member itself.
        reachable = [key for key in KEY_BY_TEXTS.values() if SafetyClass.NEITHER not in key.cooldown_profile]
        assert len(reachable) == 60 and all(any(key is k for k in ALL_KEYS) for key in reachable)


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
            (_flag_as_duration, r"durations: dangerous_s must be int"),
            (_fractional_adult_age, r"region: adult_age_threshold must be int"),
            (_numeric_personal_owner, r"objects\[8\]: personal_owner must be 'alice'"),
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
