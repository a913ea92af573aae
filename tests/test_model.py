import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fetchguard import (
    ConfigError,
    NodeStatus,
    ObjectSpec,
    Region,
    Relationship,
    SafetyClass,
    UserGroup,
    UserProfile,
    classify_user_group,
    validate_object_catalog,
)
from fetchguard.emotion import Zone
from fetchguard.engine import canonical_json
from fetchguard.model import CLASS_BY_TEXT, GROUP_BY_TEXT, RELATIONSHIP_BY_TEXT, _Text, member as member_of, require_type

CANADA = Region("canada", 19)
USA = Region("usa", 21)

REAL_RELATIONSHIPS = [Relationship.HOUSEHOLD, Relationship.FAMILY, Relationship.FRIEND]


def profile(age, relationship=Relationship.HOUSEHOLD, **kw):
    return UserProfile(user_id="u", age_years=age, relationship=relationship, **kw)


def oracle_tier(age, threshold):
    """Independent restatement of the age banding used to sweep-check."""
    if age < 5:
        return "ineligible"
    if age <= 12:
        return "child"
    if age < threshold:
        return "teen"
    return "adult"


class TestClassify:
    def test_under_five_is_ineligible(self):
        assert classify_user_group(profile(4), CANADA) is UserGroup.INELIGIBLE

    def test_household_adult_at_threshold(self):
        assert classify_user_group(profile(20), CANADA) is UserGroup.HA

    def test_teen_tier_extends_to_regional_threshold(self):
        # Age 20 in a threshold-21 region stays in the teen tier.
        assert classify_user_group(profile(20), USA) is UserGroup.HT

    @pytest.mark.parametrize("region", [CANADA, USA])
    @pytest.mark.parametrize("relationship", REAL_RELATIONSHIPS)
    def test_exhaustive_age_sweep_matches_tier_oracle(self, region, relationship):
        tier_letter = {"adult": "A", "teen": "T", "child": "C"}
        rel_prefix = {
            Relationship.HOUSEHOLD: "H",
            Relationship.FAMILY: "FA",
            Relationship.FRIEND: "FR",
        }
        for age in range(0, 101):
            got = classify_user_group(profile(age, relationship), region)
            tier = oracle_tier(age, region.adult_age_threshold)
            if tier == "ineligible":
                assert got is UserGroup.INELIGIBLE
            else:
                assert got is UserGroup(rel_prefix[relationship] + tier_letter[tier])

    def test_unknown_relationship_collapses_to_u(self):
        for age in (5, 13, 30, 90):
            assert classify_user_group(profile(age, Relationship.UNKNOWN), CANADA) is UserGroup.U
        assert classify_user_group(profile(3, Relationship.UNKNOWN), CANADA) is UserGroup.INELIGIBLE


@given(
    age=st.integers(min_value=0, max_value=120),
    relationship=st.sampled_from(list(Relationship)),
    threshold=st.integers(min_value=14, max_value=30),
)
def test_partition_every_age_maps_to_exactly_one_group(age, relationship, threshold):
    group = classify_user_group(profile(age, relationship), Region("r", threshold))
    assert isinstance(group, UserGroup)
    if age < 5:
        assert group is UserGroup.INELIGIBLE
    else:
        assert group is not UserGroup.INELIGIBLE


@given(
    age=st.integers(min_value=0, max_value=120),
    relationship=st.sampled_from(REAL_RELATIONSHIPS),
    low=st.integers(min_value=14, max_value=25),
    bump=st.integers(min_value=0, max_value=10),
)
def test_raising_threshold_never_promotes_teen_to_adult(age, relationship, low, bump):
    before = classify_user_group(profile(age, relationship), Region("r", low))
    after = classify_user_group(profile(age, relationship), Region("r", low + bump))
    teen = {UserGroup.HT, UserGroup.FAT, UserGroup.FRT}
    adult = {UserGroup.HA, UserGroup.FAA, UserGroup.FRA}
    if before in teen:
        assert after not in adult


class TestInvariants:
    def test_region_threshold_below_14_rejected(self):
        with pytest.raises(ConfigError):
            Region("nowhere", 13)

    def test_negative_age_rejected(self):
        with pytest.raises(ConfigError):
            profile(-1)


class TestCatalogValidation:
    def test_empty_catalog_is_valid(self):
        assert validate_object_catalog([]).ok

    def test_duplicate_object_ids_reported(self):
        objs = [
            ObjectSpec("knife", "Knife", SafetyClass.DANGEROUS, "kitchen"),
            ObjectSpec("knife", "Other knife", SafetyClass.DANGEROUS, "kitchen"),
        ]
        report = validate_object_catalog(objs)
        assert "duplicate-object-id" in report.codes()

    def test_empty_category_reported(self):
        objs = [ObjectSpec("thing", "Thing", SafetyClass.NEITHER, "")]
        report = validate_object_catalog(objs)
        assert "empty-category" in report.codes()


TEXT_MEMBERS = [*UserGroup, *SafetyClass, *Relationship]


def _require_type_as_specified(what, value, *types):
    """require_type's contract, written out as one predicate: an instance
    of one of the types passes unchanged, except a bool where bool is not
    asked for; anything else is a TypeError that names the types."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{what} must be {names}, got {value!r}")
    return value


def _outcome(check, value, types):
    try:
        return ("returned", check("field", value, *types))
    except Exception as exc:  # the type and the words are the contract
        return (type(exc), str(exc))


ANY_VALUE = st.one_of(
    st.booleans(),
    st.integers(),
    # Beyond the default int-to-text digit limit, so the refusal's repr fails alike.
    st.integers(min_value=-(10**5000), max_value=10**5000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(TEXT_MEMBERS),
    st.sampled_from(list(Zone)),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


class TestRequireType:
    @given(value=ANY_VALUE, types=st.sampled_from([(str,), (int,), (bool,), (int, float), (list,)]))
    def test_accepts_and_refuses_what_the_written_predicate_does(self, value, types):
        got = _outcome(require_type, value, types)
        assert got == _outcome(_require_type_as_specified, value, types)
        if got[0] == "returned":
            assert got[1] is value


class TestTextMember:
    """A group, class or relationship is its own text, whatever the
    interpreter's Enum does with str, format and repr."""

    @pytest.mark.parametrize("member", TEXT_MEMBERS, ids=str)
    def test_a_member_equals_and_hashes_as_its_text(self, member):
        text = member.value
        assert type(text) is str
        assert member == text and text == member
        assert hash(member) == hash(text)
        assert {member: "entry"}[text] == "entry"
        assert {text: "entry"}[member] == "entry"

    @pytest.mark.parametrize("member", TEXT_MEMBERS, ids=str)
    def test_a_member_prints_as_its_text(self, member):
        text = member.value
        assert str(member) == text and type(str(member)) is str
        assert repr(member) == repr(text)
        assert format(member) == text
        assert format(member, ">12") == format(text, ">12")
        assert f"{member}|{member!r}|{member:^14}" == f"{text}|{text!r}|{text:^14}"
        assert "%s %r" % (member, member) == "%s %r" % (text, text)
        assert repr([member]) == repr([text])

    @pytest.mark.parametrize("member", TEXT_MEMBERS, ids=str)
    def test_a_member_encodes_as_its_text(self, member):
        text = member.value
        assert json.dumps(member) == json.dumps(text) == f'"{text}"'
        assert json.dumps({member: [member]}) == json.dumps({text: [text]})
        assert json.dumps({member: 1}, indent=2) == json.dumps({text: 1}, indent=2)
        assert canonical_json({member: [member]}) == canonical_json({text: [text]})

    @pytest.mark.parametrize("enum_type", [UserGroup, SafetyClass, Relationship], ids=lambda t: t.__name__)
    def test_members_sort_by_text(self, enum_type):
        members = list(enum_type)
        assert [m.value for m in sorted(members)] == sorted(m.value for m in members)
        assert [m.value for m in sorted(reversed(members))] == sorted(m.value for m in members)

    @pytest.mark.parametrize("member", TEXT_MEMBERS, ids=str)
    def test_a_member_survives_pickle_copy_and_its_type_called_on_its_text(self, member):
        same = [pickle.loads(pickle.dumps(member)), copy.deepcopy(member), copy.copy(member), type(member)(member.value)]
        assert all(other is member for other in same)

    def test_members_by_text_agree_with_the_enum(self):
        tables = ((GROUP_BY_TEXT, UserGroup), (CLASS_BY_TEXT, SafetyClass), (RELATIONSHIP_BY_TEXT, Relationship))
        for by_text, enum_type in tables:
            assert by_text == {m.value: m for m in enum_type}
            assert all(member_of(by_text, m.value) is m for m in enum_type)


class TestIdentityHash:
    @pytest.mark.parametrize("member", [*NodeStatus], ids=repr)
    def test_a_member_finds_its_entry_however_it_is_reached(self, member):
        table = {member: "entry"}
        for same in (pickle.loads(pickle.dumps(member)), copy.deepcopy(member), type(member)(member.value)):
            assert same is member
            assert table[same] == "entry"
        assert hash(member) == object.__hash__(member)


class TestBuiltinHash:
    """A zone hashes by int's hash and a text member by str's, both in C,
    with no override of their own: a Python whose Enum put its Python-level
    hash in their place would fail here rather than slow down unseen."""

    def test_a_zone_hashes_as_its_rank(self):
        assert Zone.__hash__ is int.__hash__
        assert [hash(zone) for zone in Zone] == [hash(int(zone)) for zone in Zone]

    @pytest.mark.parametrize("enum_type", [UserGroup, SafetyClass, Relationship], ids=lambda t: t.__name__)
    def test_a_text_member_hashes_as_its_text(self, enum_type):
        assert "__hash__" not in _Text.__dict__
        assert enum_type.__hash__ is str.__hash__
        assert [hash(member) for member in enum_type] == [hash(member.value) for member in enum_type]
