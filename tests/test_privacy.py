import pytest
from hypothesis import given
from hypothesis import strategies as st

from fetchguard import (
    AdminHierarchy,
    PermissionDeniedError,
    PersonalRegistry,
    TagConflictError,
)

HIER = AdminHierarchy(owner="alice", designators=frozenset({"alice", "henry"}))


def registry_with_tag(tagger="alice", obj="diary"):
    reg = PersonalRegistry()
    reg.tag_personal(HIER, tagger, obj)
    return reg


class TestTagging:
    def test_owner_can_tag(self):
        reg = registry_with_tag()
        assert reg.snapshot("diary") == {"diary": {"tagged_by": "alice", "grants": []}}

    def test_designator_can_tag(self):
        reg = registry_with_tag(tagger="henry")
        assert reg.snapshot("diary") == {"diary": {"tagged_by": "henry", "grants": []}}

    def test_non_designator_cannot_tag(self):
        reg = PersonalRegistry()
        with pytest.raises(PermissionDeniedError):
            reg.tag_personal(HIER, "bob", "diary")

    def test_second_tagger_conflicts_first_wins(self):
        reg = registry_with_tag(tagger="alice")
        with pytest.raises(TagConflictError):
            reg.tag_personal(HIER, "henry", "diary")
        assert reg.snapshot("diary") == {"diary": {"tagged_by": "alice", "grants": []}}

    def test_retag_by_same_user_resets_grants(self):
        reg = registry_with_tag()
        reg.grant_access("alice", "diary", "bob")
        reg.tag_personal(HIER, "alice", "diary")
        assert not reg.personal_check("bob", "diary")


class TestPersonalCheck:
    def test_untagged_object_passes_for_anyone(self):
        assert PersonalRegistry().personal_check("anyone", "towel")

    def test_tagger_passes_own_object(self):
        assert registry_with_tag().personal_check("alice", "diary")

    def test_ungranted_user_violates(self):
        assert not registry_with_tag().personal_check("bob", "diary")

    def test_owner_is_not_a_superuser_for_fetch(self):
        reg = registry_with_tag(tagger="henry")
        assert not reg.personal_check("alice", "diary")


class TestGrants:
    def test_grant_opens_access(self):
        reg = registry_with_tag()
        reg.grant_access("alice", "diary", "bob")
        assert reg.personal_check("bob", "diary")

    def test_only_tagger_may_grant(self):
        reg = registry_with_tag()
        with pytest.raises(PermissionDeniedError):
            reg.grant_access("bob", "diary", "carol")

    def test_grant_on_untagged_object_is_an_error(self):
        with pytest.raises(PermissionDeniedError):
            PersonalRegistry().grant_access("alice", "towel", "bob")

    def test_regrant_is_idempotent(self):
        reg = registry_with_tag()
        reg.grant_access("alice", "diary", "bob")
        reg.grant_access("alice", "diary", "bob")
        assert reg.snapshot()["diary"]["grants"] == ["bob"]


class TestSnapshot:
    def test_roundtrip(self):
        reg = registry_with_tag()
        reg.grant_access("alice", "diary", "bob")
        restored = PersonalRegistry.restore(reg.snapshot())
        assert restored.snapshot() == reg.snapshot()
        assert restored.personal_check("bob", "diary")
        assert not restored.personal_check("carol", "diary")


# Non-leakage: access passes only under the three enumerated conditions,
# checked against a direct re-evaluation of the definition.
users = st.sampled_from(["alice", "bob", "carol", "dana", "eve"])
objects = st.sampled_from(["o1", "o2", "o3"])


@given(
    tags=st.dictionaries(objects, st.tuples(users, st.sets(users, max_size=3)), max_size=3),
    requester=users,
    target=objects,
)
def test_non_leakage_matches_brute_force(tags, requester, target):
    reg = PersonalRegistry.restore(
        {obj: {"tagged_by": tagger, "grants": sorted(grants)} for obj, (tagger, grants) in tags.items()}
    )
    got = reg.personal_check(requester, target)
    if target not in tags:
        expected = True
    else:
        tagger, grants = tags[target]
        expected = requester == tagger or requester in grants
    assert got == expected
