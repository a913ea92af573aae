"""Hierarchical admin settings and the personal-object registry.

The policy owner picks who may tag objects personal (the designators). A
tagged object is fetchable only by its tagger and by users the tagger has
explicitly granted. The owner holds no fetch backdoor: privacy outranks
administrative convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PermissionDeniedError, TagConflictError
from .model import require_type


@dataclass(frozen=True)
class AdminHierarchy:
    owner: str
    designators: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "designators", frozenset(self.designators))

    def all_designators(self) -> frozenset[str]:
        # The owner can always tag, whether or not listed explicitly.
        return self.designators | {self.owner}


@dataclass(slots=True)
class PersonalTag:
    tagged_by: str
    grants: set[str] = field(default_factory=set)


class PersonalRegistry:
    """Map of object_id -> (tagger, granted users). First tag wins; only the
    tagger may grant or re-tag."""

    __slots__ = ("_tags",)

    def __init__(self):
        self._tags: dict[str, PersonalTag] = {}

    def tag_personal(self, hierarchy: AdminHierarchy, actor: str, object_id: str) -> None:
        if actor not in hierarchy.all_designators():
            raise PermissionDeniedError(
                f"{actor!r} is not a designator and may not tag objects personal"
            )
        existing = self._tags.get(object_id)
        if existing is not None and existing.tagged_by != actor:
            raise TagConflictError(
                f"object {object_id!r} is already tagged personal by another user"
            )
        # Re-tagging by the same designator resets the grant list.
        self._tags[object_id] = PersonalTag(tagged_by=actor)

    def grant_access(self, actor: str, object_id: str, grantee: str) -> None:
        existing = self._tags.get(object_id)
        if existing is None or existing.tagged_by != actor:
            raise PermissionDeniedError(
                f"only the user who tagged {object_id!r} may grant access to it"
            )
        existing.grants.add(grantee)

    def personal_check(self, requester: str, object_id: str) -> bool:
        """True iff the object is untagged, tagged by the requester, or the
        requester holds a grant."""
        tag = self._tags.get(object_id)
        if tag is None:
            return True
        return requester == tag.tagged_by or requester in tag.grants

    def is_tagged(self, object_id: str) -> bool:
        return object_id in self._tags

    def snapshot(self, object_id: str | None = None) -> dict:
        """The whole registry, or, given an object_id, only that object's
        entry (empty when it is untagged)."""
        if object_id is None:
            tags = sorted(self._tags.items())
        else:
            tags = [(object_id, self._tags[object_id])] if object_id in self._tags else []
        return {obj: {"tagged_by": tag.tagged_by, "grants": sorted(tag.grants)} for obj, tag in tags}

    @classmethod
    def restore(cls, snapshot: dict) -> "PersonalRegistry":
        reg = cls()
        tags = reg._tags
        for obj, tag in snapshot.items():
            # Taken as recorded: converting would let an edited entry verify.
            grants, tagged_by = tag["grants"], tag["tagged_by"]
            if not (type(tagged_by) is str and type(grants) is list and all(type(g) is str for g in grants)):
                # The refusal, worded; str subclasses pass.
                require_type(f"tagger of {obj!r}", tagged_by, str)
                require_type(f"grants on {obj!r}", grants, list)
                for grantee in grants:
                    require_type(f"grantee on {obj!r}", grantee, str)
            tags[obj] = PersonalTag(tagged_by, set(grants))
        return reg
