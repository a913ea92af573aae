"""PolicyConfig: the entire tunable surface, its JSON form and its validators.

The file format is plain JSON. The fingerprint is the SHA-256 of the
canonicalized content (sorted keys, no whitespace), so formatting changes do
not break trace replay but any semantic edit does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from .emotion import Zone, ZoneRect, ZoneTable, validate_zone_table
from .errors import ConfigError
from .matrix import KEY_BY_TEXTS, CategoryRule, Matrix, MatrixEntry, MatrixKey, validate_matrix
from .model import (
    CLASS_BY_TEXT,
    GROUP_BY_TEXT,
    MIN_ELIGIBLE_AGE,
    RELATIONSHIP_BY_TEXT,
    Finding,
    ObjectSpec,
    Region,
    Relationship,
    Report,
    UserProfile,
    member,
    require_type,
    validate_object_catalog,
)
from .ordering import COOLDOWN_SCOPES, HOUSEHOLD_SCOPE_KEY, UNKNOWN_SCOPE_KEY, CooldownDurations
from .privacy import AdminHierarchy

#: The shipped household. It sits in a checkout, beside src/; a non-editable
#: install carries none, so load a config file by path there instead.
SHIPPED_CONFIG = Path(__file__).resolve().parents[2] / "configs" / "default.json"
#: The fingerprint of SHIPPED_CONFIG, which every trace it decides embeds.
SHIPPED_FINGERPRINT = "4be17d16502a6f12112338028a8f4502e4e3a5adf0dc1da134ff3485af8e5d04"
#: Cool-down record keys shared by many requesters, so no roster user may take one.
RESERVED_USER_IDS = frozenset({HOUSEHOLD_SCOPE_KEY, UNKNOWN_SCOPE_KEY})
#: The keys each object of a config file may hold: exactly those to_dict writes.
_KEYS = {
    "config": frozenset({
        "region", "durations", "cooldown_scope", "zone_table", "matrix",
        "category_rules", "objects", "users", "admin", "personal_tags",
    }),
    "region": frozenset({"name", "adult_age_threshold"}),
    "durations": frozenset({"dangerous_s", "mind_altering_s"}),
    "zone_table": frozenset({"zone", "v_lo", "v_hi", "a_lo", "a_hi"}),
    "matrix": frozenset({"cooldown", "request_class", "zone", "allowed_groups", "required_checks"}),
    "category_rules": frozenset({"category", "extra_checks", "appropriate_rooms"}),
    "objects": frozenset({"object_id", "display_name", "safety_class", "category", "allergen_tags", "personal_owner"}),
    "users": frozenset({"user_id", "age_years", "relationship", "allergies", "admin_role"}),
    "admin": frozenset({"owner", "designators"}),
    "personal_tags": frozenset({"object_id", "tagged_by", "grants"}),
}
#: What a part of a config file raises when it refuses its value.
_REFUSALS = (ConfigError, KeyError, TypeError, ValueError)
#: json.dumps(sort_keys=True, separators=(",", ":")) without the cycle
#: check, which a dict to_dict builds cannot need. NaN stays allowed, so a
#: config whose zone bound is NaN still fingerprints (and fails validation).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _distinct(what: str, items: list) -> frozenset:
    """A list read as a set. A repeated item is refused rather than
    collapsed, so that a set has one spelling in a config file."""
    distinct = frozenset(items)
    if len(distinct) != len(items):
        repeat = next(item for i, item in enumerate(items) if item in items[:i])
        raise ValueError(f"{what} repeats {repeat!r}")
    return distinct


def _strings(what: str, value) -> frozenset[str]:
    """A JSON list of distinct strings, as a set. A bare string is refused
    rather than split into its letters."""
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{what} must be a list of str, got {value!r}")
    return _distinct(what, value)


def _bound(what: str, value) -> float:
    """A zone bound widened to float, as to_dict writes it, so that -1 and
    -1.0 give one fingerprint. An int past float range is refused by name."""
    try:
        return float(require_type(what, value, int, float))
    except OverflowError:
        raise ValueError(f"{what} is an int past float range") from None


def _known(value, section: str) -> None:
    """Refuse a key of a JSON object that its section does not name, rather
    than drop it: a misspelled optional key would read as absent. Of
    several, the first in sorted order is named, whatever the hash seed. A
    value that is not an object is left for its parse to refuse."""
    if isinstance(value, dict) and not _KEYS[section].issuperset(value):
        raise ValueError(f"unknown key {min(value.keys() - _KEYS[section], key=str)!r}")


def _at(section: str, parse, value):
    """parse(value) for one object of a config file. A refusal names the
    section, as in `region: ...`; from_dict adds its prefix."""
    try:
        _known(value, section)
        return parse(value)
    except _REFUSALS as exc:
        raise ValueError(f"{section}: {exc}") from exc


def _each(section: str, entries: list, parse) -> list:
    """parse applied to each entry of one list of a config file. A refusal
    names the entry, as in `users[2]: allergies must be ...`."""
    parsed = []
    for i, entry in enumerate(entries):
        try:
            _known(entry, section)
            parsed.append(parse(entry))
        except _REFUSALS as exc:
            raise ValueError(f"{section}[{i}]: {exc}") from exc
    return parsed


def _read_row(row: dict) -> tuple[MatrixKey, MatrixEntry]:
    """A matrix row read by the general checks, which word each refusal."""
    # member() refuses any cooldown or group that is not one of the texts.
    key = MatrixKey(
        cooldown_profile=_distinct("cooldown", [
            member(CLASS_BY_TEXT, c) for c in require_type("cooldown", row["cooldown"], list)
        ]),
        request_class=member(CLASS_BY_TEXT, row["request_class"]),
        zone=Zone.from_str(row["zone"]),
    )
    groups = _distinct("allowed_groups", [
        member(GROUP_BY_TEXT, g) for g in require_type("allowed_groups", row["allowed_groups"], list)
    ])
    return key, MatrixEntry(groups, _strings("required_checks", row["required_checks"]))


def _listed(value) -> tuple | None:
    """A JSON list as a tuple, to look up as written; anything else as None,
    which no table holds."""
    return tuple(value) if isinstance(value, list) else None


def _admin_role(admin: AdminHierarchy, user: UserProfile) -> str:
    """The admin_role a config file restates for a user."""
    if user.user_id == admin.owner:
        return "owner"
    if user.user_id in admin.designators:
        return "designator"
    return "member" if user.relationship is Relationship.HOUSEHOLD else "none"


def _personal_owners(tags: list[InitialTag]) -> dict[str, str]:
    """The personal_owner a config file restates: each object's first tagger."""
    return {tag.object_id: tag.tagged_by for tag in reversed(tags)}


def _agrees(entry: dict, key: str, derived) -> None:
    """Refuse a restated value that disagrees; an absent one reads as agreeing."""
    if entry.get(key, derived) != derived:
        raise ValueError(f"{key} must be {derived!r}")


@dataclass(frozen=True)
class InitialTag:
    object_id: str
    tagged_by: str
    grants: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "grants", frozenset(self.grants))


@dataclass(frozen=True)
class PolicyConfig:
    """A household's whole policy, as a value: its lists are kept as tuples
    and its matrix as a read-only copy, so nothing a caller holds can change
    a built config and nothing it works out once can go stale. Build a
    changed config with dataclasses.replace."""

    region: Region
    durations: CooldownDurations
    cooldown_scope: str
    zone_table: ZoneTable
    matrix: Matrix
    category_rules: tuple[CategoryRule, ...]
    objects: tuple[ObjectSpec, ...]
    users: tuple[UserProfile, ...]
    admin: AdminHierarchy
    personal_tags: tuple[InitialTag, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "matrix", MappingProxyType(dict(self.matrix)))
        for name in ("category_rules", "objects", "users", "personal_tags"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # Reversed, so that the first of two equal ids wins, as a scan would.
        object.__setattr__(self, "_objects_by_id", {o.object_id: o for o in reversed(self.objects)})
        object.__setattr__(self, "_users_by_id", {u.user_id: u for u in reversed(self.users)})

    def object_by_id(self, object_id: str) -> ObjectSpec | None:
        return self._objects_by_id.get(object_id)

    def user_by_id(self, user_id: str) -> UserProfile | None:
        return self._users_by_id.get(user_id)

    @cached_property
    def _replayer(self):
        """The engine redecide restores and re-decides on; no caller gets it."""
        from .engine import DecisionEngine  # engine.py imports this module
        return DecisionEngine(self)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        # admin_role and personal_owner restate admin and personal_tags.
        owners = _personal_owners(self.personal_tags)
        return {
            "region": {"name": self.region.name, "adult_age_threshold": self.region.adult_age_threshold},
            "durations": {
                "dangerous_s": self.durations.dangerous,
                "mind_altering_s": self.durations.mind_altering,
            },
            "cooldown_scope": self.cooldown_scope,
            "zone_table": [
                {
                    "zone": r.zone.as_str(),
                    "v_lo": r.v_lo,
                    "v_hi": r.v_hi,
                    "a_lo": r.a_lo,
                    "a_hi": r.a_hi,
                }
                for r in self.zone_table.rects
            ],
            "matrix": [
                {
                    "cooldown": profile,
                    "request_class": request_class,
                    "zone": zone.as_str(),
                    "allowed_groups": list(entry.group_texts),
                    "required_checks": list(entry.check_texts),
                }
                # Keys are unique, so the sort never compares two entries.
                for profile, request_class, zone, entry in sorted(
                    (sorted(key.cooldown_profile), key.request_class, key.zone, entry)
                    for key, entry in self.matrix.items()
                )
            ],
            "category_rules": [
                {
                    "category": r.category,
                    "extra_checks": sorted(r.extra_checks),
                    "appropriate_rooms": sorted(r.appropriate_rooms)
                    if r.appropriate_rooms is not None
                    else None,
                }
                for r in self.category_rules
            ],
            "objects": [
                {
                    "object_id": o.object_id,
                    "display_name": o.display_name,
                    "safety_class": o.safety_class,
                    "category": o.category,
                    "allergen_tags": sorted(o.allergen_tags),
                    "personal_owner": owners.get(o.object_id),
                }
                for o in self.objects
            ],
            "users": [
                {
                    "user_id": u.user_id,
                    "age_years": u.age_years,
                    "relationship": u.relationship,
                    "allergies": sorted(u.allergies),
                    "admin_role": _admin_role(self.admin, u),
                }
                for u in self.users
            ],
            "admin": {"owner": self.admin.owner, "designators": sorted(self.admin.designators)},
            "personal_tags": [
                {"object_id": t.object_id, "tagged_by": t.tagged_by, "grants": sorted(t.grants)}
                for t in self.personal_tags
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyConfig":
        try:
            return cls._from_dict(data)
        except _REFUSALS as exc:
            raise ConfigError(f"malformed policy config: {exc}") from exc

    @classmethod
    def _from_dict(cls, data: dict) -> "PolicyConfig":
        _known(data, "config")
        region = _at("region", lambda r: Region(
            name=require_type("name", r["name"], str),
            adult_age_threshold=require_type("adult_age_threshold", r["adult_age_threshold"], int),
        ), data["region"])
        durations = _at("durations", lambda d: CooldownDurations(
            dangerous=require_type("dangerous_s", d["dangerous_s"], int),
            mind_altering=require_type("mind_altering_s", d["mind_altering_s"], int),
        ), data["durations"])
        scope = require_type("cooldown_scope", data.get("cooldown_scope", "user"), str)
        rects = _each("zone_table", data["zone_table"], lambda r: ZoneRect(
            zone=Zone.from_str(r["zone"]),
            **{b: _bound(b, r[b]) for b in ("v_lo", "v_hi", "a_lo", "a_hi")},
        ))
        # One entry per distinct (groups, checks): the shipped 48 rows share
        # 9. `bodies` finds it by the texts as written, so each distinct
        # body is read once.
        entries: dict[tuple[frozenset, frozenset], MatrixEntry] = {}
        bodies: dict[tuple[tuple, tuple], MatrixEntry] = {}

        def matrix_row(row: dict) -> tuple[MatrixKey, MatrixEntry]:
            try:
                return (
                    KEY_BY_TEXTS[_listed(row["cooldown"]), row["request_class"], row["zone"]],
                    bodies[_listed(row["allowed_groups"]), _listed(row["required_checks"])],
                )
            except (KeyError, TypeError):
                pass
            _, entry = _read_row(row)
            # The checks passed, so the written key is hashable, and it is in
            # the table, which holds every form they pass.
            key = KEY_BY_TEXTS[tuple(row["cooldown"]), row["request_class"], row["zone"]]
            entry = entries.setdefault((entry.allowed_groups, entry.required_checks), entry)
            bodies[tuple(row["allowed_groups"]), tuple(row["required_checks"])] = entry
            return key, entry

        rows = _each("matrix", data["matrix"], matrix_row)
        matrix: dict[MatrixKey, MatrixEntry] = {}
        for i, (key, entry) in enumerate(rows):
            if key in matrix:
                first = [k for k, _ in rows].index(key)
                raise ValueError(f"matrix[{i}]: duplicate matrix row: same key as matrix[{first}]")
            matrix[key] = entry
        rules = _each("category_rules", data.get("category_rules", []), lambda r: CategoryRule(
            category=require_type("category", r["category"], str),
            extra_checks=_strings("extra_checks", r.get("extra_checks", [])),
            appropriate_rooms=_strings("appropriate_rooms", r["appropriate_rooms"])
            if r.get("appropriate_rooms") is not None
            else None,
        ))
        objects = _each("objects", data["objects"], lambda o: ObjectSpec(
            object_id=require_type("object_id", o["object_id"], str),
            display_name=require_type("display_name", o.get("display_name", o["object_id"]), str),
            safety_class=member(CLASS_BY_TEXT, o["safety_class"]),
            category=require_type("category", o["category"], str),
            allergen_tags=_strings("allergen_tags", o.get("allergen_tags", [])),
        ))
        users = _each("users", data["users"], lambda u: UserProfile(
            user_id=require_type("user_id", u["user_id"], str),
            age_years=require_type("age_years", u["age_years"], int),
            relationship=member(RELATIONSHIP_BY_TEXT, u["relationship"]),
            allergies=_strings("allergies", u.get("allergies", [])),
        ))
        admin = _at("admin", lambda a: AdminHierarchy(
            owner=require_type("owner", a["owner"], str),
            designators=_strings("designators", a.get("designators", [])),
        ), data["admin"])
        tags = _each("personal_tags", data.get("personal_tags", []), lambda t: InitialTag(
            object_id=require_type("object_id", t["object_id"], str),
            tagged_by=require_type("tagged_by", t["tagged_by"], str),
            grants=_strings("grants", t.get("grants", [])),
        ))
        owners = _personal_owners(tags)
        # Passes over (entry, parsed) pairs: a pair is no object, so no key
        # is checked again.
        _each("users", zip(data["users"], users), lambda pair: _agrees(
            pair[0], "admin_role", _admin_role(admin, pair[1])))
        _each("objects", zip(data["objects"], objects), lambda pair: _agrees(
            pair[0], "personal_owner", owners.get(pair[1].object_id)))
        return cls(
            region=region,
            durations=durations,
            cooldown_scope=scope,
            zone_table=ZoneTable(rects=tuple(rects)),
            matrix=matrix,
            category_rules=rules,
            objects=objects,
            users=users,
            admin=admin,
            personal_tags=tags,
        )

    @classmethod
    def load(cls, path: str | Path) -> "PolicyConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (RecursionError, ValueError) as exc:  # not JSON, not UTF-8, too many digits or too deep
                raise ConfigError(f"cannot parse {path}: {exc}") from exc
        return cls.from_dict(data)

    def canonical_bytes(self) -> bytes:
        return _canonical(self.to_dict()).encode("utf-8")

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- validation --------------------------------------------------------

    def validate(self) -> Report:
        """All validators' findings, worked out once; a fresh report per call."""
        return Report(list(self._findings))

    @cached_property
    def _findings(self) -> tuple[Finding, ...]:
        report = Report()
        report.extend(validate_zone_table(self.zone_table))
        report.extend(validate_matrix(self.matrix))
        report.extend(validate_object_catalog(self.objects))
        report.extend(self._validate_roster())
        report.extend(self._validate_rules())
        report.extend(self._validate_admin_and_tags())
        if self.cooldown_scope not in COOLDOWN_SCOPES:
            report.add("bad-scope", f"cooldown_scope must be one of {COOLDOWN_SCOPES}, got {self.cooldown_scope!r}")
        return tuple(report.findings)

    def _validate_roster(self) -> Report:
        report = Report()
        seen: set[str] = set()
        for user in self.users:
            if user.user_id in seen:
                report.add("duplicate-user-id", f"user id {user.user_id!r} appears twice")
            if user.user_id in RESERVED_USER_IDS:
                report.add("reserved-user-id", f"user id {user.user_id!r} names a shared cool-down record")
            seen.add(user.user_id)
        return report

    def _validate_rules(self) -> Report:
        report = Report()
        categories = {o.category for o in self.objects}
        for rule in self.category_rules:
            if rule.category != "*" and rule.category not in categories:
                report.add(
                    "unknown-rule-category",
                    f"category rule {rule.category!r} matches no object in the catalog",
                )
        return report

    def _validate_admin_and_tags(self) -> Report:
        report = Report()
        users = {u.user_id: u for u in self.users}
        if self.admin.owner not in users:
            report.add("unknown-owner", f"admin owner {self.admin.owner!r} is not registered")
        designators = self.admin.all_designators()
        # The owner can always tag, so is held to the designators' rule too.
        for d in sorted(designators):
            u = users.get(d)
            if u is None:
                if d in self.admin.designators:
                    report.add("unknown-designator", f"designator {d!r} is not registered")
            elif u.relationship is not Relationship.HOUSEHOLD:
                report.add(
                    "non-household-designator",
                    f"designator {d!r} is not a household user",
                )
        object_ids = {o.object_id for o in self.objects}
        tagged: set[str] = set()
        for tag in self.personal_tags:
            if tag.object_id not in object_ids:
                report.add("unknown-tagged-object", f"tagged object {tag.object_id!r} not in catalog")
            if tag.object_id in tagged:
                report.add("duplicate-tag", f"object {tag.object_id!r} is tagged personal twice")
            tagged.add(tag.object_id)
            if tag.tagged_by not in designators:
                report.add(
                    "tagger-not-designator",
                    f"{tag.tagged_by!r} tagged {tag.object_id!r} but is not a designator",
                )
            for grantee in sorted(tag.grants):
                u = users.get(grantee)
                if u is None:
                    report.add("unknown-grantee", f"grantee {grantee!r} is not registered")
                elif u.age_years < MIN_ELIGIBLE_AGE:
                    report.add(
                        "ineligible-grantee",
                        f"grantee {grantee!r} is under the minimum age",
                    )
        return report


def default_config() -> PolicyConfig:
    """The shipped household, read afresh from SHIPPED_CONFIG on each call.
    A file whose fingerprint is not SHIPPED_FINGERPRINT is refused, so that
    a drifted file fails the corpus run and the benchmark, which would
    otherwise check it against itself."""
    config = PolicyConfig.load(SHIPPED_CONFIG)
    if (fingerprint := config.fingerprint()) != SHIPPED_FINGERPRINT:
        raise ConfigError(f"{SHIPPED_CONFIG}: fingerprint {fingerprint} is not the shipped {SHIPPED_FINGERPRINT}")
    return config
