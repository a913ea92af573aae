"""Core vocabulary: users, groups, objects, safety classes, context snapshots.

All types are immutable value objects. Instants are integer seconds on the
injected scenario clock; no wall-clock time enters this package.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

from .errors import ConfigError

Instant = int

#: Python writes and reads an int of at most 4,300 digits by default
#: (sys.int_info.default_max_str_digits). A request's ints are kept one digit
#: shorter, so that a clock reading plus a cool-down duration of as many
#: digits still writes.
MAX_INT_DIGITS = 4299
INT_BOUND = 10**MAX_INT_DIGITS

MIN_ELIGIBLE_AGE = 5
CHILD_MAX_AGE = 12
MIN_ADULT_THRESHOLD = 14


def require_type(what: str, value, *types: type):
    """Refuse a value that is not one of `types`, without converting it;
    return it unchanged otherwise.

    A bool passes only where bool is asked for, although Python counts it
    as an int: a flag is not a clock reading or a sensor value.
    """
    if type(value) in types:
        return value
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{what} must be {names}, got {value!r}")
    return value


def require_writable(what: str, value):
    """Refuse an int that a trace could not write, naming `what`: its value
    cannot be printed either. Return the value unchanged otherwise."""
    if isinstance(value, int) and not -INT_BOUND < value < INT_BOUND:
        raise ValueError(f"{what} has more than {MAX_INT_DIGITS} digits, which no trace can write")
    return value


def canonical_encoder(allow_nan: bool):
    """What json.dumps(sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)
    writes, without the cycle check: what it writes is a tree."""
    settings = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=allow_nan, check_circular=False)
    if c_make_encoder is None:
        return settings.encode
    # Built once with those settings; JSONEncoder.encode builds it anew on
    # every call. Its default() words the refusal of a value JSON cannot hold.
    encode = c_make_encoder(
        None, settings.default, encode_basestring_ascii, settings.indent, settings.key_separator,
        settings.item_separator, settings.sort_keys, settings.skipkeys, settings.allow_nan,
    )
    return lambda value: "".join(encode(value, 0))


def load_json(path, error: type[Exception]):
    """A JSON file's value. A file that is not JSON, not UTF-8, or has an int
    of too many digits or too deep a nesting is refused with `error`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise error(f"cannot parse {path}: {exc}") from exc


class _Text(str, enum.Enum):
    """A member is its text: it equals, hashes, sorts, prints and
    JSON-encodes as the string it stands for, so a trace or config writes
    it as it is. Reading a text back still goes through member(), since
    the engine compares members with `is`."""

    __hash__ = str.__hash__
    __str__ = str.__str__
    __format__ = str.__format__
    __repr__ = str.__repr__


class Relationship(_Text):
    HOUSEHOLD = "household"
    FAMILY = "family"
    FRIEND = "friend"
    UNKNOWN = "unknown"


class SafetyClass(_Text):
    DANGEROUS = "dangerous"
    MIND_ALTERING = "mind_altering"
    NEITHER = "neither"


class UserGroup(_Text):
    HA = "HA"
    HT = "HT"
    HC = "HC"
    FAA = "FAA"
    FAT = "FAT"
    FAC = "FAC"
    FRA = "FRA"
    FRT = "FRT"
    FRC = "FRC"
    U = "U"
    INELIGIBLE = "ineligible"


#: Members by text, for reading a config or a trace back through member().
GROUP_BY_TEXT = {g.value: g for g in UserGroup}
CLASS_BY_TEXT = {c.value: c for c in SafetyClass}
RELATIONSHIP_BY_TEXT = {r.value: r for r in Relationship}


def member(by_text: dict, text):
    """The member one of the *_BY_TEXT tables holds for `text`. Any other
    value raises the ValueError that calling the enum raises, in its words."""
    try:
        return by_text[text]
    except (KeyError, TypeError):
        enum_name = type(next(iter(by_text.values()))).__qualname__
        raise ValueError(f"{text!r} is not a valid {enum_name}") from None


CHILD_TIER = frozenset({UserGroup.HC, UserGroup.FAC, UserGroup.FRC})

_GROUP_BY_REL_TIER = {
    (Relationship.HOUSEHOLD, "adult"): UserGroup.HA,
    (Relationship.HOUSEHOLD, "teen"): UserGroup.HT,
    (Relationship.HOUSEHOLD, "child"): UserGroup.HC,
    (Relationship.FAMILY, "adult"): UserGroup.FAA,
    (Relationship.FAMILY, "teen"): UserGroup.FAT,
    (Relationship.FAMILY, "child"): UserGroup.FAC,
    (Relationship.FRIEND, "adult"): UserGroup.FRA,
    (Relationship.FRIEND, "teen"): UserGroup.FRT,
    (Relationship.FRIEND, "child"): UserGroup.FRC,
}


@dataclass(frozen=True)
class Region:
    """Regional age rule. The adult threshold is 19 or 21 in the shipped
    defaults; anything below 14 is rejected outright."""

    name: str
    adult_age_threshold: int

    def __post_init__(self):
        if self.adult_age_threshold < MIN_ADULT_THRESHOLD:
            raise ConfigError(
                f"region {self.name!r}: adult_age_threshold must be >= "
                f"{MIN_ADULT_THRESHOLD}, got {self.adult_age_threshold}"
            )


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    age_years: int
    relationship: Relationship
    allergies: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.age_years < 0:
            raise ConfigError(f"user {self.user_id!r}: negative age")
        object.__setattr__(self, "allergies", frozenset(self.allergies))


@dataclass(frozen=True)
class ObjectSpec:
    object_id: str
    display_name: str
    safety_class: SafetyClass
    category: str
    allergen_tags: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "allergen_tags", frozenset(self.allergen_tags))


@dataclass(frozen=True)
class ContextSnapshot:
    """What the sensors said last: room, adult presence, and whether the user
    verbally affirmed the intended use."""

    room: str
    adult_present: bool
    verbal_affirmation: bool
    timestamp: Instant = 0

    def __post_init__(self):
        # One test of the exact types and the int's size; require_type and
        # require_writable word the refusal.
        if not (
            type(self.room) is str
            and type(self.adult_present) is bool
            and type(self.verbal_affirmation) is bool
            and type(self.timestamp) is int
            and abs(self.timestamp) < INT_BOUND
        ):
            require_type("context room", self.room, str)
            require_type("context adult_present", self.adult_present, bool)
            require_type("context verbal_affirmation", self.verbal_affirmation, bool)
            require_writable("context timestamp", require_type("context timestamp", self.timestamp, int))


def classify_user_group(profile: UserProfile, region: Region) -> UserGroup:
    """Derive the access group from age and relationship.

    Under-5s are ineligible no matter what; unknown relationships collapse
    to U for every age >= 5. The teen tier runs from 13 up to (but not
    including) the regional adult threshold.
    """
    if profile.age_years < MIN_ELIGIBLE_AGE:
        return UserGroup.INELIGIBLE
    if profile.relationship is Relationship.UNKNOWN:
        return UserGroup.U
    if profile.age_years <= CHILD_MAX_AGE:
        tier = "child"
    elif profile.age_years < region.adult_age_threshold:
        tier = "teen"
    else:
        tier = "adult"
    return _GROUP_BY_REL_TIER[(profile.relationship, tier)]


@dataclass(frozen=True)
class Finding:
    """One validation problem; a clean report is an empty list of these."""

    code: str
    message: str


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code: str, message: str) -> None:
        self.findings.append(Finding(code, message))

    def extend(self, other: "Report") -> None:
        self.findings.extend(other.findings)

    def codes(self) -> set[str]:
        return {f.code for f in self.findings}

    def render(self) -> str:
        return "\n".join(f"[{f.code}] {f.message}" for f in self.findings)


def validate_object_catalog(catalog: list[ObjectSpec]) -> Report:
    """Report duplicate object ids and empty categories."""
    report = Report()
    seen: set[str] = set()
    for obj in catalog:
        if obj.object_id in seen:
            report.add("duplicate-object-id", f"object id {obj.object_id!r} appears twice")
        seen.add(obj.object_id)
        if not obj.category:
            report.add("empty-category", f"object {obj.object_id!r} has an empty category")
    return report
