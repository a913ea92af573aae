"""The allow-matrix and category-level context rules.

The matrix is total: one row for every (cool-down profile, requested safety
class, effective zone) triple, 4 x 3 x 4 = 48 rows. Each row lists the user
groups that may receive the object and the context checks they must clear.
The validator enforces the tightening laws: a worse zone never admits more
groups, arming another cool-down never admits more groups, and neither
lets a group through on fewer checks. Gate 4 runs a row's checks, then the
category rules (`category_checks`).

The shipped household's matrix (configs/default.json) follows one design
rule: each cool-down row is the base (no cool-down) row at the zone
escalated once per active class that does NOT match the request class.
Same-class tightening already happens upstream, where the ordering stage
escalates the effective zone before the lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .emotion import Zone, escalate
from .errors import ConfigError
from .model import (
    CHILD_TIER,
    ContextSnapshot,
    ObjectSpec,
    Report,
    SafetyClass,
    UserGroup,
    UserProfile,
)

MATRIX_CHECKS = ("verbal_affirmation", "adult_present", "room_appropriate")
_EVERY_CHECK = frozenset(MATRIX_CHECKS)
CATEGORY_CHECKS = ("allergy_screen", "adult_present_for_child_tier", "verbal_affirmation")

ALL_PROFILES: tuple[frozenset[SafetyClass], ...] = (
    frozenset(),
    frozenset({SafetyClass.DANGEROUS}),
    frozenset({SafetyClass.MIND_ALTERING}),
    frozenset({SafetyClass.DANGEROUS, SafetyClass.MIND_ALTERING}),
)
ALL_CLASSES = (SafetyClass.DANGEROUS, SafetyClass.MIND_ALTERING, SafetyClass.NEITHER)
ALL_ZONES = (Zone.GREEN, Zone.YELLOW, Zone.ORANGE, Zone.RED)

ALL_GROUPS = frozenset(g for g in UserGroup if g is not UserGroup.INELIGIBLE)


class MatrixKey(NamedTuple):
    cooldown_profile: frozenset[SafetyClass]
    request_class: SafetyClass
    zone: Zone


#: The 48 keys a lookup can ask for; any other row is unreachable.
ALL_KEYS = tuple(MatrixKey(p, c, z) for p in ALL_PROFILES for c in ALL_CLASSES for z in ALL_ZONES)
_INDEX = {key: i for i, key in enumerate(ALL_KEYS)}
#: The tightening walk as (law, key, one-step tighter key), each key given
#: by its index in ALL_KEYS: the next worse zone, then one more active
#: class. escalate saturates at red, and a class already active adds
#: nothing, so those neighbours are the row itself.
_WALK = tuple(
    (law, i, _INDEX[tighter])
    for i, (p, c, z) in enumerate(ALL_KEYS)
    for law, tighter in (
        ("zone-monotonicity", MatrixKey(p, c, escalate(z, 1))),
        ("cooldown-monotonicity", MatrixKey(p | {SafetyClass.DANGEROUS}, c, z)),
        ("cooldown-monotonicity", MatrixKey(p | {SafetyClass.MIND_ALTERING}, c, z)),
    )
)


@dataclass(frozen=True)
class MatrixEntry:
    """One row's groups and checks, each a frozenset. The row also carries
    both as the sorted texts traces write (`group_texts`, `check_texts`),
    worked out once here; they are not fields, so equality, repr and the
    fingerprint ignore them."""

    allowed_groups: frozenset[UserGroup]
    required_checks: frozenset[str] = frozenset()

    def __post_init__(self):
        unknown = self.required_checks - _EVERY_CHECK
        if unknown:
            raise ConfigError(f"unknown matrix checks: {sorted(unknown)}")
        object.__setattr__(self, "group_texts", tuple(sorted(self.allowed_groups)))
        object.__setattr__(self, "check_texts", tuple(sorted(self.required_checks)))


Matrix = Mapping[MatrixKey, MatrixEntry]


@dataclass(frozen=True)
class CategoryRule:
    """Extra context demands attached to an object category ('*' = all)."""

    category: str
    extra_checks: frozenset[str] = frozenset()
    appropriate_rooms: frozenset[str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "extra_checks", frozenset(self.extra_checks))
        if self.appropriate_rooms is not None:
            object.__setattr__(self, "appropriate_rooms", frozenset(self.appropriate_rooms))
        unknown = self.extra_checks - set(CATEGORY_CHECKS)
        if unknown:
            raise ConfigError(f"unknown category checks: {sorted(unknown)}")

    def admits_room(self, room: str) -> bool:
        """A rule that declares no rooms admits every room."""
        return self.appropriate_rooms is None or room in self.appropriate_rooms


def matrix_lookup(matrix: Matrix, key: tuple) -> MatrixEntry:
    """The row for a MatrixKey or a plain (profile, class, zone) tuple,
    which hashes and compares equal to it."""
    try:
        return matrix[key]
    except KeyError:
        raise ConfigError(f"matrix has no row for {_key_str(MatrixKey(*key))}") from None


def validate_matrix(matrix: Matrix) -> Report:
    """Totality, no unreachable rows, no Ineligible, no checks on dead
    (empty-group) rows, and the tightening laws. Each law is checked one
    step at a time, against the next worse zone and against one more active
    class; subset is transitive, so that covers every pair. A dead row
    counts as demanding every check, so a dead row between two live ones
    does not break that chain."""
    report = Report()
    for key in ALL_KEYS:
        if key not in matrix:
            report.add("missing-key", f"no row for {_key_str(key)}")
    if not report.ok:
        return report

    for key, entry in matrix.items():
        if key not in _INDEX:
            report.add("unreachable-row", f"row {_key_str(key)} can never be looked up")
        if UserGroup.INELIGIBLE in entry.allowed_groups:
            report.add("ineligible-group", f"row {_key_str(key)} admits the ineligible group")
        if not entry.allowed_groups and entry.required_checks:
            report.add("dead-branch-checks", f"row {_key_str(key)} has checks but no groups")

    groups = [matrix[key].allowed_groups for key in ALL_KEYS]
    # A row that admits nobody is as strict as a row can be.
    demanded = [matrix[key].required_checks if g else _EVERY_CHECK for key, g in zip(ALL_KEYS, groups)]
    for law, i, j in _WALK:
        if not groups[j] <= groups[i]:
            report.add(law, f"row {_key_str(ALL_KEYS[j])} admits groups that row {_key_str(ALL_KEYS[i])} does not")
        if not demanded[j] >= demanded[i]:
            tighter, looser = _key_str(ALL_KEYS[j]), _key_str(ALL_KEYS[i])
            report.add("check-monotonicity", f"row {tighter} lacks a check row {looser} demands")
    return report


def _key_str(key: MatrixKey) -> str:
    profile = ",".join(sorted(key.cooldown_profile)) or "none"
    return f"cooldown={profile} class={key.request_class} zone={key.zone.as_str()}"


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    failed_check: str | None = None
    failed_rule_category: str | None = None


#: Every passing gate-4 result is this one.
_PASSED = CheckResult(True)


def category_checks(
    required_checks: frozenset[str],
    rules: Iterable[CategoryRule],
    obj: ObjectSpec,
    requester_group: UserGroup,
    context: ContextSnapshot,
    requester: UserProfile,
) -> CheckResult:
    """Gate 4: the matrix row's checks in MATRIX_CHECKS order, which fail
    with no rule category, then every rule that applies to the object's
    category, in rule order. The first failing check decides; nothing to
    check is a vacuous pass."""
    category = obj.category
    # A rule applies to its own category, or to every one as "*".
    rules = [rule for rule in rules if rule.category == category or rule.category == "*"]
    for check in MATRIX_CHECKS:
        if check not in required_checks:
            continue
        if check == "room_appropriate":
            # Defers to whatever rooms the rules declare; with no declared
            # rooms it passes vacuously.
            passed = all(rule.admits_room(context.room) for rule in rules)
        else:
            # The other row checks are named after the context flag they read.
            passed = getattr(context, check)
        if not passed:
            return CheckResult(False, check)
    for rule in rules:
        if "allergy_screen" in rule.extra_checks:
            hits = obj.allergen_tags & requester.allergies
            if hits:
                return CheckResult(False, "allergy_screen", rule.category)
        if "adult_present_for_child_tier" in rule.extra_checks:
            if requester_group in CHILD_TIER and not context.adult_present:
                return CheckResult(False, "adult_present_for_child_tier", rule.category)
        if "verbal_affirmation" in rule.extra_checks:
            if not context.verbal_affirmation:
                return CheckResult(False, "verbal_affirmation", rule.category)
        if not rule.admits_room(context.room):
            return CheckResult(False, "room_appropriate", rule.category)
    return _PASSED
