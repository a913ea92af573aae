"""Reference copies of gate 4 and the allow-matrix validator as they were
written before each got one home in `fetchguard.matrix`.

Gate 4 ran in two steps: the engine ran the matrix row's checks itself,
then handed the category rules to the old `category_checks`. The validator
enumerated the 48 keys in its own loop nests and checked the zone law over
every pair of zones; the check law, added later, is written the same way.
Kept independent of the production code so the two can be compared on
random inputs.
"""

from fetchguard import Report, SafetyClass, UserGroup
from fetchguard.matrix import ALL_CLASSES, ALL_PROFILES, ALL_ZONES, MATRIX_CHECKS, MatrixKey

#: The groups the child-tier rule holds to an adult's presence, stated here
#: rather than imported, so that the comparison does not share the rule.
CHILD_TIER = frozenset({UserGroup.HC, UserGroup.FAC, UserGroup.FRC})


def reference_category_checks(rules, obj, requester_group, context, requester):
    """(failed check, rule category) of the first failing rule check, or None."""
    for rule in rules:
        if rule.category not in ("*", obj.category):
            continue
        if "allergy_screen" in rule.extra_checks:
            if obj.allergen_tags & requester.allergies:
                return "allergy_screen", rule.category
        if "adult_present_for_child_tier" in rule.extra_checks:
            if requester_group in CHILD_TIER and not context.adult_present:
                return "adult_present_for_child_tier", rule.category
        if "verbal_affirmation" in rule.extra_checks:
            if not context.verbal_affirmation:
                return "verbal_affirmation", rule.category
        if not rule.admits_room(context.room):
            return "room_appropriate", rule.category
    return None


def reference_gate4(entry, rules, obj, group, context, profile):
    """(trace details, violation or None), as the engine's two steps gave them."""
    details = {"category": obj.category}
    for check in MATRIX_CHECKS:
        if check not in entry.required_checks:
            continue
        if check == "room_appropriate":
            passed = all(rule.admits_room(context.room) for rule in rules if rule.category in ("*", obj.category))
        else:
            passed = getattr(context, check)
        if not passed:
            details["failed_check"] = check
            return details, ("context", f"required check failed: {check}")
    failed = reference_category_checks(rules, obj, group, context, profile)
    if failed is not None:
        details["failed_check"], details["failed_rule_category"] = failed
        return details, ("category", f"category check failed: {failed[0]}")
    return details, None


def demanded(entry):
    """A row's checks; a row that admits nobody demands every check."""
    return entry.required_checks if entry.allowed_groups else frozenset(MATRIX_CHECKS)


def reference_validate_matrix(matrix):
    """Totality, then the tightening laws over every pair, no Ineligible
    and no checks on rows that admit nobody. A tighter row admits no group
    its looser row does not, and demands every check the looser row does."""
    report = Report()
    for profile in ALL_PROFILES:
        for cls in ALL_CLASSES:
            for zone in ALL_ZONES:
                if MatrixKey(profile, cls, zone) not in matrix:
                    report.add("missing-key", "")
    if not report.ok:
        return report
    for entry in matrix.values():
        if UserGroup.INELIGIBLE in entry.allowed_groups:
            report.add("ineligible-group", "")
        if not entry.allowed_groups and entry.required_checks:
            report.add("dead-branch-checks", "")
    for profile in ALL_PROFILES:
        for cls in ALL_CLASSES:
            for i, better in enumerate(ALL_ZONES):
                for worse in ALL_ZONES[i + 1 :]:
                    got_worse = matrix[MatrixKey(profile, cls, worse)]
                    got_better = matrix[MatrixKey(profile, cls, better)]
                    if not got_worse.allowed_groups <= got_better.allowed_groups:
                        report.add("zone-monotonicity", "")
                    if not demanded(got_worse) >= demanded(got_better):
                        report.add("check-monotonicity", "")
    for profile in ALL_PROFILES:
        for extra in (SafetyClass.DANGEROUS, SafetyClass.MIND_ALTERING):
            if extra in profile:
                continue
            for cls in ALL_CLASSES:
                for zone in ALL_ZONES:
                    with_extra = matrix[MatrixKey(profile | {extra}, cls, zone)]
                    without = matrix[MatrixKey(profile, cls, zone)]
                    if not with_extra.allowed_groups <= without.allowed_groups:
                        report.add("cooldown-monotonicity", "")
                    if not demanded(with_extra) >= demanded(without):
                        report.add("check-monotonicity", "")
    return report
