"""An independent statement of the five gates, to check the whole engine
against.

Written from README's gate list and its "Default policy tables", not from
the engine's code. It reads only the config's JSON form (`configs/*.json`,
or `PolicyConfig.to_dict()`), keeps its state in plain dicts and imports
nothing from fetchguard, so it shares no table or helper with the engine.
The reasons are the texts the engine writes.
"""

import math

MIN_ELIGIBLE_AGE = 5
ZONES = ("green", "yellow", "orange", "red")
FLAGGED = ("dangerous", "mind_altering")
RELATIONSHIP_PREFIX = {"household": "H", "family": "FA", "friend": "FR"}
CHILD_TIER = ("HC", "FAC", "FRC")
#: Gate 4 runs the matrix row's checks in this order.
ROW_CHECKS = ("verbal_affirmation", "adult_present", "room_appropriate")


def initial_state(config):
    """No cool-down records, and the configured personal tags."""
    return {
        "cooldowns": {},
        "registry": {
            tag["object_id"]: {"tagged_by": tag["tagged_by"], "grants": sorted(tag["grants"])}
            for tag in config["personal_tags"]
        },
    }


def reference_step(config, state, event):
    """One event after `state`: (outcome, next state). `state` is left as it
    is, and the next state shares every part the event did not change, so a
    step copies nothing it does not write.

    A `request` event carries the requester, object, emotion values, context
    and `now`, and may carry the context's `timestamp` (else it is `now`);
    its outcome is the decision as the engine's block writes it.
    A `tag_personal` or `grant` event's outcome is whether it was applied.
    The state is `{"cooldowns": {key: record}, "registry": {object: entry}}`
    in the shapes of the engine's whole snapshots.
    """
    cooldowns, registry = state["cooldowns"], state["registry"]
    users = {user["user_id"]: user for user in config["users"]}
    objects = {obj["object_id"]: obj for obj in config["objects"]}

    # Gate 5's registry: designators (the owner always among them) tag; the
    # first tag wins, and a re-tag by the same tagger drops its grants. Only
    # the tagger grants, and only to a registered user old enough to fetch.
    if event["type"] == "tag_personal":
        tag = registry.get(event["object"])
        designators = {config["admin"]["owner"], *config["admin"]["designators"]}
        if (
            event["object"] not in objects
            or event["actor"] not in designators
            or (tag is not None and tag["tagged_by"] != event["actor"])
        ):
            return False, state
        tagged = {"tagged_by": event["actor"], "grants": []}
        return True, {"cooldowns": cooldowns, "registry": {**registry, event["object"]: tagged}}
    if event["type"] == "grant":
        tag = registry.get(event["object"])
        grantee = users.get(event["grantee"])
        if grantee is None or grantee["age_years"] < MIN_ELIGIBLE_AGE or tag is None or tag["tagged_by"] != event["actor"]:
            return False, state
        granted = {"tagged_by": tag["tagged_by"], "grants": sorted({*tag["grants"], event["grantee"]})}
        return True, {"cooldowns": cooldowns, "registry": {**registry, event["object"]: granted}}

    user_id, object_id, now = event["user"], event["object"], event["now"]
    # A context stamped after `now` fails closed: it is read as its room with
    # neither an adult present nor a verbal affirmation.
    if event.get("timestamp", now) > now:
        event = {**event, "adult_present": False, "verbal_affirmation": False}
    obj, profile = objects.get(object_id), users.get(user_id)
    # One record per requester; under "roster", every requester the roster
    # lacks shares one record.
    key = "__unknown__" if config["cooldown_scope"] == "roster" and profile is None else user_id

    # Out-of-range samples clamp to the boundary; NaN goes to the most
    # cautious corner, valence -1 and arousal +1. The first rectangle that
    # holds the sample gives the zone.
    valence, arousal = event["valence"], event["arousal"]
    valence = -1.0 if isinstance(valence, float) and math.isnan(valence) else min(1.0, max(-1.0, valence))
    arousal = 1.0 if isinstance(arousal, float) and math.isnan(arousal) else min(1.0, max(-1.0, arousal))
    zone = next(
        rect["zone"]
        for rect in config["zone_table"]
        if rect["v_lo"] <= valence <= rect["v_hi"] and rect["a_lo"] <= arousal <= rect["a_hi"]
    )

    # Groups: under 5 is ineligible; an unregistered user or an unknown
    # relationship is U; otherwise relationship x tier (child 5-12, teen
    # from 13 to below the region's adult threshold, adult).
    if profile is None:
        group = "U"
    elif profile["age_years"] < MIN_ELIGIBLE_AGE:
        group = "ineligible"
    elif profile["relationship"] == "unknown":
        group = "U"
    elif profile["age_years"] <= 12:
        group = RELATIONSHIP_PREFIX[profile["relationship"]] + "C"
    elif profile["age_years"] < config["region"]["adult_age_threshold"]:
        group = RELATIONSHIP_PREFIX[profile["relationship"]] + "T"
    else:
        group = RELATIONSHIP_PREFIX[profile["relationship"]] + "A"

    allowed, violation = [], None
    record = cooldowns.get(key)
    if obj is None:
        violation = ("eligibility", f"unknown object {object_id!r}")
    elif group == "ineligible":
        violation = ("eligibility", f"requester is under the minimum age of {MIN_ELIGIBLE_AGE}")
    else:
        # Gate 2 reads the windows still open at `now`.
        active = sorted(cls for cls, expiry in record["active"].items() if expiry > now) if record is not None else []
        if "mind_altering" in active and obj["category"] == "vehicle":
            violation = ("ordering", "vehicle-category objects are unavailable during a mind-altering cool-down")
        else:
            # Gate 3: a same-class repeat moves the zone one step toward red,
            # then the row for (active cool-downs, class, zone) names the
            # groups that may receive the object.
            if obj["safety_class"] in active:
                zone = ZONES[min(len(ZONES) - 1, ZONES.index(zone) + 1)]
            row = next(
                row
                for row in config["matrix"]
                if row["request_class"] == obj["safety_class"] and row["zone"] == zone and sorted(row["cooldown"]) == active
            )
            allowed = sorted(row["allowed_groups"])
            rules = [rule for rule in config["category_rules"] if rule["category"] in ("*", obj["category"])]
            allergies = set(profile["allergies"]) if profile is not None else set()
            if group not in allowed:
                violation = ("emotion", f"group {group} may not receive a {obj['safety_class']} object in the {zone} zone")
            # Gate 4: the row's checks first, then each rule that applies
            # to the object's category, in config order.
            passes = {
                "verbal_affirmation": event["verbal_affirmation"],
                "adult_present": event["adult_present"],
                # A room passes unless an applying rule lists rooms without it.
                "room_appropriate": all(
                    rule["appropriate_rooms"] is None or event["room"] in rule["appropriate_rooms"] for rule in rules
                ),
            }
            for check in ROW_CHECKS:
                if violation is None and check in row["required_checks"] and not passes[check]:
                    violation = ("context", f"required check failed: {check}")
            for rule in rules:
                failing = [
                    check
                    for check, fails in (
                        ("allergy_screen", bool(set(obj["allergen_tags"]) & allergies)),
                        ("adult_present_for_child_tier", group in CHILD_TIER and not event["adult_present"]),
                        ("verbal_affirmation", not event["verbal_affirmation"]),
                    )
                    if check in rule["extra_checks"] and fails
                ]
                if rule["appropriate_rooms"] is not None and event["room"] not in rule["appropriate_rooms"]:
                    failing.append("room_appropriate")
                if violation is None and failing:
                    violation = ("category", f"category check failed: {failing[0]}")
            # Gate 5: a tagged object goes only to its tagger and grantees;
            # the owner has no backdoor.
            tag = registry.get(object_id)
            if violation is None and tag is not None and user_id != tag["tagged_by"] and user_id not in tag["grants"]:
                violation = ("personal", "personal object, access not granted")

    # Whatever the verdict, a known object drops the record's windows closed
    # at `now`, becomes the last request, and a flagged one (re-)arms its
    # class's window for a full duration. An unknown object changes nothing.
    if obj is not None:
        windows = {cls: expiry for cls, expiry in record["active"].items() if expiry > now} if record is not None else {}
        if obj["safety_class"] in FLAGGED:
            windows[obj["safety_class"]] = now + config["durations"][obj["safety_class"] + "_s"]
        cooldowns = {**cooldowns, key: {"last_requested": object_id, "active": windows}}

    policy, reason = violation or ("none", "no policy violation")
    decision = {
        "verdict": "deny" if violation else "allow",
        "deciding_policy": policy,
        "reason": reason,
        "effective_zone": zone,
        "allowed_groups_at_leaf": allowed,
    }
    return decision, {"cooldowns": cooldowns, "registry": registry}
