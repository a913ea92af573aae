"""Every request class a config can meet, derived from the config, and the
whole grid decided on the engine and on the reference (reference_engine.py).

A decision reads a finite set of facts: the requester, the object, the
effective zone, the open cool-down windows, the room, two context flags and
the object's personal tag. Over one config each takes few values:

- every roster user and one id the roster lacks;
- every catalog object and one id the catalog lacks;
- for each object, the config's tags, and each designator's tag on it where
  that tag is taken and gives the object another entry;
- the requester's own windows: none, or one opened by a request for the
  first catalog object of each flagged class, or several;
- one sample per zone, from `validate_zone_table`'s probe points;
- every room a category rule names, and one no rule names;
- the four pairs of `adult_present` and `verbal_affirmation`.

Each class is decided from the state its tags and openers leave, restored
before every request, so no class's decision depends on the one before.
"""

import functools
from itertools import combinations, product

from fetchguard import ContextSnapshot, DecisionEngine, EmotionSample, FetchRequest, zone_of
from fetchguard.emotion import _probes
from reference_engine import initial_state, reference_step
from test_reference_engine import CONFIGS

FLAGGED = ("dangerous", "mind_altering")
#: The openers' time, and the grid's, before any window can close.
OPENED_AT, ASKED_AT = 0, 1
#: The openers' room and flags: no rule's room and neither flag, so some
#: openers are denied, and their windows open all the same.
OPENER_CONTEXT = ("nowhere", False, False)


def fresh_id(taken, stem):
    return next(f"{stem}{i}" for i in range(len(taken) + 1) if f"{stem}{i}" not in taken)


def zone_points(config):
    """One (valence, arousal) per zone, the first of the zone table's probe
    points it covers, from the greenest zone to the reddest."""
    table = config.zone_table
    v_probes = _probes(b for r in table.rects for b in (r.v_lo, r.v_hi))
    a_probes = _probes(b for r in table.rects for b in (r.a_lo, r.a_hi))
    points = {}
    for v, a in product(v_probes, a_probes):
        points.setdefault(zone_of(EmotionSample(v, a), table), (v, a))
    return [points[zone] for zone in sorted(points)]


def rooms(data):
    named = sorted({room for rule in data["category_rules"] for room in rule["appropriate_rooms"] or ()})
    return [*named, fresh_id(named, "room")]


def window_sets(data):
    """Each set of flagged classes, the empty one first, with the catalog
    object whose request opens each window."""
    opener = {}
    for obj in data["objects"]:
        opener.setdefault(obj["safety_class"], obj["object_id"])
    flagged = [cls for cls in FLAGGED if cls in opener]
    return [
        tuple((cls, opener[cls]) for cls in subset)
        for size in range(len(flagged) + 1)
        for subset in combinations(flagged, size)
    ]


def tag_states(data, state, object_id):
    """The tags to apply before a request for `object_id`: none, then each
    designator's tag that the reference takes and that gives the object an
    entry not already in the list."""
    designators = sorted({data["admin"]["owner"], *data["admin"]["designators"]})
    entries, states = [state["registry"].get(object_id)], [()]
    for actor in designators:
        taken, after = reference_step(data, state, {"type": "tag_personal", "actor": actor, "object": object_id})
        if taken and after["registry"].get(object_id) not in entries:
            entries.append(after["registry"].get(object_id))
            states.append((actor,))
    return states


def request_of(user, object_id, point, room, adult, verbal, now):
    return FetchRequest(
        "grid", user, object_id, EmotionSample(*point), ContextSnapshot(room, adult, verbal, now), now
    )


def event_of(user, object_id, point, room, adult, verbal, now):
    return {
        "type": "request", "user": user, "object": object_id, "valence": point[0], "arousal": point[1],
        "room": room, "adult_present": adult, "verbal_affirmation": verbal, "now": now,
    }


@functools.cache
def decided_grid(index):
    """The grid of CONFIGS[index], decided in plain mode on one engine.

    Returns the engine, whose intern table then holds every decision the
    grid gives; a dict from each class to the engine's verdict; and each
    class or opener whose decision block the reference writes otherwise,
    and each class's starting state that the reference holds otherwise,
    with both. A class is (user, object, tags, windows, zone rank, room,
    adult_present, verbal_affirmation), `tags` and `windows` being tuples
    of designators and of (class, opener) pairs."""
    data, config = CONFIGS[index]
    engine = DecisionEngine(config)
    start = initial_state(data)
    users = [u["user_id"] for u in data["users"]]
    objects = [o["object_id"] for o in data["objects"]]
    users.append(fresh_id(users, "stranger"))
    objects.append(fresh_id(objects, "ghost"))
    points = zone_points(config)
    contexts = list(product(enumerate(points), rooms(data), (True, False), (True, False)))
    grid, disagreements = {}, []
    tag_states_of = {object_id: tag_states(data, start, object_id) for object_id in objects}
    for object_id, user in product(objects, users):
        asked = [
            ((zone, room, adult, verbal), request_of(user, object_id, point, room, adult, verbal, ASKED_AT),
             event_of(user, object_id, point, room, adult, verbal, ASKED_AT))
            for (zone, point), room, adult, verbal in contexts
        ]
        for tags, windows in product(tag_states_of[object_id], window_sets(data)):
            engine.reset()
            state = start
            for actor in tags:
                engine.apply_tag(actor, object_id)
                _, state = reference_step(data, state, {"type": "tag_personal", "actor": actor, "object": object_id})
            for _, opener in windows:
                opened = (user, opener, points[0], *OPENER_CONTEXT, OPENED_AT)
                got = engine.decide(request_of(*opened))[0].to_dict()
                want, state = reference_step(data, state, event_of(*opened))
                if got != want:
                    disagreements.append((opened, got, want))
            pre_state = {"cooldowns": engine.cooldowns.snapshot(), "personal_registry": engine.registry.snapshot()}
            if pre_state != {"cooldowns": {"users": state["cooldowns"]}, "personal_registry": state["registry"]}:
                disagreements.append(((user, object_id, tags, windows), pre_state, state))
            for context, request, event in asked:
                engine.restore_state(pre_state)
                got = engine.decide(request)[0].to_dict()
                want = reference_step(data, state, event)[0]
                grid[(user, object_id, tags, windows, *context)] = got["verdict"]
                if got != want:
                    disagreements.append(((user, object_id, tags, windows, *context), got, want))
    return engine, grid, disagreements
