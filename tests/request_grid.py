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

tests/golden/grid.json pins the bytes of the shipped config's grid lines, in
plain and in audit_all mode (Tally). `PYTHONPATH=src python
tests/request_grid.py` prints what this engine writes in its place, for a
trace version the file lacks.
"""

import functools
import hashlib
import json
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

from fetchguard import ContextSnapshot, Decision, DecisionEngine, EmotionSample, FetchguardError, FetchRequest, zone_of
from fetchguard.emotion import _probes
from reference_engine import initial_state, reference_step
from test_reference_engine import CONFIGS, random_stream

#: The digests of the shipped config's grid lines, by trace version and mode.
GRID_DIGESTS = Path(__file__).resolve().parent / "golden" / "grid.json"

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


def stream_decisions(engine, rnd, count):
    """The engine after `count` decisions on random streams (random_stream),
    each decided from its configured state, its tag and grant writes applied
    as they come."""
    decided = 0
    while decided < count:
        engine.reset()
        for event in random_stream(rnd):
            if event["type"] == "request":
                point = event["valence"], event["arousal"]
                flags = event["adult_present"], event["verbal_affirmation"]
                engine.decide(request_of(event["user"], event["object"], point, event["room"], *flags, event["now"]))
                decided += 1
                continue
            try:
                if event["type"] == "tag_personal":
                    engine.apply_tag(event["actor"], event["object"])
                else:
                    engine.apply_grant(event["actor"], event["object"], event["grantee"])
            except FetchguardError:
                pass
    return engine


class Tally:
    """The SHA-256 over lines, one newline after each, their count, and the
    count per verdict and deciding policy, added one line at a time."""

    def __init__(self):
        self._sha, self.lines, self.counts = hashlib.sha256(), 0, {}

    def add(self, decision: Decision, line: str) -> None:
        self._sha.update(f"{line}\n".encode())
        self.lines += 1
        by_policy = self.counts.setdefault(decision.verdict, {})
        by_policy[decision.deciding_policy] = by_policy.get(decision.deciding_policy, 0) + 1

    def as_dict(self) -> dict:
        return {"sha256": self._sha.hexdigest(), "lines": self.lines, "counts": self.counts}


class Grid(NamedTuple):
    """A config's grid decided in plain mode on one engine (decided_grid)."""

    #: The engine, whose intern tables then hold every decision and event
    #: the grid gives.
    engine: DecisionEngine
    #: Each class's Decision.
    decisions: dict
    #: Each class or opener whose decision block the reference writes
    #: otherwise, and each class's starting state that the reference holds
    #: otherwise, with both.
    disagreements: list
    #: Each starting state, with the classes decided from it and their
    #: requests, in the grid's class order.
    starts: list
    #: The plain lines' Tally.
    plain: Tally


@functools.cache
def decided_grid(index) -> Grid:
    """The grid of CONFIGS[index], decided in plain mode on one engine.

    A class is (user, object, tags, windows, zone rank, room, adult_present,
    verbal_affirmation), `tags` and `windows` being tuples of designators and
    of (class, opener) pairs."""
    data, config = CONFIGS[index]
    engine = DecisionEngine(config)
    start = initial_state(data)
    users = [u["user_id"] for u in data["users"]]
    objects = [o["object_id"] for o in data["objects"]]
    users.append(fresh_id(users, "stranger"))
    objects.append(fresh_id(objects, "ghost"))
    points = zone_points(config)
    contexts = list(product(enumerate(points), rooms(data), (True, False), (True, False)))
    grid, disagreements, starts, plain = {}, [], [], Tally()
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
            classes = []
            for context, request, event in asked:
                cls = (user, object_id, tags, windows, *context)
                engine.restore_state(pre_state)
                decision, trace = engine.decide(request)
                plain.add(decision, trace.to_json())
                got = decision.to_dict()
                want = reference_step(data, state, event)[0]
                grid[cls] = decision
                classes.append((cls, request))
                if got != want:
                    disagreements.append((cls, got, want))
            starts.append((pre_state, classes))
    return Grid(engine, grid, disagreements, starts, plain)


class AuditedGrid(NamedTuple):
    """A config's grid decided again in audit_all mode (audited_grid)."""

    #: The audit_all engine, whose intern table then holds every event the
    #: audit pass reaches too.
    engine: DecisionEngine
    #: The audit_all lines' Tally.
    tally: Tally
    #: Each class whose verdict or deciding policy differs from plain
    #: mode's, with both decisions.
    differ: list


@functools.cache
def audited_grid(index) -> AuditedGrid:
    """The grid of CONFIGS[index] decided again in audit_all mode, on one
    engine, from decided_grid's starting states."""
    grid = decided_grid(index)
    engine = DecisionEngine(CONFIGS[index][1], audit_all=True)
    tally, differ = Tally(), []
    for pre_state, classes in grid.starts:
        for cls, request in classes:
            engine.restore_state(pre_state)
            decision, trace = engine.decide(request)
            tally.add(decision, trace.to_json())
            plain = grid.decisions[cls]
            if (decision.verdict, decision.deciding_policy) != (plain.verdict, plain.deciding_policy):
                differ.append((cls, plain, decision))
    return AuditedGrid(engine, tally, differ)


if __name__ == "__main__":
    from fetchguard.engine import TRACE_VERSION

    print(json.dumps(
        {f"v{TRACE_VERSION}": {"plain": decided_grid(0).plain.as_dict(), "audit_all": audited_grid(0).tally.as_dict()}},
        indent=2, sort_keys=True,
    ))
