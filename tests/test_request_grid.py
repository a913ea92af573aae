"""Every request class of each household in CONFIGS, decided whole
(request_grid.py): the engine agrees with the reference on every class, the
four tightening laws hold between every two classes they relate, and random
streams on the same engine meet no decision the grid did not."""

import random

import pytest

from fetchguard import DENY, FetchguardError
from request_grid import decided_grid, request_of, window_sets
from test_reference_engine import CONFIGS, random_stream

INDICES = pytest.mark.parametrize(
    "index", range(len(CONFIGS)), ids=[f"{d['cooldown_scope']}-{len(d['personal_tags'])}-tags" for d, _ in CONFIGS]
)
POLICIES = {"none", "eligibility", "ordering", "emotion", "category", "context", "personal"}


@INDICES
def test_the_engine_agrees_with_the_reference_on_every_class(index):
    engine, grid, disagreements = decided_grid(index)
    assert disagreements[:3] == []
    # Every gate decides some class, and both verdicts are given.
    assert {d.deciding_policy for d in engine._decisions.values()} == POLICIES
    assert set(grid.values()) == {"allow", "deny"}


@INDICES
def test_the_four_laws_hold_between_every_two_classes(index):
    # A denied class stays denied in a worse zone, with more windows open,
    # and with either context flag gone false.
    data, _ = CONFIGS[index]
    _, grid, _ = decided_grid(index)
    windows_of = window_sets(data)
    zones = 1 + max(cls[4] for cls in grid)
    broken = []
    for cls, verdict in grid.items():
        if verdict != DENY:
            continue
        user, object_id, tags, windows, zone, room, adult, verbal = cls
        tighter = [(user, object_id, tags, windows, worse, room, adult, verbal) for worse in range(zone + 1, zones)]
        tighter += [
            (user, object_id, tags, more, zone, room, adult, verbal) for more in windows_of if set(windows) < set(more)
        ]
        tighter += [(user, object_id, tags, windows, zone, room, False, verbal)] if adult else []
        tighter += [(user, object_id, tags, windows, zone, room, adult, False)] if verbal else []
        broken += [(cls, other) for other in tighter if grid[other] != DENY]
    assert broken[:3] == []


# The two households; their other scopes key the same windows otherwise,
# which changes no class.
@pytest.mark.parametrize("index", [0, 1], ids=["roster-1-tags", "roster-2-tags"])
def test_random_streams_meet_no_decision_the_grid_did_not(index):
    # Once the grid is decided, the engine's intern table holds every
    # decision a known object can get; a stream that adds one found a class
    # the grid misses.
    assert CONFIGS[index][0]["cooldown_scope"] == "roster"
    engine, _, _ = decided_grid(index)
    interned = dict(engine._decisions)
    rnd, decided = random.Random(index), 0
    while decided < 20_000:
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
    assert engine._decisions == interned
