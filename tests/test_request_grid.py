"""Every request class of each household in CONFIGS, decided whole
(request_grid.py): the engine agrees with the reference on every class, the
four tightening laws hold between every two classes they relate, random
streams on the same engine meet no decision the grid did not, and the
shipped config's grid lines keep their committed bytes in both modes."""

import json
import random

import pytest

from fetchguard import DENY, default_config
from fetchguard.engine import TRACE_VERSION
from request_grid import GRID_DIGESTS, audited_grid, decided_grid, stream_decisions, window_sets
from test_reference_engine import CONFIG_IDS, CONFIGS

INDICES = pytest.mark.parametrize("index", range(len(CONFIGS)), ids=CONFIG_IDS)
POLICIES = {"none", "eligibility", "ordering", "emotion", "category", "context", "personal"}


@INDICES
def test_the_engine_agrees_with_the_reference_on_every_class(index):
    grid = decided_grid(index)
    assert grid.disagreements[:3] == []
    # An audit pass only adds events: class by class it decides as plain mode.
    assert audited_grid(index).differ[:3] == []
    # Every gate decides some class, and both verdicts are given.
    assert {d.deciding_policy for d in grid.engine._decisions.values()} == POLICIES
    assert {d.verdict for d in grid.decisions.values()} == {"allow", "deny"}


@INDICES
def test_the_four_laws_hold_between_every_two_classes(index):
    # A denied class stays denied in a worse zone, with more windows open,
    # and with either context flag gone false.
    data, _ = CONFIGS[index]
    grid = {cls: decision.verdict for cls, decision in decided_grid(index).decisions.items()}
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


# The two households; their other scope keys the same windows otherwise,
# which changes no class.
@pytest.mark.parametrize("index", [0, 1], ids=["roster-1-tags", "roster-2-tags"])
def test_random_streams_meet_no_decision_the_grid_did_not(index):
    # Once the grid is decided, the engine's intern table holds every
    # decision a known object can get; a stream that adds one found a class
    # the grid misses.
    assert CONFIGS[index][0]["cooldown_scope"] == "roster"
    engine = decided_grid(index).engine
    interned = dict(engine._decisions)
    stream_decisions(engine, random.Random(index), 20_000)
    assert engine._decisions == interned


def test_the_shipped_grid_keeps_its_committed_bytes_in_both_modes():
    # An audit pass only adds events: class by class it gives plain mode's
    # verdict and deciding policy. The digests pin every byte of the 26,624
    # lines of each mode, far more of what the engine can write than the
    # golden corpus holds.
    assert CONFIGS[0][1] == default_config()
    audited = audited_grid(0)
    assert audited.differ[:3] == []
    committed = json.loads(GRID_DIGESTS.read_text(encoding="utf-8"))[f"v{TRACE_VERSION}"]
    assert {"plain": decided_grid(0).plain.as_dict(), "audit_all": audited.tally.as_dict()} == committed
