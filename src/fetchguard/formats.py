"""The trace formats decide() no longer writes.

verify_trace compares an older line's events in the shape its version wrote
them, rebuilt from the re-run alone, never from the recorded line, so an
edit to anything an older version wrote in its events still shows. Each
step turns version N's events into version N-1's, given the re-run; STEPS
runs them newest first, so a new format adds one step at its top. This
module does not import the engine.
"""

from __future__ import annotations

from dataclasses import replace

from .emotion import EmotionSample
from .model import require_type

#: The policy gates in evaluation order, as (stage, gate node). The engine
#: builds its tree from this one table.
GATES = (
    ("eligibility", "eligibility_gate"),
    ("ordering", "ordering_check"),
    ("emotion", "emotion_check"),
    ("category_context", "category_context_check"),
    ("personal", "personal_check"),
)

#: The policy of each node. Version 1 and 2 traces wrote it into every event;
#: from version 3 on the node name gives it.
_POLICY_OF = {
    "per_request": "structure",
    "decision_sequence": "structure",
    "knowledge_check": "knowledge",
    "blackboard_update": "knowledge",
    "accept": "decision",
    **{name: stage for stage, gate in GATES for name in (gate, f"{stage}_ok", f"{stage}_violation")},
}

#: What a version 4 check wrote again from an earlier check's inputs, as
#: (input, earlier node, its input): both read the same cool-downs and the
#: same matrix row.
_COPIED = {
    "emotion_ok": (
        ("cooldown_profile", "ordering_ok", "active_cooldowns"),
        ("escalation_steps", "ordering_ok", "zone_escalation_steps"),
    ),
    "category_context_ok": (("matrix_checks", "emotion_ok", "required_checks"),),
}

#: The warning the knowledge step gives for a sample outside [-1,1]^2. From
#: version 7 on it alone says the sample was clamped.
CLAMP_WARNING = "emotion sample outside [-1,1]^2: clamped to the boundary"


def unknown_user_warning(user_id: str) -> str:
    """The warning the knowledge step gives for a requester the config does
    not list. From version 7 on it alone says the requester is unknown."""
    return f"unknown user {user_id!r}: treated as unknown relationship"


#: The keys a version 6 event writes beside its inputs: its node and, in the
#: audit pass, its outcome and audit mark.
RESERVED = ("node", "outcome", "audit")

#: The gate Fallback a version 3 trace wrote after a leaf event, by (leaf,
#: outcome): a passing check ends its gate, and a failing one hands over to
#: the violation leaf, which ends it.
_GATE_ENDED_BY = {
    **{(f"{stage}_ok", "success"): gate for stage, gate in GATES},
    **{(f"{stage}_violation", "failure"): gate for stage, gate in GATES},
}


def _failed(event: dict, nodes: set[str]) -> bool:
    """Whether a check failed: in the audit pass its outcome says so, and
    outside it its violation event follows it."""
    return event.get("outcome") == "failure" or event["node"].replace("_ok", "_violation") in nodes


def _to_version_6(events: list[dict], fresh) -> list[dict]:
    """Version 7 events as version 6 wrote them, in new dicts.

    eligibility_ok also said whether the requester was known (the re-run
    gave no unknown-user warning) and the object (it has a group);
    ordering_ok whether a vehicle ban held and personal_ok whether access
    was ok or denied, each as its check failed; and emotion_ok the request's
    sample, clamped, and whether it was (the re-run gave the clamp warning).
    A skipped audit stage recorded only its note."""
    nodes = {event["node"] for event in events}
    written = []
    for event in events:
        node = event["node"]
        if event.get("outcome") == "skipped":
            written.append(event)
            continue
        if node == "eligibility_ok":
            known_user = unknown_user_warning(fresh.request["user_id"]) not in fresh.warnings
            event = {**event, "known_user": known_user, "known_object": "group" in event}
        elif node == "ordering_ok":
            event = {**event, "vehicle_ban": _failed(event, nodes)}
        elif node == "emotion_ok":
            sample, _ = EmotionSample.from_dict(fresh.request["emotion"]).clamped()
            clamped = CLAMP_WARNING in fresh.warnings
            event = {**event, "valence": sample.valence, "arousal": sample.arousal, "clamped": clamped}
        elif node == "personal_ok":
            event = {**event, "access": "denied" if _failed(event, nodes) else "ok"}
        written.append(event)
    return written


def _to_version_5(events: list[dict], fresh) -> list[dict]:
    """Version 6 events as version 5 wrote them: an event's inputs nested
    under `inputs`, beside the keys RESERVED names. A violation held only
    its node, as it does now."""
    written = []
    for event in events:
        if not event["node"].endswith("_violation"):
            nested = {key: event[key] for key in RESERVED if key in event}
            nested["inputs"] = {key: value for key, value in event.items() if key not in RESERVED}
            event = nested
        written.append(event)
    return written


def inputs_of(event: dict, version: int) -> dict:
    """An event's inputs in the shape its version wrote them: under `inputs`
    before version 6, and beside the keys RESERVED names from version 6 on.
    Refuses with ValueError an event in the other version's shape."""
    if (version >= 6) == ("inputs" in event):
        raise ValueError(f"event {event.get('node')!r} is not in the shape of a version {version} trace")
    return event if version >= 6 else event["inputs"]


def _to_version_4(events: list[dict], fresh) -> list[dict]:
    """Version 5 events as version 4 wrote them, in new dicts.

    Every event outside the audit pass had an outcome: only the violation
    and the check just before it failed. A violation held the deciding
    policy and reason, knowledge_check its mode (refresh exactly when the
    board was primed), and emotion_ok and category_context_ok the inputs
    _COPIED names, in the audit pass too. A skipped audit stage recorded
    only its note."""
    inputs_by_node, written_events = {}, []
    for event in events:
        node, inputs = event["node"], event.get("inputs", {})
        inputs_by_node[node] = inputs
        if event.get("outcome") == "skipped":
            written_events.append(event)
            continue
        extra = {name: inputs_by_node[source][key] for name, source, key in _COPIED.get(node, ())}
        written = {"outcome": "success", **event, "inputs": {**inputs, **extra}}
        if node == "knowledge_check":
            written["inputs"]["mode"] = "refresh" if fresh.pre_state["board_primed"] else "ingest"
        elif node.endswith("_violation"):
            written["inputs"] = {"policy": fresh.decision.deciding_policy, "reason": fresh.decision.reason}
            written["outcome"] = written_events[-1]["outcome"] = "failure"
        written_events.append(written)
    return written_events


def _to_version_3(events: list[dict], fresh) -> list[dict]:
    """Version 4 events as version 3 wrote them.

    Version 3 also wrote each gate's Fallback after the leaf that ended it,
    accept when every gate passed, decision_sequence and per_request before
    any audit events, and knowledge_check's copy of the warnings the
    knowledge step gave: every top-level warning but the one decide() adds
    last, after the tick, when the object is unknown."""
    known_object = next(e["inputs"]["known_object"] for e in events if e["node"] == "eligibility_ok")
    warnings = fresh.warnings if known_object else fresh.warnings[:-1]
    written, audit, outcome = [], [], "success"
    for event in events:
        if event.get("audit"):
            audit.append(event)
            continue
        if event["node"] == "knowledge_check":
            event = {**event, "inputs": {**event["inputs"], "warnings": warnings}}
        written.append(event)
        gate = _GATE_ENDED_BY.get((event["node"], event["outcome"]))
        if gate is not None:
            outcome = event["outcome"]
            written.append({"node": gate, "outcome": outcome})
    if outcome == "success":
        written.append({"node": "accept", "outcome": outcome})
    written += [{"node": "decision_sequence", "outcome": outcome}, {"node": "per_request", "outcome": outcome}]
    return written + audit


def _to_version_2(events: list[dict], fresh) -> list[dict]:
    """Version 3 events as version 2 wrote them: each event named its
    policy, every event had inputs, and the gates repeated the request
    fields and the last request. Version 1 wrote the same events."""
    request = fresh.request
    context = request["context"]
    last = next(e["inputs"]["last_request"] for e in events if e["node"] == "blackboard_update")
    repeated = {
        "blackboard_update": {"now": request["now"]},
        "eligibility_ok": {"user_id": request["user_id"], "object_id": request["object_id"]},
        "ordering_ok": {"last_request": last},
        "category_context_ok": {
            name: context[name] for name in ("room", "adult_present", "verbal_affirmation")
        },
    }
    written = []
    for event in events:
        inputs = dict(event.get("inputs", {}))
        # An audit stage that could not be evaluated recorded only its note.
        if event["outcome"] != "skipped":
            inputs.update(repeated.get(event["node"], {}))
        written.append({**event, "policy": _POLICY_OF[event["node"]], "inputs": inputs})
    return written


#: The down-steps, newest first, each with the version it writes.
STEPS = ((6, _to_version_6), (5, _to_version_5), (4, _to_version_4), (3, _to_version_3), (2, _to_version_2))


def _events_as_written(fresh, version: int) -> list[dict]:
    """A re-run's events as a version `version` trace wrote them: every
    step down to that version, in turn."""
    events = fresh.events
    for writes, step in STEPS:
        if writes < version:
            break
        events = step(events, fresh)
    return events


def check_fixed_facts(pre_state: dict, version: int, scope: str) -> None:
    """Refuse a pre-state of a line before version 6 whose cool-down `scope`
    is not the config's, or whose board_primed, whether the engine had
    decided since it was reset or restored, is not a bool. Those versions
    wrote both in every pre-state, the whole-household one of version 1
    too; no decision reads either, and as_written puts both back."""
    if version < 6:
        if pre_state["cooldowns"]["scope"] != scope:
            raise ValueError(f"cool-down scope {pre_state['cooldowns']['scope']!r} is not the config's")
        require_type("board_primed", pre_state["board_primed"], bool)


def as_written(fresh, recorded) -> tuple[list[dict], dict]:
    """The re-run's events and pre-state as the recorded line's version
    wrote them. A version 1 pre-state held the whole household, which the
    re-run's slice cannot rebuild, so it is taken as recorded and shows no
    edit. Before version 6, the scope and board_primed check_fixed_facts
    refused unless they were the config's and a bool are put back as
    recorded; version 4's knowledge_check mode is rebuilt from board_primed.
    A version 6 pre-state is the re-run's, and so are a version 7 line's
    events."""
    version = recorded.trace_version
    if version >= 6:
        return _events_as_written(fresh, version), fresh.pre_state
    recorded_state, sliced = recorded.pre_state, fresh.pre_state
    pre_state = {
        "cooldowns": {"scope": recorded_state["cooldowns"]["scope"], **sliced["cooldowns"]},
        "personal_registry": sliced["personal_registry"],
        "board_primed": recorded_state["board_primed"],
    }
    events = _events_as_written(replace(fresh, pre_state=pre_state), version)
    return events, recorded_state if version == 1 else pre_state
