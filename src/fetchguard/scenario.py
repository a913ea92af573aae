"""Timestamped scenario scripts and the simulated-clock runner.

A scenario is an ordered list of events (set_emotion, set_context, request,
tag_personal, grant) with non-decreasing integer timestamps. Parsing is
fail-fast: a malformed script raises before anything executes. A parsed
script holds the event dicts it was given, checked where they lie, not a copy;
each value must be of its exact JSON type, so a true or false is no number.
Requests may carry an `expect` of "allow" or "deny"; mismatches are
collected, not raised. The runner hands each trace to `emit` as it is decided
and keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .config import PolicyConfig
from .emotion import EmotionSample
from .engine import ALLOW, DENY, DecisionEngine, DecisionTrace, FetchRequest
from .errors import FetchguardError, ScenarioParseError
from .model import INT_BOUND, MAX_INT_DIGITS, ContextSnapshot, load_json

_REQUIRED_FIELDS = {
    "set_emotion": {"user": (str,), "valence": (int, float), "arousal": (int, float)},
    "set_context": {"room": (str,), "adult_present": (bool,), "verbal_affirmation": (bool,)},
    "request": {"user": (str,), "object": (str,)},
    "tag_personal": {"actor": (str,), "object": (str,)},
    "grant": {"actor": (str,), "object": (str,), "grantee": (str,)},
}

#: A tuple, so that an unhashable type is refused as unknown, not raised on.
EVENT_TYPES = tuple(_REQUIRED_FIELDS)

#: Conservative context assumed until a scenario sets one.
DEFAULT_ROOM = "unspecified"


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    #: The event dicts as given, each checked by parse_scenario.
    events: tuple[dict, ...]


def parse_scenario(data: dict, fallback_name: str = "scenario") -> ScenarioScript:
    if not isinstance(data, dict) or "events" not in data:
        raise ScenarioParseError("scenario must be an object with an 'events' list")
    name = data.get("name", fallback_name)
    if not isinstance(name, str):
        raise ScenarioParseError("'name' must be a string")
    raw_events = data["events"]
    if not isinstance(raw_events, list):
        raise ScenarioParseError("'events' must be a list")
    last_t = 0
    for i, raw in enumerate(raw_events):
        where = f"event #{i}"
        if not isinstance(raw, dict):
            raise ScenarioParseError(f"{where}: not an object")
        etype = raw.get("type")
        if etype not in EVENT_TYPES:
            raise ScenarioParseError(f"{where}: unknown event type {etype!r}")
        t = raw.get("t")
        if type(t) is not int or t < 0:
            raise ScenarioParseError(f"{where}: 't' must be a non-negative integer")
        if t >= INT_BOUND:  # bounded as a request's ints are, so that its trace writes
            raise ScenarioParseError(f"{where}: 't' has more than {MAX_INT_DIGITS} digits, which no trace can write")
        if t < last_t:
            raise ScenarioParseError(f"{where}: timestamps must be non-decreasing")
        last_t = t
        _check_fields(etype, raw, where)
    return ScenarioScript(name=name, events=tuple(raw_events))


def _check_fields(etype: str, fields: dict, where: str) -> None:
    for key, types in _REQUIRED_FIELDS[etype].items():
        if key not in fields:
            raise ScenarioParseError(f"{where}: {etype} needs field {key!r}")
        if type(fields[key]) not in types:
            raise ScenarioParseError(f"{where}: field {key!r} has the wrong type")
        if etype == "set_emotion" and key != "user":
            try:  # run_scenario takes a sensor value as a float
                float(fields[key])
            except OverflowError:
                raise ScenarioParseError(f"{where}: field {key!r} is beyond float range") from None
    if etype == "request":
        if "expect" in fields and fields["expect"] not in (ALLOW, DENY):
            raise ScenarioParseError(f"{where}: expect must be 'allow' or 'deny'")
        extra = set(fields) - {"t", "type", "user", "object", "expect"}
    else:
        extra = set(fields) - {"t", "type", *_REQUIRED_FIELDS[etype]}
    if extra:
        raise ScenarioParseError(f"{where}: unknown fields {sorted(extra)}")


def load_scenario(path: str | Path) -> ScenarioScript:
    return parse_scenario(load_json(path, ScenarioParseError), fallback_name=Path(path).stem)


@dataclass
class Mismatch:
    request_id: str
    expected: str
    got: str


@dataclass
class RunResult:
    scenario: str
    allowed: int = 0
    denied: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario}: {self.allowed + self.denied} request(s), "
            f"{self.allowed} allowed, {self.denied} denied, "
            f"{len(self.mismatches)} expectation mismatch(es)"
        ]
        for m in self.mismatches:
            lines.append(f"  mismatch {m.request_id}: expected {m.expected}, got {m.got}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def run_scenario(
    config: PolicyConfig, script: ScenarioScript, emit: Callable[[DecisionTrace], object], audit_all: bool = False
) -> RunResult:
    """Execute events in order on a simulated clock starting at 0, calling
    emit(trace) as each request is decided."""
    engine = DecisionEngine(config, audit_all=audit_all)
    result = RunResult(scenario=script.name)
    emotions: dict[str, EmotionSample] = {}
    context = ContextSnapshot(
        room=DEFAULT_ROOM, adult_present=False, verbal_affirmation=False, timestamp=0
    )
    seq = 0
    for event in script.events:
        if event["type"] == "set_emotion":
            emotions[event["user"]] = EmotionSample(float(event["valence"]), float(event["arousal"]))
        elif event["type"] == "set_context":
            context = ContextSnapshot(
                room=event["room"],
                adult_present=event["adult_present"],
                verbal_affirmation=event["verbal_affirmation"],
                timestamp=event["t"],
            )
        elif event["type"] == "tag_personal":
            try:
                engine.apply_tag(event["actor"], event["object"])
            except FetchguardError as exc:
                result.notes.append(f"t={event['t']} tag_personal rejected: {exc}")
        elif event["type"] == "grant":
            try:
                engine.apply_grant(event["actor"], event["object"], event["grantee"])
            except FetchguardError as exc:
                result.notes.append(f"t={event['t']} grant rejected: {exc}")
        elif event["type"] == "request":
            user = event["user"]
            request = FetchRequest(
                request_id=f"{script.name}:{seq:03d}",
                user_id=user,
                object_id=event["object"],
                emotion=emotions.get(user, EmotionSample(0.0, 0.0)),
                context=context,
                now=event["t"],
            )
            seq += 1
            decision, trace = engine.decide(request)
            emit(trace)
            if decision.verdict == ALLOW:
                result.allowed += 1
            else:
                result.denied += 1
            expect = event.get("expect")
            if expect is not None and expect != decision.verdict:
                result.mismatches.append(
                    Mismatch(request_id=request.request_id, expected=expect, got=decision.verdict)
                )
    return result

