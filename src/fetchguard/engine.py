"""Compose the policies into one behaviour tree and decide fetch requests.

One engine instance serves one household. Each request is one tick of the
tree; the knowledge step looks up the requester and object and clamps the
emotion sample, the five policy gates (eligibility, ordering, emotion,
category/context, personal) pass or record the deciding violation, and each
leaf the walk reaches writes its event into a trace that can be replayed
bit-for-bit against the same configuration. A request's types are checked when it is built, so
decide() takes any request that exists. A trace records only the state its
decision reads, so its size and cost do not grow with household history.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import c_make_encoder, encode_basestring_ascii

from .bt import (
    Action,
    Condition,
    FAILURE,
    Fallback,
    Node,
    NodeStatus,
    Repeat,
    SUCCESS,
    Sequence,
    validate_tree,
)
from .config import PolicyConfig
from .emotion import EmotionSample, Zone, escalate, zone_of
from .errors import ConfigError, FetchguardError, PermissionDeniedError, ReplayError
from .formats import GATES, as_written, check_fixed_facts
from .matrix import MatrixEntry, MatrixKey, category_checks, matrix_lookup
from .model import (
    GROUP_BY_TEXT,
    INT_BOUND,
    ContextSnapshot,
    Instant,
    MIN_ELIGIBLE_AGE,
    ObjectSpec,
    Relationship,
    SafetyClass,
    UserGroup,
    UserProfile,
    classify_user_group,
    member,
    require_type,
    require_writable,
)
from .ordering import CooldownState, Restriction, ordering_restrictions
from .privacy import PersonalRegistry

ALLOW = "allow"
DENY = "deny"

#: Policy stages in evaluation order; trace events follow this order.
STAGES = tuple(stage for stage, _ in GATES)

#: Version of the traces decide() writes. README's table says what each
#: version wrote; formats.py rebuilds the older ones for verify_trace.
TRACE_VERSION = 6

#: Age assumed for unregistered requesters; only its being >= 5 matters,
#: since unknown relationships classify to U at any eligible age.
_ASSUMED_UNKNOWN_AGE = 100


#: The settings of every trace's bytes. They skip the cycle check: trace dicts
#: are trees, and parsed JSON cannot hold a cycle.
_SETTINGS = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False)

if c_make_encoder is None:
    canonical_json = _SETTINGS.encode
else:
    # Built once with those settings; JSONEncoder.encode builds it anew on
    # every call. Its default() words the refusal of a value JSON cannot hold.
    _encode = c_make_encoder(
        None, _SETTINGS.default, encode_basestring_ascii, _SETTINGS.indent, _SETTINGS.key_separator,
        _SETTINGS.item_separator, _SETTINGS.sort_keys, _SETTINGS.skipkeys, _SETTINGS.allow_nan,
    )

    def canonical_json(value) -> str:
        return "".join(_encode(value, 0))


#: Traces are strict JSON, so a non-finite sensor value is written as one of
#: these strings and read back from it.
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _sensor_to_json(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def _sensor_from_token(text: str) -> float:
    if text not in _NON_FINITE:
        raise ValueError(f"sensor value {text!r} is neither a number nor a non-finite token")
    return _NON_FINITE[text]


@dataclass(frozen=True)
class FetchRequest:
    request_id: str
    user_id: str
    object_id: str
    emotion: EmotionSample
    context: ContextSnapshot
    now: Instant

    def __post_init__(self):
        # One test of the exact types and the int's size; require_type and
        # require_writable word the refusal.
        if not (
            type(self.request_id) is str
            and type(self.user_id) is str
            and type(self.object_id) is str
            and type(self.emotion) is EmotionSample
            and type(self.context) is ContextSnapshot
            and type(self.now) is int
            and abs(self.now) < INT_BOUND
        ):
            require_type("request_id", self.request_id, str)
            require_type("user_id", self.user_id, str)
            require_type("object_id", self.object_id, str)
            require_type("emotion", self.emotion, EmotionSample)
            require_type("context", self.context, ContextSnapshot)
            require_writable("now", require_type("now", self.now, int))

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "user_id": self.user_id,
            "object_id": self.object_id,
            "emotion": {
                "valence": _sensor_to_json(self.emotion.valence),
                "arousal": _sensor_to_json(self.emotion.arousal),
            },
            "context": {
                "room": self.context.room,
                "adult_present": self.context.adult_present,
                "verbal_affirmation": self.context.verbal_affirmation,
                "timestamp": self.context.timestamp,
            },
            "now": self.now,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FetchRequest":
        # Which of two faults a refusal names depends on the order of these
        # reads and checks; keep it.
        emotion, context = data["emotion"], data["context"]
        request_id, user_id, object_id = data["request_id"], data["user_id"], data["object_id"]
        valence = emotion["valence"]
        if isinstance(valence, str):
            valence = _sensor_from_token(valence)
        arousal = emotion["arousal"]
        if isinstance(arousal, str):
            arousal = _sensor_from_token(arousal)
        return cls(
            request_id,
            user_id,
            object_id,
            EmotionSample(valence, arousal),
            ContextSnapshot(
                context["room"], context["adult_present"], context["verbal_affirmation"], context["timestamp"]
            ),
            data["now"],
        )


@dataclass(frozen=True)
class Decision:
    verdict: str
    deciding_policy: str
    reason: str
    effective_zone: Zone
    allowed_groups_at_leaf: frozenset[UserGroup]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "deciding_policy": self.deciding_policy,
            "reason": self.reason,
            "effective_zone": self.effective_zone.as_str(),
            "allowed_groups_at_leaf": sorted(self.allowed_groups_at_leaf),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Decision":
        """Refuses a block the engine would not write (a zone or group that
        is no member's text, a repeated or unsorted group), so equal
        decisions mean equal blocks."""
        verdict, policy, reason = data["verdict"], data["deciding_policy"], data["reason"]
        zone = Zone.from_str(data["effective_zone"])
        texts = data["allowed_groups_at_leaf"]
        try:
            groups = frozenset(map(GROUP_BY_TEXT.__getitem__, texts))
        except (KeyError, TypeError):
            # member() words the refusal for the first text that is no
            # group's; a block that cannot be iterated raises the same
            # TypeError again.
            groups = frozenset([member(GROUP_BY_TEXT, g) for g in texts])
        # Every key to_dict writes has been read, and it writes the zone's
        # own text, so the block is what it would write unless it holds
        # another key or its groups in another form.
        if len(data) != 5 or sorted(groups) != texts:
            raise ValueError(f"decision {data!r} is not in the form the engine writes")
        return cls(verdict, policy, reason, zone, groups)


@dataclass
class DecisionTrace:
    """Full audit record of one decision; replaying it against the same
    config fingerprint must reproduce the identical decision and events.
    A trace without a trace_version is version 1 and is written back
    without one, so its bytes survive a read and a write; every other key
    is required, and a key to_dict would not write (any other key, or an
    explicit trace_version 1) is refused.

    A trace straight from decide() holds the request as one dict, both as
    `request` and as the knowledge_check event's echo, so an edit to one
    in memory is an edit to both, and to_json writes its text once."""

    request_id: str
    config_fingerprint: str
    audit_all: bool
    request: dict
    pre_state: dict
    warnings: list[str]
    events: list[dict]
    decision: Decision
    trace_version: int = TRACE_VERSION

    def to_dict(self) -> dict:
        data = {
            "request_id": self.request_id,
            "config_fingerprint": self.config_fingerprint,
            "audit_all": self.audit_all,
            "request": self.request,
            "pre_state": self.pre_state,
            "warnings": self.warnings,
            "events": self.events,
            "decision": self.decision.to_dict(),
        }
        if self.trace_version != 1:
            data["trace_version"] = self.trace_version
        return data

    def to_json(self) -> str:
        data = self.to_dict()
        events = self.events
        first = events[0] if type(events) is list and events else None
        # An identity test: an equal copy may be written otherwise (1 for 1.0).
        if (
            type(first) is dict and len(first) == 2 and first.get("request") is self.request
            and first.get("node") == "knowledge_check"
        ):
            # The echo is the request itself: the rest is written with the
            # mark in both places, then the request's text is put in them.
            marked = {**data, "events": [_MARK_ECHO, *events[1:]], "request": _MARK}
            try:
                parts = canonical_json(marked).split(_MARK_TEXT)
            except (TypeError, ValueError, RecursionError):
                # Refused below, in the order the whole trace is written in.
                parts = ()
            if len(parts) == 3:
                return canonical_json(self.request).join(parts)
        return canonical_json(data)

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTrace":
        version = data.get("trace_version", 1)
        if type(version) is not int or not 1 <= version <= TRACE_VERSION:
            raise ValueError(f"unknown trace_version {version!r}")
        request_id, fingerprint, audit_all = data["request_id"], data["config_fingerprint"], data["audit_all"]
        if type(audit_all) is not bool:
            require_type("audit_all", audit_all, bool)
        trace = cls(
            request_id,
            fingerprint,
            audit_all,
            data["request"],
            data["pre_state"],
            data["warnings"],
            data["events"],
            Decision.from_dict(data["decision"]),
            version,
        )
        # Every key to_dict writes has been read, so a line holds another
        # key only if it holds more keys than that.
        written = _V1_KEYS if version == 1 else _KEYS
        if len(data) != len(written):
            extra = data.keys() - written
            raise ValueError(f"keys the engine does not write: {sorted(extra)}")
        return trace


#: The keys to_dict writes; a version 1 line has no trace_version.
_KEYS = frozenset(f.name for f in fields(DecisionTrace))
_V1_KEYS = _KEYS - {"trace_version"}
#: Stands in for a fresh trace's request while to_json writes the rest of
#: it. A trace with some other text that writes the mark's text is written
#: the general way.
_MARK = "\x00request"
_MARK_TEXT = canonical_json(_MARK)
_MARK_ECHO = {"node": "knowledge_check", "request": _MARK}


@dataclass(slots=True)
class _EvalState:
    """Everything one request's tick reads and works out; the tree is ticked
    on it. The request is read where it lies; the knowledge step adds the
    requester's profile and the clamped emotion, and each gate adds what it
    derives."""

    request: FetchRequest
    #: The request as traces write it, built once by the knowledge step: it
    #: is both that step's echo and the trace's `request`.
    echo: dict | None = None
    profile: UserProfile | None = None
    emotion: EmotionSample | None = None
    known_user: bool = True
    obj: ObjectSpec | None = None
    group: UserGroup | None = None
    was_clamped: bool = False
    base_zone: Zone | None = None
    effective_zone: Zone | None = None
    active: frozenset[SafetyClass] = frozenset()
    restriction: Restriction | None = None
    matrix_entry: MatrixEntry | None = None
    failed_stage: str | None = None
    violation: tuple[str, str] | None = None
    warnings: list[str] = field(default_factory=list)
    #: The trace events, appended by each leaf as it runs.
    events: list[dict] = field(default_factory=list)


class DecisionEngine:
    """Single-writer decision engine for one household.

    decide() calls are strictly serialized; distinct households get distinct
    engine instances and share nothing mutable.
    """

    def __init__(self, config: PolicyConfig, audit_all: bool = False):
        report = config.validate()
        if not report.ok:
            raise ConfigError("invalid policy configuration:\n" + report.render())
        self.config = config
        self.audit_all = audit_all
        self.fingerprint = config.fingerprint()
        #: The ids a roster-scoped cool-down state keeps records of their own for.
        self._roster = frozenset(u.user_id for u in config.users)
        #: (stage, its `<stage>_ok` node, its evaluator), in STAGES order.
        self._stages = tuple((stage, f"{stage}_ok", getattr(self, f"_eval_{stage}")) for stage in STAGES)
        self.tree = self._build_tree()
        validate_tree(self.tree)
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Back to the configured initial state (fresh cool-downs, initial
        personal tags)."""
        self.cooldowns = CooldownState(scope=self.config.cooldown_scope, roster=self._roster)
        registry = PersonalRegistry()
        for tag in self.config.personal_tags:
            registry.tag_personal(self.config.admin, tag.tagged_by, tag.object_id)
            for grantee in sorted(tag.grants):
                registry.grant_access(tag.tagged_by, tag.object_id, grantee)
        self.registry = registry

    def restore_state(self, pre_state: dict) -> None:
        """Install a pre-state as decide() writes it. Only its cool-down
        records and registry are read, so a pre-state as trace versions 2 to
        5 wrote it, with the cool-down scope and board_primed, restores too;
        verify_trace checks those two (formats.check_fixed_facts)."""
        # Both restores run before either is installed, so a pre-state that
        # fails to restore leaves the engine as it was.
        cooldowns = CooldownState.restore(
            pre_state["cooldowns"], scope=self.config.cooldown_scope, roster=self._roster
        )
        registry = PersonalRegistry.restore(pre_state["personal_registry"])
        self.cooldowns, self.registry = cooldowns, registry

    # -- registry operations (scenario events) -------------------------------

    def apply_tag(self, actor: str, object_id: str) -> None:
        if self.config.object_by_id(object_id) is None:
            raise ConfigError(f"cannot tag unknown object {object_id!r}")
        self.registry.tag_personal(self.config.admin, actor, object_id)

    def apply_grant(self, actor: str, object_id: str, grantee: str) -> None:
        user = self.config.user_by_id(grantee)
        if user is None:
            raise ConfigError(f"cannot grant to unregistered user {grantee!r}")
        if user.age_years < MIN_ELIGIBLE_AGE:
            raise PermissionDeniedError(f"grantee {grantee!r} is under the minimum age")
        self.registry.grant_access(actor, object_id, grantee)

    # -- tree construction ----------------------------------------------------

    def _build_tree(self) -> Node:
        children: list[Node] = [
            Action("knowledge_check", self._do_knowledge),
            Action("blackboard_update", self._do_blackboard_update),
        ]
        for (_, gate_name), (stage, ok_name, evaluate) in zip(GATES, self._stages):
            children.append(Fallback(gate_name, self._gate_leaves(stage, ok_name, evaluate)))
        children.append(Action("accept", lambda st: SUCCESS))
        return Repeat("per_request", Sequence("decision_sequence", children))

    def _gate_leaves(self, stage: str, ok_name: str, evaluate) -> list[Node]:
        violation_name = f"{stage}_violation"

        def check(st: _EvalState) -> bool:
            event, violation = evaluate(st)
            event["node"] = ok_name
            st.events.append(event)
            if violation is not None:
                st.failed_stage, st.violation = stage, violation
            return violation is None

        def record_violation(st: _EvalState) -> NodeStatus:
            st.events.append({"node": violation_name})
            return FAILURE

        return [Condition(ok_name, check), Action(violation_name, record_violation)]

    # -- leaf effects ----------------------------------------------------------

    def _do_knowledge(self, st: _EvalState) -> NodeStatus:
        req = st.request
        profile = self.config.user_by_id(req.user_id)
        st.known_user = profile is not None
        if profile is None:
            st.warnings.append(
                f"unknown user {req.user_id!r}: treated as unknown relationship"
            )
            profile = UserProfile(req.user_id, _ASSUMED_UNKNOWN_AGE, Relationship.UNKNOWN)
        st.profile = profile
        st.obj = self.config.object_by_id(req.object_id)
        st.emotion, st.was_clamped = req.emotion.clamped()
        if st.was_clamped:
            st.warnings.append("emotion sample outside [-1,1]^2: clamped to the boundary")
        st.base_zone = zone_of(st.emotion, self.config.zone_table)
        echo = st.echo = req.to_dict()
        st.events.append({"node": "knowledge_check", "request": echo})
        return SUCCESS

    def _do_blackboard_update(self, st: _EvalState) -> NodeStatus:
        # The node keeps the name traces record; it reads the requester's
        # last request for the trace.
        last = self.cooldowns.last_requested(st.request.user_id)
        st.events.append({"node": "blackboard_update", "last_request": last})
        return SUCCESS

    # -- stage evaluators --------------------------------------------------------
    # Each returns (trace-event inputs, violation-or-None) for one request's
    # state, in a fresh dict that becomes the event once its node is set, so
    # no input is named node, outcome or audit. The inputs leave out what the
    # trace holds elsewhere: the request (echoed by knowledge_check), the last
    # request (blackboard_update), the cool-downs and escalation steps
    # (ordering_ok) and the matrix row's required checks (emotion_ok).

    def _eval_eligibility(self, st: _EvalState):
        details: dict = {"known_user": st.known_user, "known_object": st.obj is not None}
        if st.obj is None:
            return details, ("eligibility", f"unknown object {st.request.object_id!r}")
        st.group = classify_user_group(st.profile, self.config.region)
        details["group"] = st.group
        if st.group is UserGroup.INELIGIBLE:
            return details, (
                "eligibility",
                f"requester is under the minimum age of {MIN_ELIGIBLE_AGE}",
            )
        return details, None

    def _eval_ordering(self, st: _EvalState):
        st.active = self.cooldowns.active_cooldowns(st.request.user_id, st.request.now)
        st.restriction = ordering_restrictions(st.active, st.obj)
        details = {
            "active_cooldowns": sorted(st.active),
            "vehicle_ban": st.restriction.vehicle_ban,
            "zone_escalation_steps": st.restriction.escalation_steps,
        }
        if st.restriction.vehicle_ban:
            return details, (
                "ordering",
                "vehicle-category objects are unavailable during a mind-altering cool-down",
            )
        return details, None

    def _eval_emotion(self, st: _EvalState):
        steps = st.restriction.escalation_steps if st.restriction else 0
        st.effective_zone = escalate(st.base_zone, steps)
        request_class = st.obj.safety_class
        key = MatrixKey(st.active, request_class, st.effective_zone)
        entry = st.matrix_entry = matrix_lookup(self.config.matrix, key)
        # Fresh lists, so that no trace shares one with the config.
        details = {
            "valence": st.emotion.valence,
            "arousal": st.emotion.arousal,
            "clamped": st.was_clamped,
            "base_zone": st.base_zone.as_str(),
            "effective_zone": st.effective_zone.as_str(),
            "request_class": request_class,
            "allowed_groups": list(entry.group_texts),
            "required_checks": list(entry.check_texts),
        }
        if st.group not in entry.allowed_groups:
            return details, (
                "emotion",
                f"group {st.group} may not receive a {request_class} "
                f"object in the {st.effective_zone.as_str()} zone",
            )
        return details, None

    def _eval_category_context(self, st: _EvalState):
        entry = st.matrix_entry
        details: dict = {"category": st.obj.category}
        result = category_checks(
            entry.required_checks, self.config.category_rules, st.obj, st.group, st.request.context, st.profile
        )
        if result.passed:
            return details, None
        details["failed_check"] = result.failed_check
        if result.failed_rule_category is None:
            return details, ("context", f"required check failed: {result.failed_check}")
        details["failed_rule_category"] = result.failed_rule_category
        return details, ("category", f"category check failed: {result.failed_check}")

    def _eval_personal(self, st: _EvalState):
        ok = self.registry.personal_check(st.request.user_id, st.request.object_id)
        details = {
            "object_tagged": self.registry.is_tagged(st.request.object_id),
            "access": "ok" if ok else "denied",
        }
        if not ok:
            # Reason deliberately names no users: explanations must not leak
            # who tagged the object.
            return details, ("personal", "personal object, access not granted")
        return details, None

    # -- deciding --------------------------------------------------------------

    def decide(self, request: FetchRequest) -> tuple[Decision, DecisionTrace]:
        # Only the state this decision reads.
        pre_state = {
            "cooldowns": self.cooldowns.snapshot(request.user_id),
            "personal_registry": self.registry.snapshot(request.object_id),
        }
        st = _EvalState(request)
        status = self.tree.tick(st)

        if status is SUCCESS:
            verdict, deciding, reason = ALLOW, "none", "no policy violation"
        else:
            verdict = DENY
            deciding, reason = st.violation or (
                "none",
                "decision tree failed without a recorded violation",
            )
        # knowledge_check always sets the base zone. Zone.GREEN is falsy
        # (IntEnum 0), so an explicit None check here.
        effective_zone = st.effective_zone if st.effective_zone is not None else st.base_zone
        allowed = st.matrix_entry.allowed_groups if st.matrix_entry is not None else frozenset()
        decision = Decision(verdict, deciding, reason, effective_zone, allowed)

        if self.audit_all and st.failed_stage is not None:
            st.events.extend(self._audit_events(st))

        # Cool-down bookkeeping happens after the verdict and is the same for
        # both verdicts; it is a decision's only write to the cool-down
        # state, and drops the requester's closed windows. Unknown objects
        # have no safety class and leave the state untouched.
        if st.obj is not None:
            self.cooldowns.on_granted(request.user_id, st.obj, request.now, self.config.durations)
        else:
            st.warnings.append("cool-down state untouched: unknown object")

        # The tick's state is dropped on return, so its warnings and events
        # lists are the trace's own.
        trace = DecisionTrace(
            request.request_id, self.fingerprint, self.audit_all, st.echo, pre_state, st.warnings, st.events, decision
        )
        return decision, trace

    def _audit_events(self, st: _EvalState) -> list[dict]:
        """In audit mode, evaluate the stages after the failed one purely
        for the record; the verdict is already fixed."""
        start = STAGES.index(st.failed_stage) + 1
        events = []
        for _, ok_name, evaluate in self._stages[start:]:
            try:
                event, violation = evaluate(st)
                outcome = "success" if violation is None else "failure"
            except Exception:
                event = {"note": "not evaluable after the deciding violation"}
                outcome = "skipped"
            event["node"], event["outcome"], event["audit"] = ok_name, outcome, True
            events.append(event)
        return events


def redecide(trace: DecisionTrace, config: PolicyConfig) -> tuple[Decision, DecisionTrace]:
    """The one replay step: a recorded request decided again from its pre-state.

    The config keeps one replay engine of its own, built on first use and
    restored whole for every trace, so no state carries over from one trace
    to the next, and, like decide(), this serves one caller at a time.
    Refuses with ReplayError when the config fingerprint differs from the
    trace's (anything else would not be an audit), or when the recorded
    request or pre-state cannot be read back."""
    if config.fingerprint() != trace.config_fingerprint:
        raise ReplayError("config fingerprint does not match the trace")
    try:
        request = FetchRequest.from_dict(trace.request)
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"recorded request cannot be read: {exc!r}") from exc
    engine = config._replayer
    try:
        check_fixed_facts(trace.pre_state, trace.trace_version, config.cooldown_scope)
        engine.restore_state(trace.pre_state)
    except (AttributeError, FetchguardError, KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"recorded pre_state cannot be restored: {exc!r}") from exc
    engine.audit_all = trace.audit_all
    try:
        return engine.decide(request)
    except (FetchguardError, TypeError, ValueError) as exc:
        # An edited trace can hold values decide() was never meant to see.
        raise ReplayError(f"recorded request cannot be decided again: {exc!r}") from exc


def replay(trace: DecisionTrace, config: PolicyConfig) -> Decision:
    """Re-decide a recorded request from its recorded pre-state (redecide).

    Raises ReplayError when the config fingerprint differs from the trace's
    or the trace cannot be replayed."""
    return redecide(trace, config)[0]


@dataclass
class VerifyResult:
    ok: bool
    mismatches: list[str]
    decision: Decision | None


def verify_trace(trace: DecisionTrace, config: PolicyConfig) -> VerifyResult:
    """Replay and compare everything: request id, the request as the re-run
    writes it, final decision, event stream, warnings and the pre-state,
    which must be exactly the slice the decision reads. The pre-state is
    compared as a value: its restore has already refused every leaf of a
    type the engine does not write, so 1, 1.0 and True cannot stand in for
    one another. The events and pre-state of an older trace are compared in
    the shape its version wrote (formats.as_written).

    Any tampering with the recorded snapshots shows up as a mismatch, and a
    trace that cannot be replayed at all fails with one named mismatch. All
    verifies on one config share that config's replay engine (redecide)."""
    try:
        decision, fresh = redecide(trace, config)
    except ReplayError as exc:
        return VerifyResult(False, [str(exc)], None)
    mismatches = []
    # The re-run takes its id from the recorded request, so the line's own
    # id, which explain --request looks lines up by, is compared here.
    if fresh.request_id != trace.request_id:
        mismatches.append("request_id differs from the recorded request")
    if fresh.request != trace.request:
        mismatches.append("request differs from the re-run's request")
    if decision != trace.decision:
        mismatches.append("final decision differs from the recorded decision")
    events, pre_state = as_written(fresh, trace)
    if events != trace.events:
        mismatches.append("event stream differs from the recorded events")
    if fresh.warnings != trace.warnings:
        mismatches.append("warnings differ from the recorded warnings")
    if pre_state != trace.pre_state:
        mismatches.append("pre_state differs from the recorded pre_state")
    return VerifyResult(not mismatches, mismatches, decision)
