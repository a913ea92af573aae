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

from dataclasses import dataclass, field, fields
from functools import cached_property
from json.encoder import encode_basestring_ascii
from math import inf

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
from .emotion import EmotionSample, Zone, _sensor_to_json, escalate, zone_of
from .errors import ConfigError, FetchguardError, PermissionDeniedError, ReplayError
from .formats import CLAMP_WARNING, GATES, as_written, check_fixed_facts, unknown_user_warning
from .matrix import MatrixEntry, category_checks, matrix_lookup
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
    canonical_encoder,
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
TRACE_VERSION = 7

#: Age assumed for unregistered requesters; only its being >= 5 matters,
#: since unknown relationships classify to U at any eligible age.
_ASSUMED_UNKNOWN_AGE = 100


#: The writer of every trace's bytes. Traces are strict JSON: a bare NaN or
#: +-inf is refused.
canonical_json = canonical_encoder(False)


def _read_only(self, *args, **kwargs):
    raise TypeError(f"an interned event's {type(self).__base__.__name__} is read-only")


class _List(list):
    """A list in an interned event; a copy, deep copy or pickle is plain."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return list, (list(self),)


class _Event(dict):
    """An event an engine interns (DecisionEngine._events). Read-only, so that
    no edit in memory reaches another trace or a later decision; a copy, deep
    copy or pickle is plain."""

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    @cached_property
    def text(self) -> str:
        """Its canonical JSON, written on first use: a verify writes none."""
        return canonical_json(self)

    def __reduce__(self):
        return dict, (dict(self),)


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
        # A finite value is written as it is; only NaN and +-inf are tokens.
        valence, arousal = self.emotion.valence, self.emotion.arousal
        return {
            "request_id": self.request_id,
            "user_id": self.user_id,
            "object_id": self.object_id,
            "emotion": {
                "valence": valence if -inf < valence < inf else _sensor_to_json(valence),
                "arousal": arousal if -inf < arousal < inf else _sensor_to_json(arousal),
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
        return cls(
            request_id,
            user_id,
            object_id,
            EmotionSample.from_dict(emotion),
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

    # The memo is not a field, so equality, hash, repr and replace ignore it.
    @cached_property
    def _block(self) -> str | None:
        """The block's canonical JSON, for a decision holding the exact types
        decide() gives it, which cannot change; None for any other."""
        if (
            type(self.verdict) is str and type(self.deciding_policy) is str and type(self.reason) is str
            and type(self.effective_zone) is Zone and type(self.allowed_groups_at_leaf) is frozenset
        ):
            return canonical_json(self.to_dict())
        return None

    @classmethod
    def from_dict(cls, data: dict) -> "Decision":
        """Refuses a block the engine would not write (a zone or group that
        is no member's text, a repeated or unsorted group), so equal
        decisions mean equal blocks. A block of exact texts read before
        gives the Decision already built for it (_DECODED)."""
        verdict, policy, reason = data["verdict"], data["deciding_policy"], data["reason"]
        zone_text, texts = data["effective_zone"], data.get("allowed_groups_at_leaf")
        # Exact texts only: JSON's true, 1 and 1.0 are equal keys, and each
        # must decode, and write back, as itself.
        key = None
        if (
            type(verdict) is str and type(policy) is str and type(reason) is str and type(zone_text) is str
            and type(texts) is list and all([type(text) is str for text in texts])
        ):
            key = (verdict, policy, reason, zone_text, tuple(texts))
            decision = _DECODED.get(key)
            if decision is not None and len(data) == 5:
                return decision
        zone = Zone.from_str(zone_text)
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
        decision = cls(verdict, policy, reason, zone, groups)
        if key is not None and len(_DECODED) < _DECODED_MAX:
            _DECODED[key] = decision
        return decision


#: The Decision each decision block of exact texts decodes to, keyed by the
#: block's five values; frozen, so one is shared by every trace read with
#: its block. A reason can name an unknown id, so the blocks a log holds are
#: not bounded by the config: once _DECODED_MAX are kept, no more are.
_DECODED: dict[tuple, Decision] = {}
_DECODED_MAX = 1024


@dataclass(slots=True)
class DecisionTrace:
    """Full audit record of one decision; replaying it against the same
    config fingerprint must reproduce the identical decision and events.
    A trace without a trace_version is version 1 and is written back
    without one, so its bytes survive a read and a write; every other key
    is required, and a key to_dict would not write (any other key, or an
    explicit trace_version 1) is refused.

    A trace straight from decide() holds the request as one dict, both as
    `request` and as the knowledge_check event's echo, so an edit to one
    in memory is an edit to both, and to_json writes its text once. Its
    other events are its engine's interned ones, read-only and written from
    the text each keeps, but for the audit pass's and a last request that
    is no catalog id."""

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
        events, request, decision = self.events, self.request, self.decision
        first = events[0] if type(events) is list and events else None
        # Identity and exact-type tests: an equal value of another type may
        # be written otherwise (1 for 1.0, 1 for True).
        if (
            type(first) is dict and len(first) == 2 and "request" in first and first["request"] is request
            and first.get("node") == "knowledge_check"
            and type(self.request_id) is str and type(self.config_fingerprint) is str
            and type(self.audit_all) is bool and type(self.trace_version) is int and self.trace_version != 1
            and type(decision) is Decision
        ):
            try:
                block = decision._block
                if block is not None:
                    # The line canonical_json(to_dict()) writes, keys in
                    # sorted order, with the request's text in both places.
                    text = canonical_json(request)
                    # Exactly an _Event: any other dict may hold anything.
                    rest = "".join([f",{e.text if type(e) is _Event else canonical_json(e)}" for e in events[1:]])
                    return (
                        f'{{"audit_all":{"true" if self.audit_all else "false"},'
                        f'"config_fingerprint":{encode_basestring_ascii(self.config_fingerprint)},'
                        f'"decision":{block},"events":[{{"node":"knowledge_check","request":{text}}}{rest}],'
                        f'"pre_state":{canonical_json(self.pre_state)},"request":{text},'
                        f'"request_id":{encode_basestring_ascii(self.request_id)},'
                        f'"trace_version":{self.trace_version},"warnings":{canonical_json(self.warnings)}}}'
                    )
            except (TypeError, ValueError, RecursionError):
                # Refused below, in the order the whole trace is written in.
                pass
        return canonical_json(self.to_dict())

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


@dataclass(slots=True)
class _EvalState:
    """Everything one request's tick reads and works out; the tree is ticked
    on it. The request is read where it lies; the knowledge step adds the
    requester's profile and the clamped emotion's zone, and each gate adds
    what it derives."""

    request: FetchRequest
    profile: UserProfile | None = None
    obj: ObjectSpec | None = None
    group: UserGroup | None = None
    base_zone: Zone | None = None
    #: The base zone until gate 3 escalates it; the decision writes it.
    effective_zone: Zone | None = None
    active: frozenset[SafetyClass] = frozenset()
    restriction: Restriction | None = None
    matrix_entry: MatrixEntry | None = None
    #: The context gate 4 reads: the request's, or, stamped after `now`, its
    #: room with both flags false.
    context: ContextSnapshot | None = None
    #: The index in STAGES of the stage whose gate failed.
    failed: int | None = None
    violation: tuple[str, str] | None = None
    warnings: list[str] = field(default_factory=list)
    #: The trace events, appended by each leaf as it runs; the first, the
    #: knowledge step's echo, holds the request as traces write it.
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
        #: One Decision per value decided on a known object, so each block is
        #: written once; bounded by the config.
        self._decisions: dict[tuple, Decision] = {}
        #: One _Event per event a leaf writes but the echo, keyed by every
        #: fact it writes; bounded by the config. Each gate's violation event
        #: is built with the gate, the others as decide() first writes them.
        self._events: dict[object, _Event] = {}
        #: The ids that keep cool-down records of their own under scope
        #: "roster"; None under "user", where every requester does.
        self._roster = frozenset(u.user_id for u in config.users) if config.cooldown_scope == "roster" else None
        #: (stage, its `<stage>_ok` node, its evaluator), in STAGES order.
        self._stages = tuple((stage, f"{stage}_ok", getattr(self, f"_eval_{stage}")) for stage in STAGES)
        self.tree = self._build_tree()
        validate_tree(self.tree)
        self.reset()

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Back to the configured initial state (fresh cool-downs, initial
        personal tags)."""
        self.cooldowns = CooldownState(self._roster)
        self.registry = PersonalRegistry()
        for tag in self.config.personal_tags:
            self.apply_tag(tag.tagged_by, tag.object_id)
            for grantee in sorted(tag.grants):
                self.apply_grant(tag.tagged_by, tag.object_id, grantee)

    def restore_state(self, pre_state: dict) -> None:
        """Install a pre-state as decide() writes it. Only its cool-down
        records and registry are read, so a pre-state as trace versions 2 to
        5 wrote it, with the cool-down scope and board_primed, restores too;
        verify_trace checks those two (formats.check_fixed_facts)."""
        # Both restores run before either is installed, so a pre-state that
        # fails to restore leaves the engine as it was.
        cooldowns = CooldownState.restore(pre_state["cooldowns"], self._roster)
        registry = PersonalRegistry.restore(pre_state["personal_registry"])
        self.cooldowns, self.registry = cooldowns, registry

    # -- registry operations (initial tags, scenario events) -----------------

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
        for i, (_, gate_name) in enumerate(GATES):
            children.append(Fallback(gate_name, self._gate_leaves(i)))
        children.append(Action("accept", lambda st: SUCCESS))
        return Repeat("per_request", Sequence("decision_sequence", children))

    def _gate_leaves(self, i: int) -> list[Node]:
        """The i-th stage's `<stage>_ok` condition and `<stage>_violation` action."""
        stage, ok_name, evaluate = self._stages[i]
        violation_event = self._events[f"{stage}_violation"] = _Event(node=f"{stage}_violation")

        def check(st: _EvalState) -> bool:
            event, violation = evaluate(st)
            st.events.append(event)
            if violation is not None:
                st.failed, st.violation = i, violation
            return violation is None

        def record_violation(st: _EvalState) -> NodeStatus:
            st.events.append(violation_event)
            return FAILURE

        return [Condition(ok_name, check), Action(violation_event["node"], record_violation)]

    # -- leaf effects ----------------------------------------------------------

    def _do_knowledge(self, st: _EvalState) -> NodeStatus:
        req = st.request
        profile = self.config.user_by_id(req.user_id)
        if profile is None:
            st.warnings.append(unknown_user_warning(req.user_id))
            profile = UserProfile(req.user_id, _ASSUMED_UNKNOWN_AGE, Relationship.UNKNOWN)
        st.profile = profile
        st.obj = self.config.object_by_id(req.object_id)
        emotion, clamped = req.emotion.clamped()
        if clamped:
            st.warnings.append(CLAMP_WARNING)
        context = st.context = req.context
        if context.timestamp > req.now:
            # A reading from after the decision's time fails closed.
            st.warnings.append(f"context stamped at {context.timestamp}, after now {req.now}: both flags read false")
            st.context = ContextSnapshot(context.room, False, False, context.timestamp)
        st.base_zone = st.effective_zone = zone_of(emotion, self.config.zone_table)
        st.events.append({"node": "knowledge_check", "request": req.to_dict()})
        return SUCCESS

    def _do_blackboard_update(self, st: _EvalState) -> NodeStatus:
        # The node keeps the name traces record; it reads the requester's
        # last request for the trace. A restored pre-state can hold any text
        # there, so only none or a catalog id is interned.
        last = self.cooldowns.last_requested(st.request.user_id)
        key = ("blackboard_update", last)
        event = self._events.get(key)
        if event is None:
            event = {"node": "blackboard_update", "last_request": last}
            if last is None or self.config.object_by_id(last) is not None:
                event = self._events[key] = _Event(**event)
        st.events.append(event)
        return SUCCESS

    # -- stage evaluators --------------------------------------------------------
    # Each returns (interned event, violation-or-None) for one request's state,
    # keyed by every fact the event writes; no input is named node, outcome or
    # audit. The inputs leave out what the trace holds elsewhere: the request
    # (echoed by knowledge_check), the last request (blackboard_update), the
    # cool-downs and escalation steps (ordering_ok), the matrix row's required
    # checks (emotion_ok), whether the requester is known and the sample
    # clamped (the warnings), whether the object is known (eligibility_ok has
    # a group) and whether a check failed (its violation event, or its outcome
    # in the audit pass).

    def _eval_eligibility(self, st: _EvalState):
        group = st.group = None if st.obj is None else classify_user_group(st.profile, self.config.region)
        key = ("eligibility_ok", group)
        event = self._events.get(key) or self._events.setdefault(
            key, _Event(node=key[0]) if group is None else _Event(node=key[0], group=group)
        )
        if group is None:
            return event, ("eligibility", f"unknown object {st.request.object_id!r}")
        if group is UserGroup.INELIGIBLE:
            return event, (
                "eligibility",
                f"requester is under the minimum age of {MIN_ELIGIBLE_AGE}",
            )
        return event, None

    def _eval_ordering(self, st: _EvalState):
        st.active = self.cooldowns.active_cooldowns(st.request.user_id, st.request.now)
        restriction = st.restriction = ordering_restrictions(st.active, st.obj)
        key = ("ordering_ok", st.active, steps := restriction.escalation_steps)
        event = self._events.get(key) or self._events.setdefault(
            key, _Event(node=key[0], active_cooldowns=_List(sorted(st.active)), zone_escalation_steps=steps)
        )
        if restriction.vehicle_ban:
            return event, (
                "ordering",
                "vehicle-category objects are unavailable during a mind-altering cool-down",
            )
        return event, None

    def _eval_emotion(self, st: _EvalState):
        steps = st.restriction.escalation_steps
        st.effective_zone = escalate(st.base_zone, steps) if steps else st.base_zone
        request_class = st.obj.safety_class
        # A plain tuple finds the same row as its MatrixKey, without
        # NamedTuple's Python-level __new__.
        entry = st.matrix_entry = matrix_lookup(self.config.matrix, (st.active, request_class, st.effective_zone))
        # The row follows from the windows, the class and the effective zone.
        key = ("emotion_ok", st.active, request_class, st.base_zone, st.effective_zone)
        event = self._events.get(key) or self._events.setdefault(key, _Event(
            node=key[0], base_zone=st.base_zone.as_str(), effective_zone=st.effective_zone.as_str(),
            request_class=request_class, allowed_groups=_List(entry.group_texts),
            required_checks=_List(entry.check_texts),
        ))
        if st.group not in entry.allowed_groups:
            return event, (
                "emotion",
                f"group {st.group} may not receive a {request_class} "
                f"object in the {st.effective_zone.as_str()} zone",
            )
        return event, None

    def _eval_category_context(self, st: _EvalState):
        entry, category = st.matrix_entry, st.obj.category
        result = category_checks(
            entry.required_checks, self.config.category_rules, st.obj, st.group, st.context, st.profile
        )
        failed = result.failed_check
        key = ("category_context_ok", category, failed, result.failed_rule_category)
        # The key's facts by name; a failed fact that is None is not written.
        names = ("node", "category", "failed_check", "failed_rule_category")
        event = self._events.get(key) or self._events.setdefault(
            key, _Event(**{name: fact for name, fact in zip(names, key) if fact is not None})
        )
        if failed is None:
            return event, None
        if result.failed_rule_category is None:
            return event, ("context", f"required check failed: {failed}")
        return event, ("category", f"category check failed: {failed}")

    def _eval_personal(self, st: _EvalState):
        tagged = self.registry.is_tagged(st.request.object_id)
        key = ("personal_ok", tagged)
        event = self._events.get(key) or self._events.setdefault(key, _Event(node=key[0], object_tagged=tagged))
        if not self.registry.personal_check(st.request.user_id, st.request.object_id):
            # Reason deliberately names no users: explanations must not leak
            # who tagged the object.
            return event, ("personal", "personal object, access not granted")
        return event, None

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
        allowed = st.matrix_entry.allowed_groups if st.matrix_entry is not None else frozenset()
        if st.obj is None:
            # Its reason names the unknown id, so it is not interned.
            decision = Decision(verdict, deciding, reason, st.effective_zone, allowed)
        else:
            key = (verdict, deciding, reason, st.effective_zone, allowed)
            decision = self._decisions.get(key)
            if decision is None:
                decision = self._decisions[key] = Decision(verdict, deciding, reason, st.effective_zone, allowed)

        if self.audit_all and st.failed is not None:
            self._audit_events(st)

        # Cool-down bookkeeping happens after the verdict and is the same for
        # both verdicts; it is a decision's only write to the cool-down
        # state, and drops the requester's closed windows. Unknown objects
        # have no safety class and leave the state untouched.
        if st.obj is not None:
            self.cooldowns.on_granted(request.user_id, st.obj, request.now, self.config.durations)
        else:
            st.warnings.append("cool-down state untouched: unknown object")

        # The tick's state is dropped on return, so its warnings and events
        # lists are the trace's own, and so is its echo's request.
        trace = DecisionTrace(
            request.request_id, self.fingerprint, self.audit_all, st.events[0]["request"], pre_state, st.warnings,
            st.events, decision,
        )
        return decision, trace

    def _audit_events(self, st: _EvalState) -> None:
        """In audit mode, evaluate the stages after the failed one purely
        for the record; the verdict is already fixed. Each event appended is
        a plain dict, the interned one's facts with its outcome."""
        for _, ok_name, evaluate in self._stages[st.failed + 1:]:
            try:
                event, violation = evaluate(st)
                outcome = "success" if violation is None else "failure"
            except Exception:
                event, outcome = {"node": ok_name, "note": "not evaluable after the deciding violation"}, "skipped"
            st.events.append({**event, "outcome": outcome, "audit": True})


def redecide(trace: DecisionTrace, config: PolicyConfig) -> tuple[Decision, DecisionTrace]:
    """The one replay step: a recorded request decided again from its pre-state.

    The config keeps one replay engine of its own, built on first use and
    restored whole for every trace, so no state carries over from one trace
    to the next, and, like decide(), this serves one caller at a time.
    Refuses with ReplayError when the config fingerprint differs from the
    trace's (anything else would not be an audit), when no engine takes the
    config, or when the recorded request or pre-state cannot be read back."""
    if config.fingerprint() != trace.config_fingerprint:
        raise ReplayError("config fingerprint does not match the trace")
    try:
        request = FetchRequest.from_dict(trace.request)
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayError(f"recorded request cannot be read: {exc!r}") from exc
    try:
        engine = config._replayer
    except ConfigError as exc:
        raise ReplayError(f"config is refused by the engine: {exc!r}") from exc
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


@dataclass(slots=True)
class VerifyResult:
    mismatches: list[str]
    decision: Decision | None

    @property
    def ok(self) -> bool:
        return not self.mismatches


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
        return VerifyResult([str(exc)], None)
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
    return VerifyResult(mismatches, decision)
