"""Reference copies of the trace readers as they were written before they
built their objects positionally and tested each value object's field
types in one expression.

`FetchRequest.from_dict` converted every sensor value through one helper
and built the request by keyword; each value object's __post_init__ then
called require_type once per field. `Decision.from_dict` looked up every
group text through member(). `DecisionTrace.from_dict` always took the
difference between the line's keys and the keys its version writes. The
value objects are built here without running their own __post_init__,
after the checks it used to run, so the readers' checks are compared too.

The pre-state restores are copies of `CooldownState.restore` and
`PersonalRegistry.restore` as they were before they tested each value's
exact type in front of the `require_type` calls and built their records
positionally, and `reference_user_snapshot` is `CooldownState.snapshot`'s
one-record slice as it was before it built that record directly.
"""

import math
from dataclasses import fields

from fetchguard import ContextSnapshot, Decision, DecisionTrace, EmotionSample, FetchRequest, SafetyClass, Zone
from fetchguard.engine import TRACE_VERSION
from fetchguard.model import GROUP_BY_TEXT, member, require_type
from fetchguard.ordering import CooldownState, _UserRecord
from fetchguard.privacy import PersonalRegistry, PersonalTag

_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}
_KEYS = frozenset(f.name for f in fields(DecisionTrace))
_V1_KEYS = _KEYS - {"trace_version"}
_FLAGGED_BY_TEXT = {cls.value: cls for cls in (SafetyClass.DANGEROUS, SafetyClass.MIND_ALTERING)}


def _bare(cls, **values):
    """An instance of a frozen dataclass holding `values`; its __init__
    and __post_init__ do not run."""
    instance = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(instance, name, value)
    return instance


def _sensor_from_json(value):
    if isinstance(value, str):
        if value not in _NON_FINITE:
            raise ValueError(f"sensor value {value!r} is neither a number nor a non-finite token")
        return _NON_FINITE[value]
    return value


def _emotion(valence, arousal):
    require_type("emotion valence", valence, int, float)
    require_type("emotion arousal", arousal, int, float)
    return _bare(EmotionSample, valence=valence, arousal=arousal)


def _context(room, adult_present, verbal_affirmation, timestamp):
    require_type("context room", room, str)
    require_type("context adult_present", adult_present, bool)
    require_type("context verbal_affirmation", verbal_affirmation, bool)
    require_type("context timestamp", timestamp, int)
    return _bare(
        ContextSnapshot,
        room=room,
        adult_present=adult_present,
        verbal_affirmation=verbal_affirmation,
        timestamp=timestamp,
    )


def reference_request_from_dict(data):
    emotion, context = data["emotion"], data["context"]
    request_id = data["request_id"]
    user_id = data["user_id"]
    object_id = data["object_id"]
    emotion = _emotion(_sensor_from_json(emotion["valence"]), _sensor_from_json(emotion["arousal"]))
    context = _context(context["room"], context["adult_present"], context["verbal_affirmation"], context["timestamp"])
    now = data["now"]
    require_type("request_id", request_id, str)
    require_type("user_id", user_id, str)
    require_type("object_id", object_id, str)
    require_type("emotion", emotion, EmotionSample)
    require_type("context", context, ContextSnapshot)
    require_type("now", now, int)
    return _bare(
        FetchRequest,
        request_id=request_id,
        user_id=user_id,
        object_id=object_id,
        emotion=emotion,
        context=context,
        now=now,
    )


def reference_decision_from_dict(data):
    decision = Decision(
        verdict=data["verdict"],
        deciding_policy=data["deciding_policy"],
        reason=data["reason"],
        effective_zone=Zone.from_str(data["effective_zone"]),
        allowed_groups_at_leaf=frozenset([member(GROUP_BY_TEXT, g) for g in data["allowed_groups_at_leaf"]]),
    )
    if decision.to_dict() != data:
        raise ValueError(f"decision {data!r} is not in the form the engine writes")
    return decision


def reference_trace_from_dict(data):
    version = data.get("trace_version", 1)
    if type(version) is not int or not 1 <= version <= TRACE_VERSION:
        raise ValueError(f"unknown trace_version {version!r}")
    trace = DecisionTrace(
        request_id=data["request_id"],
        config_fingerprint=data["config_fingerprint"],
        audit_all=require_type("audit_all", data["audit_all"], bool),
        request=data["request"],
        pre_state=data["pre_state"],
        warnings=data["warnings"],
        events=data["events"],
        decision=reference_decision_from_dict(data["decision"]),
        trace_version=version,
    )
    extra = data.keys() - (_V1_KEYS if version == 1 else _KEYS)
    if extra:
        raise ValueError(f"keys the engine does not write: {sorted(extra)}")
    return trace


def reference_cooldowns_restore(snapshot, roster=None):
    state = CooldownState(roster)
    for uid, rec in snapshot["users"].items():
        last = rec["last_requested"]
        if last is not None and not isinstance(last, str):
            raise TypeError(f"last_requested of {uid!r} must be an object id, got {last!r}")
        record = _UserRecord(last_requested=last)
        for cls_name, expiry in rec["active"].items():
            if cls_name not in _FLAGGED_BY_TEXT:
                raise ValueError(f"{uid!r} has a window for {cls_name!r}, which has no cool-down")
            require_type(f"{cls_name} expiry of {uid!r}", expiry, int)
            record.active[_FLAGGED_BY_TEXT[cls_name]] = expiry
        state._records[uid] = record
    return state


def reference_registry_restore(snapshot):
    reg = PersonalRegistry()
    for obj, tag in snapshot.items():
        grants = tag["grants"]
        require_type(f"tagger of {obj!r}", tag["tagged_by"], str)
        require_type(f"grants on {obj!r}", grants, list)
        for grantee in grants:
            require_type(f"grantee on {obj!r}", grantee, str)
        reg._tags[obj] = PersonalTag(tag["tagged_by"], set(grants))
    return reg


def reference_user_snapshot(state, user_id):
    key = state._key(user_id)
    records = [(key, state._records[key])] if key in state._records else []
    return {
        "users": {
            uid: {
                "last_requested": rec.last_requested,
                "active": dict(sorted(rec.active.items())),
            }
            for uid, rec in records
        },
    }
