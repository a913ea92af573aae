"""Per-user request memory and cool-down windows for flagged object classes.

Granting or denying a dangerous or mind-altering object arms that class's
window; the shipped household (configs/default.json) gives dangerous objects
30 minutes and mind-altering ones four hours. Denials reset the window for
the denied class. While a cool-down is active, same-class requests escalate
the effective emotion zone one step toward Red, and vehicles are flat-out
unavailable during a mind-altering cool-down.

All arithmetic is exact integer seconds on the injected clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError
from .model import Instant, ObjectSpec, SafetyClass, require_type, require_writable

VEHICLE_CATEGORY = "vehicle"

#: State key every requester outside the roster shares under scope "roster".
UNKNOWN_SCOPE_KEY = "__unknown__"

_FLAGGED = (SafetyClass.DANGEROUS, SafetyClass.MIND_ALTERING)
#: The classes that have a cool-down, by the text a snapshot writes.
_FLAGGED_BY_TEXT = {cls.value: cls for cls in _FLAGGED}


@dataclass(frozen=True)
class CooldownDurations:
    dangerous: int
    mind_altering: int

    def __post_init__(self):
        if self.dangerous <= 0 or self.mind_altering <= 0:
            raise ConfigError("cool-down durations must be strictly positive")
        # A window is a clock reading plus a duration, and both must write.
        require_writable("dangerous_s", self.dangerous)
        require_writable("mind_altering_s", self.mind_altering)

    def for_class(self, safety_class: SafetyClass) -> int:
        if safety_class is SafetyClass.DANGEROUS:
            return self.dangerous
        if safety_class is SafetyClass.MIND_ALTERING:
            return self.mind_altering
        raise ValueError("no cool-down duration for class 'neither'")


@dataclass(slots=True)
class _UserRecord:
    last_requested: str | None = None
    active: dict[SafetyClass, Instant] = field(default_factory=dict)


class CooldownState:
    """Tracks last requests and active cool-down expiries.

    With no roster (scope "user") every requester keeps a record of their
    own. Given a roster (scope "roster": the config's user ids) only its
    members do, while every requester outside it shares one, so there are
    at most roster + 1 records. Mutations are serialized by the owning
    engine instance.
    """

    __slots__ = ("roster", "_records")

    def __init__(self, roster: frozenset[str] | None = None):
        self.roster = roster
        self._records: dict[str, _UserRecord] = {}

    def _key(self, user_id: str) -> str:
        """The record a request by user_id reads and writes."""
        if self.roster is not None and user_id not in self.roster:
            return UNKNOWN_SCOPE_KEY
        return user_id

    def _record(self, user_id: str) -> _UserRecord:
        key = self._key(user_id)
        rec = self._records.get(key)
        if rec is None:
            rec = self._records[key] = _UserRecord()
        return rec

    def last_requested(self, user_id: str) -> str | None:
        rec = self._records.get(self._key(user_id))
        return rec.last_requested if rec else None

    def on_granted(
        self, user_id: str, obj: ObjectSpec, now: Instant, durations: CooldownDurations
    ) -> None:
        """Called by decide() after either verdict. Drop the record's closed
        windows (expiry <= now), the one place a window is removed; remember
        the request; and arm a flagged object's window for a full duration
        from now, whether or not one was running."""
        rec = self._record(user_id)
        if rec.active and min(rec.active.values()) <= now:
            rec.active = {cls: expiry for cls, expiry in rec.active.items() if expiry > now}
        rec.last_requested = obj.object_id
        if obj.safety_class in _FLAGGED:
            rec.active[obj.safety_class] = now + durations.for_class(obj.safety_class)

    def active_cooldowns(self, user_id: str, now: Instant) -> frozenset[SafetyClass]:
        """Classes whose window is still open (expiry > now); only reads."""
        rec = self._records.get(self._key(user_id))
        if rec is None or not rec.active:
            return frozenset()
        return frozenset(cls for cls, expiry in rec.active.items() if expiry > now)

    def expiry(self, user_id: str, safety_class: SafetyClass) -> Instant | None:
        rec = self._records.get(self._key(user_id))
        if rec is None:
            return None
        return rec.active.get(safety_class)

    def snapshot(self, user_id: str | None = None) -> dict:
        """The whole state, or, given a user_id, only the record a decision
        for that user reads: theirs or, given a roster, the shared one if
        the roster lacks them. A user with no record gets an empty slice.
        The roster is the config's, so it is not written."""
        if user_id is None:
            return {
                "users": {
                    uid: {"last_requested": rec.last_requested, "active": dict(sorted(rec.active.items()))}
                    for uid, rec in sorted(self._records.items())
                },
            }
        key = self._key(user_id)
        rec = self._records.get(key)
        if rec is None:
            return {"users": {}}
        # A record has a window for at most the two flagged classes.
        active = rec.active
        active = dict(sorted(active.items())) if len(active) == 2 else active.copy()
        return {"users": {key: {"last_requested": rec.last_requested, "active": active}}}

    @classmethod
    def restore(cls, snapshot: dict, roster: frozenset[str] | None = None) -> "CooldownState":
        """The state a snapshot wrote, sharing records by `roster`, which the
        snapshot does not hold. Any record key is taken: a key that no
        request would read is simply never read."""
        state = cls(roster)
        records = state._records
        for uid, rec in snapshot["users"].items():
            last = rec["last_requested"]
            if last is not None and not isinstance(last, str):
                raise TypeError(f"last_requested of {uid!r} must be an object id, got {last!r}")
            active = {}
            for cls_name, expiry in rec["active"].items():
                # Only a class the engine arms a window for; taken as
                # recorded, since converting would let an edited expiry verify.
                safety_class = _FLAGGED_BY_TEXT.get(cls_name)
                if safety_class is None:
                    raise ValueError(f"{uid!r} has a window for {cls_name!r}, which has no cool-down")
                if type(expiry) is not int:
                    require_type(f"{cls_name} expiry of {uid!r}", expiry, int)
                active[safety_class] = expiry
            records[uid] = _UserRecord(last, active)
        return state


@dataclass(frozen=True)
class Restriction:
    """What an active cool-down does to the current request: an absolute
    vehicle ban, or a zone escalation consumed by the allow-matrix stage."""

    vehicle_ban: bool
    escalation_steps: int


#: The only three restrictions there are, built once.
_VEHICLE_BAN = Restriction(vehicle_ban=True, escalation_steps=0)
_ESCALATE = Restriction(vehicle_ban=False, escalation_steps=1)
_UNRESTRICTED = Restriction(vehicle_ban=False, escalation_steps=0)


def ordering_restrictions(active: frozenset[SafetyClass], request: ObjectSpec) -> Restriction:
    if SafetyClass.MIND_ALTERING in active and request.category == VEHICLE_CATEGORY:
        return _VEHICLE_BAN
    return _ESCALATE if request.safety_class in active else _UNRESTRICTED
