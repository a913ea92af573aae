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
from .model import Instant, ObjectSpec, SafetyClass, require_type

VEHICLE_CATEGORY = "vehicle"

#: State key used when cool-downs are shared household-wide.
HOUSEHOLD_SCOPE_KEY = "__household__"

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

    def for_class(self, safety_class: SafetyClass) -> int:
        if safety_class is SafetyClass.DANGEROUS:
            return self.dangerous
        if safety_class is SafetyClass.MIND_ALTERING:
            return self.mind_altering
        raise ValueError("no cool-down duration for class 'neither'")


@dataclass
class _UserRecord:
    last_requested: str | None = None
    active: dict[SafetyClass, Instant] = field(default_factory=dict)


class CooldownState:
    """Tracks last requests and active cool-down expiries.

    Scope is per-user by default; with scope="household" every user shares
    one record. Mutations are serialized by the owning engine instance.
    """

    def __init__(self, scope: str = "user"):
        if scope not in ("user", "household"):
            raise ConfigError(f"cooldown scope must be 'user' or 'household', got {scope!r}")
        self.scope = scope
        self._records: dict[str, _UserRecord] = {}

    def _key(self, user_id: str) -> str:
        return HOUSEHOLD_SCOPE_KEY if self.scope == "household" else user_id

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
        """Remember the request and arm a flagged object's window for a full
        duration from now, whether or not one was already running."""
        rec = self._record(user_id)
        rec.last_requested = obj.object_id
        if obj.safety_class in _FLAGGED:
            rec.active[obj.safety_class] = now + durations.for_class(obj.safety_class)

    #: A denial re-arms the window just as a grant arms it.
    on_denied = on_granted

    def active_cooldowns(
        self, user_id: str, now: Instant, prune: bool = True
    ) -> frozenset[SafetyClass]:
        """Classes whose window is still open (expiry > now). Expired entries
        are pruned as a side effect unless prune is false, in which case the
        state is only read."""
        rec = self._records.get(self._key(user_id))
        if rec is None:
            return frozenset()
        if not prune:
            return frozenset(cls for cls, expiry in rec.active.items() if expiry > now)
        expired = [cls for cls, expiry in rec.active.items() if expiry <= now]
        for cls in expired:
            del rec.active[cls]
        return frozenset(rec.active)

    def expiry(self, user_id: str, safety_class: SafetyClass) -> Instant | None:
        rec = self._records.get(self._key(user_id))
        if rec is None:
            return None
        return rec.active.get(safety_class)

    def snapshot(self, user_id: str | None = None) -> dict:
        """The whole state, or, given a user_id, only the record a decision
        for that user reads: theirs, or the household's under household
        scope. A user with no record gets an empty slice."""
        if user_id is None:
            records = sorted(self._records.items())
        else:
            key = self._key(user_id)
            records = [(key, self._records[key])] if key in self._records else []
        return {
            "scope": self.scope,
            "users": {
                uid: {
                    "last_requested": rec.last_requested,
                    "active": dict(sorted(rec.active.items())),
                }
                for uid, rec in records
            },
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "CooldownState":
        state = cls(scope=snapshot["scope"])
        for uid, rec in snapshot["users"].items():
            last = rec["last_requested"]
            if last is not None and not isinstance(last, str):
                raise TypeError(f"last_requested of {uid!r} must be an object id, got {last!r}")
            record = _UserRecord(last_requested=last)
            for cls_name, expiry in rec["active"].items():
                # Only a class the engine arms a window for; taken as
                # recorded, since converting would let an edited expiry verify.
                if cls_name not in _FLAGGED_BY_TEXT:
                    raise ValueError(f"{uid!r} has a window for {cls_name!r}, which has no cool-down")
                require_type(f"{cls_name} expiry of {uid!r}", expiry, int)
                record.active[_FLAGGED_BY_TEXT[cls_name]] = expiry
            state._records[uid] = record
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
