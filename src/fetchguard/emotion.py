"""Valence/arousal samples and the priority-ordered rectangle zone table.

A zone table is an ordered list of closed rectangles over [-1,1]^2; the first
rectangle containing a sample wins, so earlier entries shadow later ones. The
shipped household's table (configs/default.json) puts Red on the
negative/high-arousal corner (extreme anger), Orange on the
negative/low-arousal corner (extreme sadness), Green on the whole
non-negative-valence half, and Yellow on the remaining negative band; Green
is listed before Yellow, which keeps every interval closed while still
giving Green all of v >= 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import EvaluationError
from .model import Report, require_type


class Zone(enum.IntEnum):
    """Severity bands, totally ordered: Green < Yellow < Orange < Red."""

    GREEN = 0
    YELLOW = 1
    ORANGE = 2
    RED = 3

    def as_str(self) -> str:
        return _ZONE_NAMES[self]

    @classmethod
    def from_str(cls, s: str) -> "Zone":
        try:
            return _ZONE_BY_TEXT[s]
        except (KeyError, TypeError):
            raise ValueError(f"unknown zone {s!r}") from None


#: Zone texts by rank; cheaper than the Enum `name` property on the hot path.
_ZONE_NAMES = tuple(zone.name.lower() for zone in Zone)
#: Zones by rank; indexing it is cheaper than calling Zone(rank).
_ZONES = tuple(Zone)
#: Zones by their exact text; cheaper than Enum's Python-level Zone[name].
_ZONE_BY_TEXT = {text: zone for text, zone in zip(_ZONE_NAMES, Zone)}


def escalate(zone: Zone, steps: int) -> Zone:
    """Move a zone `steps` toward Red, saturating at Red."""
    return _ZONES[min(int(Zone.RED), int(zone) + max(0, steps))]


@dataclass(frozen=True)
class EmotionSample:
    """One sensor reading. Either value may be any int or float, NaN and
    +-inf included, since clamped() pulls every reading into range."""

    valence: float
    arousal: float

    def __post_init__(self):
        require_type("emotion valence", self.valence, int, float)
        require_type("emotion arousal", self.arousal, int, float)

    def clamped(self) -> tuple["EmotionSample", bool]:
        """Pull the sample into [-1,1]^2.

        A NaN coordinate goes to its side of the most cautious corner
        (valence -1, arousal +1); any other value, +-inf included, clamps to
        the nearer boundary. Out-of-range sensor data must never crash or
        soften a decision. Returns (sample, whether anything changed); a
        sample whose values come back as the very objects it holds is
        returned itself.
        """
        # NaN is the one value unequal to itself. Unlike math.isnan, the test
        # converts no int, so one beyond float range clamps like +-inf.
        v = -1.0 if self.valence != self.valence else min(1.0, max(-1.0, self.valence))
        a = 1.0 if self.arousal != self.arousal else min(1.0, max(-1.0, self.arousal))
        if v is self.valence and a is self.arousal:
            return self, False
        changed = not (v == self.valence and a == self.arousal)
        return EmotionSample(v, a), changed


@dataclass(frozen=True)
class ZoneRect:
    zone: Zone
    v_lo: float
    v_hi: float
    a_lo: float
    a_hi: float

    def contains(self, v: float, a: float) -> bool:
        return self.v_lo <= v <= self.v_hi and self.a_lo <= a <= self.a_hi


@dataclass(frozen=True)
class ZoneTable:
    rects: tuple[ZoneRect, ...]


def zone_of(sample: EmotionSample, table: ZoneTable) -> Zone:
    """First-match lookup. Raises EvaluationError on a coverage hole."""
    for rect in table.rects:
        if rect.contains(sample.valence, sample.arousal):
            return rect.zone
    raise EvaluationError(
        f"no zone covers point (v={sample.valence}, a={sample.arousal})"
    )


def _probes(bounds) -> list[float]:
    """The distinct bounds on one axis and the midpoint between each pair of
    neighbours: one point from every piece the bounds cut [-1,1] into."""
    edges = sorted({-1.0, 1.0, *bounds})
    return sorted(edges + [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])])


def validate_zone_table(table: ZoneTable) -> Report:
    """Check that the rectangles cover [-1,1]^2; report the first uncovered point.

    The check is exact: the rectangle edges cut each axis into points and
    open intervals on which every rectangle's membership is constant, so
    probing each edge and each midpoint between neighbouring edges probes
    every piece of the square. Also flags inverted or out-of-bounds intervals.
    """
    report = Report()
    for i, rect in enumerate(table.rects):
        if rect.v_lo > rect.v_hi or rect.a_lo > rect.a_hi:
            report.add("inverted-interval", f"rect #{i} ({rect.zone.as_str()}): lo > hi")
        if not (-1.0 <= rect.v_lo and rect.v_hi <= 1.0 and -1.0 <= rect.a_lo and rect.a_hi <= 1.0):
            report.add("out-of-bounds", f"rect #{i} ({rect.zone.as_str()}): exceeds [-1,1]")
    if not report.ok:
        return report

    a_probes = _probes(b for r in table.rects for b in (r.a_lo, r.a_hi))
    for v in _probes(b for r in table.rects for b in (r.v_lo, r.v_hi)):
        for a in a_probes:
            if not any(r.contains(v, a) for r in table.rects):
                report.add("uncovered-point", f"no zone covers (v={v!r}, a={a!r})")
                return report
    return report
