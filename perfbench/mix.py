"""Seeded event streams for the fetchguard benchmark.

A stream yields FetchRequest objects and registry writes (Write) in the
order one household robot would see them. Everything is drawn from a
random.Random seeded by the workload seed, so the same seed gives the same
stream. Each Write carries the outcome the registry rules predict for it,
worked out here from a shadow of the tag registry, so that a refused write
that should have succeeded (or the reverse) counts as a failure.

The repository has no recorded household traffic. The only household data
it ships is the scenario corpus, scenarios/*.json: 16 scripts with 55
requests, 34 emotion samples, 20 contexts and 5 registry writes. The
weighted tables below are counted from those events, and frozen here so
that a scenario added later does not change the benchmark's traffic. The
corpus is written to reach edge cases, not to sample real use, so these
shares stand for its traffic only. Shares not taken from it are marked
as coverage choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from fetchguard import ContextSnapshot, EmotionSample, FetchRequest, PolicyConfig
from fetchguard.model import MIN_ELIGIBLE_AGE

# Requesters, by the number of corpus requests each made. The corpus's one
# unknown requester, `wanderer` (3 requests), is split over three unknown
# ids, so that a few ids the roster lacks are asked about.
REQUESTERS = (
    ("alice", 29.0),
    ("bob", 7.0),
    ("erin", 6.0),
    ("carol", 5.0),
    ("dave", 3.0),
    ("grace", 1.0),
    ("henry", 1.0),
    ("wanderer", 1.0),
    ("visitor", 1.0),
    ("courier", 1.0),
)
# Objects, by corpus requests; the one unknown object is split the same way.
OBJECTS = (
    ("towel", 19.0),
    ("knife", 11.0),
    ("sleeping_pills", 5.0),
    ("car_keys", 4.0),
    ("cough_syrup", 4.0),
    ("safety_scissors", 3.0),
    ("toy_block", 3.0),
    ("diary", 3.0),
    ("peanut_butter", 2.0),
    ("unobtainium", 0.5),
    ("fireworks", 0.5),
)
# (valence, arousal) of the corpus's set_emotion events: all four zones,
# and 3 of 34 outside [-1,1]^2.
EMOTIONS = (
    ((0.5, 0.0), 13.0),
    ((-0.9, 0.9), 5.0),
    ((-0.9, -0.9), 3.0),
    ((0.6, 0.3), 2.0),
    ((0.7, 0.2), 2.0),
    ((-5.0, 5.0), 2.0),
    ((0.4, 0.2), 1.0),
    ((0.9, -0.3), 1.0),
    ((0.1, 0.1), 1.0),
    ((0.6, 0.6), 1.0),
    ((2.0, 0.0), 1.0),
    ((0.8, 0.1), 1.0),
    ((-0.3, 0.0), 1.0),
)
# (room, adult_present, verbal_affirmation) of the corpus's set_context events.
CONTEXTS = (
    (("kitchen", True, True), 9.0),
    (("kitchen", True, False), 3.0),
    (("playroom", True, True), 2.0),
    (("bedroom", True, True), 2.0),
    (("bathroom", True, True), 2.0),
    (("playroom", False, True), 1.0),
    (("hall", True, True), 1.0),
)
# Seconds between consecutive requests of a corpus script. Most are a few
# seconds, so cool-down windows open and escalate; some sit on either side
# of the 30-minute dangerous and the longer mind-altering windows.
GAPS = (
    (1, 16.0),
    (2, 5.0),
    (9, 1.0),
    (10, 2.0),
    (59, 1.0),
    (60, 3.0),
    (100, 3.0),
    (190, 1.0),
    (1201, 1.0),
    (1799, 1.0),
    (1801, 1.0),
    (3600, 1.0),
    (7200, 1.0),
    (7201, 1.0),
    (10801, 1.0),
)

# About 2 events in 100 are registry writes. Of the corpus's 5 writes, 3
# are tags and 2 grants.
WRITE_SHARE = 0.02
TAG_SHARE = 0.6
# Coverage choice: registry writes draw from these, so that both outcomes
# occur. The two designators, two users who may not tag, three objects the
# writes fight over and one the catalog lacks.
WRITE_ACTORS = ("alice", "henry", "bob", "grace")
WRITE_OBJECTS = ("diary", "towel", "toy_block", "laser_cutter")
WRITE_GRANTEES = ("alice", "bob", "carol", "dave", "erin", "grace", "henry", "courier")


@dataclass(frozen=True)
class Write:
    """One registry write: apply_tag when grantee is None, else apply_grant."""

    actor: str
    object_id: str
    grantee: str | None
    expect_ok: bool


class _Table:
    """Weighted choice from one of the tables above."""

    def __init__(self, table):
        self.values = [value for value, _ in table]
        self.weights = [weight for _, weight in table]

    def draw(self, rng: random.Random):
        return rng.choices(self.values, self.weights)[0]


_REQUESTERS = _Table(REQUESTERS)
_OBJECTS = _Table(OBJECTS)
_EMOTIONS = _Table(EMOTIONS)
_CONTEXTS = _Table(CONTEXTS)
_GAPS = _Table(GAPS)


class EventStream:
    """Endless seeded household traffic.

    With new_user_every n, every n-th request comes from a requester the
    engine has never seen, whose id is `<prefix>-new-<k>`. They come at fixed
    places, not at random, so that the number of requesters remembered after
    any request is the same on every seed.
    """

    def __init__(self, config: PolicyConfig, seed: int, prefix: str, new_user_every: int = 0):
        self._rng = random.Random(f"{prefix}:{seed}")
        self._prefix = prefix
        self._new_user_every = new_user_every
        self._ages = {u.user_id: u.age_years for u in config.users}
        self._catalog = {o.object_id for o in config.objects}
        self._designators = config.admin.all_designators()
        self._tags = {t.object_id: t.tagged_by for t in config.personal_tags}
        self.now = 0
        self.requests = 0
        self.new_users = 0

    def next_event(self) -> FetchRequest | Write:
        rng = self._rng
        if rng.random() < WRITE_SHARE:
            return self._write()
        every = self._new_user_every
        if every and self.requests % every == every - 1:
            return self.request(self.fresh_user())
        return self.request(_REQUESTERS.draw(rng))

    def fresh_user(self) -> str:
        user = f"{self._prefix}-new-{self.new_users:05d}"
        self.new_users += 1
        return user

    def request(self, user: str) -> FetchRequest:
        rng = self._rng
        self.now += _GAPS.draw(rng)
        room, adult_present, verbal_affirmation = _CONTEXTS.draw(rng)
        valence, arousal = _EMOTIONS.draw(rng)
        request = FetchRequest(
            request_id=f"{self._prefix}-{self.requests:07d}",
            user_id=user,
            object_id=_OBJECTS.draw(rng),
            emotion=EmotionSample(valence, arousal),
            context=ContextSnapshot(
                room=room,
                adult_present=adult_present,
                verbal_affirmation=verbal_affirmation,
                timestamp=self.now,
            ),
            now=self.now,
        )
        self.requests += 1
        return request

    def _write(self) -> Write:
        rng = self._rng
        actor = rng.choice(WRITE_ACTORS)
        obj = rng.choice(WRITE_OBJECTS)
        tagger = self._tags.get(obj)
        if rng.random() < TAG_SHARE:
            ok = obj in self._catalog and actor in self._designators and tagger in (None, actor)
            if ok:
                self._tags[obj] = actor
            return Write(actor, obj, None, ok)
        grantee = rng.choice(WRITE_GRANTEES)
        age = self._ages.get(grantee)
        ok = age is not None and age >= MIN_ELIGIBLE_AGE and tagger == actor
        return Write(actor, obj, grantee, ok)
