"""The whole engine against an independent statement of the five gates
(reference_engine.py), step by step over arbitrary event streams and over
the scenario corpus: every decision field, and the whole cool-down and
registry state after every event."""

import copy
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fetchguard import (
    ContextSnapshot,
    DecisionEngine,
    EmotionSample,
    FetchguardError,
    FetchRequest,
    PolicyConfig,
)
from fetchguard.matrix import ALL_GROUPS, ALL_KEYS, MATRIX_CHECKS, _WALK
from fetchguard.model import INT_BOUND
from reference_engine import initial_state, reference_step

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))


def shipped_with(scope, towel_tag):
    """The shipped config's data and config under a cool-down scope, with
    henry's tag on the towel and his grant to bob added if asked: a tag by
    a designator who is not the owner, and a grant, from the start."""
    data = copy.deepcopy(SHIPPED)
    data["cooldown_scope"] = scope
    if towel_tag:
        data["personal_tags"].append({"object_id": "towel", "tagged_by": "henry", "grants": ["bob"]})
        next(obj for obj in data["objects"] if obj["object_id"] == "towel")["personal_owner"] = "henry"
    return data, PolicyConfig.from_dict(data)


def with_adult_rows():
    """The shipped household whose every live row for a dangerous object
    also requires adult_present, a row check no other household's rows
    name."""
    data = copy.deepcopy(SHIPPED)
    for row in data["matrix"]:
        if row["request_class"] == "dangerous" and row["allowed_groups"]:
            row["required_checks"] = sorted({*row["required_checks"], "adult_present"})
    return data, PolicyConfig.from_dict(data)


def drawn_matrix(rnd):
    """A matrix the tightening laws hold on, drawn with `rnd`, as a config
    file's rows. The 48 keys are visited by (open classes, zone rank), so
    that every key comes after each key one step looser (the neighbours of
    matrix._WALK). A key's groups are a drawn subset of its looser
    neighbours' intersection, or of ALL_GROUPS for a loosest key. A key
    that admits nobody requires no checks; any other requires its looser
    neighbours' checks, all of them live, and a drawn subset of
    MATRIX_CHECKS."""
    looser = {j: set() for j in range(len(ALL_KEYS))}
    for _, i, j in _WALK:
        if i != j:
            looser[j].add(i)
    rows = {}
    for j in sorted(looser, key=lambda j: (len(ALL_KEYS[j].cooldown_profile), ALL_KEYS[j].zone)):
        groups = set.intersection(*(rows[i][0] for i in looser[j])) if looser[j] else {g.value for g in ALL_GROUPS}
        keep = rnd.choice([0.0] + [0.75] * 3 + [1.0] * 6)
        groups = {g for g in sorted(groups) if rnd.random() < keep}
        checks = {c for c in MATRIX_CHECKS if rnd.random() < 0.15}.union(*(rows[i][1] for i in looser[j]))
        rows[j] = (groups, checks if groups else set())
    return [
        {"cooldown": sorted(c.value for c in key.cooldown_profile), "request_class": key.request_class.value,
         "zone": key.zone.as_str(), "allowed_groups": sorted(rows[j][0]), "required_checks": sorted(rows[j][1])}
        for j, key in enumerate(ALL_KEYS)
    ]


def with_drawn_matrix(seed):
    """The shipped household with drawn_matrix's draw for `seed`."""
    data = copy.deepcopy(SHIPPED)
    data["matrix"] = drawn_matrix(random.Random(seed))
    return data, PolicyConfig.from_dict(data)


def with_short_roster(towel_tag):
    """The shipped "roster" household, with henry's towel tag if asked,
    whose roster keeps only alice, bob, dave (under 5) and henry: carol,
    erin and grace join the ids no roster names, so that their requests
    share the `__unknown__` record, the one sharing rule a scope keeps."""
    data, _ = shipped_with("roster", towel_tag)
    data["users"] = [user for user in data["users"] if user["user_id"] in ("alice", "bob", "dave", "henry")]
    return data, PolicyConfig.from_dict(data)


CONFIGS = (
    [shipped_with(scope, towel_tag) for scope in ("roster", "user") for towel_tag in (False, True)]
    + [with_adult_rows()]
    + [with_short_roster(towel_tag) for towel_tag in (False, True)]
    + [with_drawn_matrix(0)]
)
#: One test id per household of CONFIGS.
CONFIG_IDS = [f"{data['cooldown_scope']}-{len(data['personal_tags'])}-tags" for data, _ in CONFIGS[:4]] + [
    "adult-rows", "short-roster-1-tags", "short-roster-2-tags", "drawn-matrix"
]


def step_both(engine, state, config_data, event):
    """One event on the engine and on the reference; both must agree on
    its outcome and on the whole state after it. Returns the outcome and
    the next state."""
    want, state = reference_step(config_data, state, event)
    if event["type"] == "request":
        request = FetchRequest(
            request_id="req",
            user_id=event["user"],
            object_id=event["object"],
            emotion=EmotionSample(event["valence"], event["arousal"]),
            context=ContextSnapshot(
                event["room"], event["adult_present"], event["verbal_affirmation"], event.get("timestamp", event["now"])
            ),
            now=event["now"],
        )
        got = engine.decide(request)[0].to_dict()
    else:
        try:
            if event["type"] == "tag_personal":
                engine.apply_tag(event["actor"], event["object"])
            else:
                engine.apply_grant(event["actor"], event["object"], event["grantee"])
            got = True
        except FetchguardError:
            got = False
    assert got == want, event
    assert engine.cooldowns.snapshot() == {"users": state["cooldowns"]}, event
    assert engine.registry.snapshot() == state["registry"], event
    return want, state


ROSTER = [user["user_id"] for user in SHIPPED["users"]]
CATALOG = [obj["object_id"] for obj in SHIPPED["objects"]]
ZONE_POINTS = [(0.5, 0.0), (-0.3, 0.0), (-0.9, -0.9), (-0.9, 0.9)]
ODD_SENSOR_VALUES = [math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**1024, -3, 1.5]
ROOMS = ["kitchen", "bathroom", "garage", "bedroom"]
# Steps that land on either side of both windows' ends.
GAPS = [0, 1, 60, 1799, 1800, 1801, 14399, 14400, 14401]
# Writes come from both designators and two others, and go mostly to a few
# objects, so that grants land and tagged objects get requested.
ACTORS = ["alice", "henry", "bob", "mallory"]
OFTEN_WRITTEN = ["diary", "towel", "knife", "cough_syrup"] * 3


def random_stream(rnd, points=(), gaps=GAPS, users=ROSTER, actors=ACTORS, objects=CATALOG, ahead=False):
    """Up to 20 events with their times: six requests to each tag or grant
    write. Each time is the last plus one of `gaps`, but never past the
    last instant a request may name. Ids are `users` (the shipped roster's
    dave is under 5), unknown users and `objects` or unknown objects, and one
    in ten is any short text; writes come from `actors`. An emotion is one time in four any two sensor values: NaN,
    +-inf, ints beyond float range, out of range or not; otherwise a point
    inside one of the shipped zones. With `points`, drawn for another zone
    table, one emotion in two is one of them, and any point of the square
    stands in for the shipped zones' points. A request's context is stamped
    at its `now`; with `ahead`, one in two is stamped 1 to 600 s later."""

    def pick(names):
        return "".join(rnd.choices("aé\x00 ", k=rnd.randint(0, 3))) if rnd.random() < 0.1 else rnd.choice(names)

    def sensor():
        return rnd.choice(ODD_SENSOR_VALUES) if rnd.random() < 0.5 else rnd.uniform(-2, 2)

    written = OFTEN_WRITTEN + objects + ["ghost"]
    now, events = 0, []
    for _ in range(rnd.randint(1, 20)):
        now = min(now + rnd.choice(gaps), INT_BOUND - 1)
        kind = rnd.choices(["request", "tag_personal", "grant"], weights=[6, 1, 1])[0]
        if kind == "tag_personal":
            event = {"actor": rnd.choice(actors), "object": pick(written)}
        elif kind == "grant":
            event = {"actor": rnd.choice(actors), "object": pick(written), "grantee": rnd.choice(users + ["ghost"])}
        else:
            if points and rnd.random() < 0.5:
                valence, arousal = rnd.choice(points)
            elif rnd.random() < 0.25:
                valence, arousal = sensor(), sensor()
            else:
                valence, arousal = (rnd.uniform(-1, 1), rnd.uniform(-1, 1)) if points else rnd.choice(ZONE_POINTS)
            event = {
                "user": pick(users + ["mallory", "stranger"]),
                "object": pick(objects + ["ghost"]),
                "valence": valence,
                "arousal": arousal,
                "room": rnd.choice(ROOMS),
                "adult_present": rnd.random() < 0.5,
                "verbal_affirmation": rnd.random() < 0.5,
                "now": now,
            }
            if ahead:
                event["timestamp"] = min(now + rnd.randint(1, 600), INT_BOUND - 1) if rnd.random() < 0.5 else now
        events.append({"type": kind, **event})
    return events


class TestEngineAgreesWithTheReference:
    # Hypothesis draws the seed of each stream, which is then drawn with the
    # fixed weights above: a request that a mutation would decide otherwise
    # (say, carol's safety scissors with no adult present) is one pairing
    # among about a hundred, and hypothesis's own draws both spread too
    # thinly over such pairings and cost some milliseconds per event.
    @settings(max_examples=800, deadline=None)
    @given(configs=st.sampled_from(CONFIGS), audit_all=st.booleans(), rnd=st.randoms(use_true_random=True))
    def test_every_step_of_any_stream(self, configs, audit_all, rnd):
        config_data, config = configs
        engine = DecisionEngine(config, audit_all=audit_all)
        state = initial_state(config_data)
        for event in random_stream(rnd):
            _, state = step_both(engine, state, config_data, event)

    @pytest.mark.parametrize("audit_all", [False, True], ids=["plain", "audit"])
    @pytest.mark.parametrize("path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.stem)
    def test_every_step_of_every_scenario(self, path, audit_all):
        # The scenario runner's request: the user's last emotion sample
        # (0, 0 until one is set) and the last context (an unspecified room
        # with both flags false until one is set).
        config_data, config = next(pair for pair in CONFIGS if pair[0] == SHIPPED)
        engine = DecisionEngine(config, audit_all=audit_all)
        state = initial_state(config_data)
        emotions, context = {}, {"room": "unspecified", "adult_present": False, "verbal_affirmation": False}
        for event in json.loads(path.read_text(encoding="utf-8"))["events"]:
            fields = {k: v for k, v in event.items() if k != "t"}
            if event["type"] == "set_emotion":
                emotions[event["user"]] = (float(event["valence"]), float(event["arousal"]))
            elif event["type"] == "set_context":
                context = {k: event[k] for k in context}
            elif event["type"] == "request":
                valence, arousal = emotions.get(event["user"], (0.0, 0.0))
                request = {**fields, **context, "valence": valence, "arousal": arousal, "now": event["t"]}
                decision, state = step_both(engine, state, config_data, request)
                assert decision["verdict"] == event.get("expect", decision["verdict"])
            else:
                _, state = step_both(engine, state, config_data, fields)


ZONES = ["green", "yellow", "orange", "red"]
#: The bounds a drawn rectangle takes when it takes no arbitrary float, so
#: that edges often meet.
BOUNDS = [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]
_BOUND = st.one_of(st.sampled_from(BOUNDS), st.floats(-1, 1))
_SPAN = st.lists(_BOUND, min_size=2, max_size=2).map(sorted)


@st.composite
def zone_tables(draw):
    """Zone tables, most of which leave part of the square uncovered.

    Half are 1 to 6 rectangles, each of any zone, with each bound in BOUNDS
    or any float in [-1, 1]; sometimes one of them, at any place in the
    order, is the whole square. The other half are the shipped rectangles
    in any order with one to three bounds moved, as an edit of the shipped
    file would: a moved bound often opens a sliver between two rectangles
    whose edges all stay covered."""
    if draw(st.booleans()):
        rects = [dict(rect) for rect in draw(st.permutations(SHIPPED["zone_table"]))]
        for _ in range(draw(st.integers(1, 3))):
            rect, axis = draw(st.sampled_from(rects)), draw(st.sampled_from("va"))
            rect[draw(st.sampled_from([axis + "_lo", axis + "_hi"]))] = draw(_BOUND)
            rect[axis + "_lo"], rect[axis + "_hi"] = sorted([rect[axis + "_lo"], rect[axis + "_hi"]])
        return rects
    rects = draw(st.lists(
        st.builds(lambda zone, v, a: {"zone": zone, "v_lo": v[0], "v_hi": v[1], "a_lo": a[0], "a_hi": a[1]},
                  st.sampled_from(ZONES), _SPAN, _SPAN),
        min_size=1, max_size=6,
    ))
    if draw(st.booleans()):
        whole = {"zone": draw(st.sampled_from(ZONES)), "v_lo": -1.0, "v_hi": 1.0, "a_lo": -1.0, "a_hi": 1.0}
        rects[draw(st.integers(0, len(rects) - 1))] = whole
    return rects


def corners_and_edge_midpoints(table):
    """Each rectangle's four corners and the midpoints of its four edges."""
    points = []
    for r in table:
        valences = (r["v_lo"], (r["v_lo"] + r["v_hi"]) / 2, r["v_hi"])
        arousals = (r["a_lo"], (r["a_lo"] + r["a_hi"]) / 2, r["a_hi"])
        points += [(v, a) for i, v in enumerate(valences) for j, a in enumerate(arousals) if (i, j) != (1, 1)]
    return points


class TestDrawnZoneTables:
    """The shipped household under any zone table that validates, with
    one sample in two on a corner or an edge midpoint of a drawn rectangle:
    every step of the engine and of the reference agrees."""

    @settings(max_examples=300, deadline=None)
    @given(table=zone_tables(), audit_all=st.booleans(), rnd=st.randoms(use_true_random=True))
    def test_every_step_of_any_stream(self, table, audit_all, rnd):
        config_data = {**SHIPPED, "zone_table": table}
        config = PolicyConfig.from_dict(config_data)
        assume(config.validate().ok)
        engine = DecisionEngine(config, audit_all=audit_all)
        state = initial_state(config_data)
        for event in random_stream(rnd, corners_and_edge_midpoints(table)):
            _, state = step_both(engine, state, config_data, event)


#: A cool-down duration: one at or beside the shipped ones, any up to a
#: million seconds, or one of the most digits a config may write.
_DURATION = st.one_of(st.sampled_from([1, 60, 1799, 1800, 1801, 14400]), st.integers(1, 10**6), st.just(10**4298))


class TestDrawnDurations:
    """The shipped household under either cool-down scope with both
    durations drawn, and every step between events 0, 1 or a duration's
    end or one second either side of it: every step of the engine and of
    the reference agrees."""

    @settings(max_examples=300, deadline=None)
    @given(
        scope=st.sampled_from(["user", "roster"]), dangerous=_DURATION, mind_altering=_DURATION,
        audit_all=st.booleans(), rnd=st.randoms(use_true_random=True),
    )
    def test_every_step_of_any_stream(self, scope, dangerous, mind_altering, audit_all, rnd):
        durations = {"dangerous_s": dangerous, "mind_altering_s": mind_altering}
        config_data = {**SHIPPED, "cooldown_scope": scope, "durations": durations}
        config = PolicyConfig.from_dict(config_data)
        assert config.validate().ok
        engine = DecisionEngine(config, audit_all=audit_all)
        state = initial_state(config_data)
        gaps = [0, 1] + [d + step for d in durations.values() for step in (-1, 0, 1)]
        for event in random_stream(rnd, gaps=gaps):
            _, state = step_both(engine, state, config_data, event)


NAMES = ["alice", "bob", "carol", "dave", "erin", "grace", "henry", "ivan"]
RELATIONSHIPS = ["household", "family", "friend", "unknown"]


@st.composite
def households(draw):
    """The shipped catalog, rules, matrix and zone table with a drawn
    household: an adult threshold of 14 or more; 1 to 8 users of any
    relationship, whose ages are often under 5, 5, 12, 13, the threshold
    less one or the threshold; an owner and designators among the household
    users; and tags of catalog objects by the owner or a designator, with
    grants to users of 5 or more. Objects and users state no personal_owner
    or admin_role, which the config derives."""
    threshold = draw(st.one_of(st.sampled_from([14, 19, 21]), st.integers(14, 130)))
    ages = st.one_of(st.integers(0, 4), st.sampled_from([5, 12, 13, threshold - 1, threshold]), st.integers(0, 130))
    users = [
        {"user_id": user_id, "age_years": draw(ages), "relationship": draw(st.sampled_from(RELATIONSHIPS)),
         "allergies": draw(st.sampled_from([[], ["peanut"]]))}
        for user_id in draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=8, unique=True))
    ]
    household = [user["user_id"] for user in users if user["relationship"] == "household"]
    # With no household user, the owner is any user, which validate() refuses.
    owner = draw(st.sampled_from(household or [users[0]["user_id"]]))
    designators = draw(st.lists(st.sampled_from(household), unique=True)) if household else []
    eligible = [user["user_id"] for user in users if user["age_years"] >= 5]
    tags = [
        {"object_id": object_id, "tagged_by": draw(st.sampled_from([owner, *designators])),
         "grants": draw(st.lists(st.sampled_from(eligible), unique=True)) if eligible else []}
        for object_id in draw(st.lists(st.sampled_from(CATALOG), max_size=3, unique=True))
    ]
    return {
        **SHIPPED,
        "region": {"name": "drawn", "adult_age_threshold": threshold},
        "cooldown_scope": draw(st.sampled_from(["user", "roster"])),
        "objects": [{k: v for k, v in obj.items() if k != "personal_owner"} for obj in SHIPPED["objects"]],
        "users": users,
        "admin": {"owner": owner, "designators": designators},
        "personal_tags": tags,
    }


class TestDrawnHouseholds:
    """The shipped tables under any household that validates: every step
    of the engine and of the reference agrees, in plain and audit_all mode,
    from the configured tags and grants on."""

    @settings(max_examples=300, deadline=None)
    @given(data=households(), rnd=st.randoms(use_true_random=True))
    def test_every_step_of_any_stream(self, data, rnd):
        config = PolicyConfig.from_dict(data)
        assume(config.validate().ok)
        config_data = config.to_dict()
        users = [user["user_id"] for user in config_data["users"]]
        # The designators, a user who may not tag if there is one, and a stranger.
        designators = sorted(config.admin.all_designators())
        actors = designators + [user for user in users if user not in designators][:1] + ["mallory"]
        for audit_all in (False, True):
            engine = DecisionEngine(config, audit_all=audit_all)
            state = initial_state(config_data)
            assert engine.registry.snapshot() == state["registry"]
            for event in random_stream(rnd, users=users, actors=actors):
                _, state = step_both(engine, state, config_data, event)


#: Ids a drawn catalog takes besides the diary: the shipped ones and two new.
OBJECT_IDS = [object_id for object_id in CATALOG if object_id != "diary"] + ["kite", "milk"]
SAFETY_CLASSES = ["dangerous", "mind_altering", "neither"]
CATEGORIES = ["vehicle", "craft", "food", "medicine", "kitchen"]
ALLERGENS = ["peanut", "dairy"]
CATEGORY_CHECKS = ["allergy_screen", "adult_present_for_child_tier", "verbal_affirmation"]


@st.composite
def catalogs(draw):
    """The shipped household, matrix, zone table and tags with a drawn
    catalog and category rules: 1 to 9 objects, the diary the shipped tag
    names among them, each of any safety class, a category from CATEGORIES
    and allergens among ALLERGENS; each user's allergies among ALLERGENS;
    and 0 to 5 rules, each for a catalog category or `*`, with any extra
    checks and either no rooms or any set of ROOMS. Objects and users state
    no personal_owner or admin_role, which the config derives."""
    object_ids = draw(st.lists(st.sampled_from(OBJECT_IDS), max_size=8, unique=True))
    object_ids.insert(draw(st.integers(0, len(object_ids))), "diary")
    allergens = st.lists(st.sampled_from(ALLERGENS), unique=True)
    objects = [
        {"object_id": object_id, "safety_class": draw(st.sampled_from(SAFETY_CLASSES)),
         "category": draw(st.sampled_from(CATEGORIES)), "allergen_tags": draw(allergens)}
        for object_id in object_ids
    ]
    rules = [
        {"category": draw(st.sampled_from(sorted({obj["category"] for obj in objects}) + ["*"])),
         "extra_checks": draw(st.lists(st.sampled_from(CATEGORY_CHECKS), unique=True)),
         "appropriate_rooms": draw(st.none() | st.lists(st.sampled_from(ROOMS), unique=True))}
        for _ in range(draw(st.integers(0, 5)))
    ]
    users = [
        {**{k: v for k, v in user.items() if k != "admin_role"}, "allergies": draw(allergens)}
        for user in SHIPPED["users"]
    ]
    return {**SHIPPED, "objects": objects, "category_rules": rules, "users": users}


class TestDrawnCatalogs:
    """The shipped household and tables under any catalog and category
    rules that validate: every step of the engine and of the reference
    agrees, in plain and audit_all mode, with requests and writes drawn
    from the drawn catalog."""

    @settings(max_examples=300, deadline=None)
    @given(data=catalogs(), rnd=st.randoms(use_true_random=True))
    def test_every_step_of_any_stream(self, data, rnd):
        config = PolicyConfig.from_dict(data)
        assume(config.validate().ok)
        config_data = config.to_dict()
        objects = [obj["object_id"] for obj in config_data["objects"]]
        for audit_all in (False, True):
            engine = DecisionEngine(config, audit_all=audit_all)
            state = initial_state(config_data)
            for event in random_stream(rnd, objects=objects):
                _, state = step_both(engine, state, config_data, event)


class TestDrawnMatrices:
    """The shipped household, catalog, rules, zone table and tags under
    either scope and any matrix drawn_matrix draws that validates: every
    step of the engine and of the reference agrees, in plain and audit_all
    mode."""

    # Both draws are a Random that hypothesis seeds: it draws a matrix in
    # about a millisecond, where hypothesis's own draws take fifty.
    @settings(max_examples=300, deadline=None)
    @given(
        draw=st.randoms(use_true_random=True), scope=st.sampled_from(["user", "roster"]),
        rnd=st.randoms(use_true_random=True),
    )
    def test_every_step_of_any_stream(self, draw, scope, rnd):
        config_data = {**SHIPPED, "cooldown_scope": scope, "matrix": drawn_matrix(draw)}
        config = PolicyConfig.from_dict(config_data)
        assume(config.validate().ok)
        for audit_all in (False, True):
            engine = DecisionEngine(config, audit_all=audit_all)
            state = initial_state(config_data)
            for event in random_stream(rnd):
                _, state = step_both(engine, state, config_data, event)

    def test_the_drawn_household_has_rows_with_adult_present_and_with_every_check(self):
        data, config = CONFIGS[CONFIG_IDS.index("drawn-matrix")]
        assert config.validate().ok
        checks = [set(row["required_checks"]) for row in data["matrix"]]
        assert any("adult_present" in row for row in checks)
        assert set(MATRIX_CHECKS) in checks
