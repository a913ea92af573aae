"""The three benchmark workloads and the checks on their outputs.

One engine is driven by one caller on a closed loop: one robot serializes
its requests, and DecisionEngine is single-writer. Each request is decided,
its trace serialized and appended to a JSONL log before the next is sent.

The timed part of a run is a fixed number of rounds, set by the workload
and --seconds, never by how fast the program or the machine is. The work of
a run, and the state it leaves behind (history_heavy's growing population),
are then the same on every commit. Each round times a full collection,
every other round a cold start (load configs/default.json, validate,
fingerprint, build an engine), one chunk of decisions and one chunk of
verifications, so every metric is sampled across the whole run. Every
timed operation is bracketed by two speed probes, which give the factor
that takes its time to reference speed, and is run twice, keeping the
faster run (see Timings and DESIGN.md).

- household_mix verifies the lines it has just written, so every trace of
  the run is verified once. history_heavy verifies its log from the top at
  half the pace it writes it.
- audit_replay writes a log in untimed set-up, tampers with some of its
  lines, and replays that log round after round, while the engine goes on
  deciding a smaller chunk of new requests per round.

Each decision is checked as soon as it is made, outside its timed
interval: a twin engine fed the same inputs must have made the same
decision and written the same trace line, and the invariants are tested
on it. Nothing is kept per decision but its latency and speed factor, so
the benchmark's own memory hardly grows with the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import statistics
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import thread_time_ns

import fetchguard.engine as fg_engine
from fetchguard import (
    DecisionEngine,
    DecisionTrace,
    PolicyConfig,
    SafetyClass,
    default_config,
    read_traces,
    write_traces,
)
from fetchguard.errors import FetchguardError
from fetchguard.model import MIN_ELIGIBLE_AGE
from fetchguard.ordering import VEHICLE_CATEGORY

from mix import EventStream, Write

WARMUP_EVENTS = 400
# Above any count of young collections a run reaches: the cyclic GC's full
# collections never start on their own (see run_session).
NO_AUTOMATIC_FULL_GC = 2**31 - 1


@dataclass(frozen=True)
class Workload:
    name: str
    prefix: str
    # Decisions and verifications per round.
    decide_chunk: int
    verify_chunk: int
    # Rounds per second of --seconds. Set so that the timed phase of a run
    # lasts about --seconds on the machine the benchmark was built on
    # (DESIGN.md); a faster program does the same rounds in less time.
    rounds_per_s: float
    # The decision digest covers the first this-many decisions of the run.
    digest_decisions: int
    # Requesters decide() has already seen before timing starts; every
    # new_user_every-th timed request comes from a requester never seen
    # before.
    population: int = 0
    new_user_every: int = 0
    # audit_replay: lines of the log written in set-up and replayed, the
    # share of them tampered with, and the size of the blocks of which
    # about a third are decided with audit_all=True.
    replay_lines: int = 0
    tamper_share: float = 0.0
    audit_block: int = 0

    def rounds(self, seconds: float) -> int:
        """Rounds of a run: --seconds' worth, and enough that the digest's
        decisions exist."""
        timed_digest = max(0, self.digest_decisions - self.replay_lines)
        return max(math.ceil(seconds * self.rounds_per_s), math.ceil(timed_digest / self.decide_chunk))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "household_mix",
            "hm",
            decide_chunk=100,
            verify_chunk=100,
            rounds_per_s=2.5,
            digest_decisions=2000,
        ),
        Workload(
            "history_heavy",
            "hh",
            decide_chunk=40,
            verify_chunk=20,
            rounds_per_s=3.0,
            digest_decisions=500,
            population=500,
            new_user_every=20,
        ),
        Workload(
            "audit_replay",
            "ar",
            decide_chunk=40,
            verify_chunk=100,
            rounds_per_s=2.5,
            digest_decisions=4000,
            replay_lines=4000,
            tamper_share=0.02,
            audit_block=100,
        ),
    )
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: its inputs, failure accounting and tracer."""

    def __init__(self, root: Path, workdir: Path, seed: int, seconds: float):
        self.config_path = root / "configs" / "default.json"
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.tracer = None
        self.config: PolicyConfig | None = None
        self.expected_fingerprint = default_config().fingerprint()
        self.rss_before_setup_mb = peak_rss_mb()
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list[str] = []

    def set_phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(message)

    def cold_start(self) -> float:
        """One cold start in ns at reference speed. validate() is memoized
        per PolicyConfig, so each one loads a fresh config from the file."""
        self.attempted += 1
        before = speed_probe()
        self.set_phase("setup")
        start = thread_time_ns()
        config = PolicyConfig.load(self.config_path)
        report = config.validate()
        fingerprint = config.fingerprint()
        DecisionEngine(config)
        elapsed = thread_time_ns() - start
        self.set_phase("other")
        elapsed *= speed_factor(before, speed_probe())
        if not report.ok or fingerprint != self.expected_fingerprint:
            self.fail(("setup", self.attempted), "configs/default.json is not default_config()")
        return elapsed

    def load_config(self) -> None:
        self.config = PolicyConfig.load(self.config_path)
        self.config.validate()


class Decider:
    """One engine fed one seeded event stream, appending every trace to a
    JSONL log. Registry writes come mixed into the stream. A twin engine,
    built the same way and fed the same events, decides every request just
    before it and appends to a log of its own. The two runs of a request are
    the same work, and the faster one is the decision's latency (see
    Timings)."""

    def __init__(self, run: Run, workload: Workload, log_path: Path):
        self.run = run
        self.workload = workload
        self.engine, self.stream = fresh_engine(run, workload)
        self.twin, _ = fresh_engine(run, workload)
        self.log_path = log_path
        self.log = open(log_path, "w", encoding="utf-8")
        self.twin_log = open(log_path.with_suffix(".twin.jsonl"), "w", encoding="utf-8")
        self.decided = 0
        self._digest = hashlib.sha256()
        self._objects = {o.object_id: o for o in run.config.objects}
        self._ages = {u.user_id: u.age_years for u in run.config.users}
        self._mind_altering_until: dict[str, int] = {}
        # Of the timed decisions and writes only.
        self.timings = Timings()
        self.trace_bytes = 0
        self.denies: Counter[str] = Counter()
        self.writes = 0
        self.writes_refused = 0
        # Filled in traced runs only.
        self.records = 0
        self.pre_state_bytes = 0
        self.event_bytes = 0

    def close(self) -> None:
        self.log.close()
        self.twin_log.close()

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of the first digest_decisions
        decisions, not the trace bytes, so that it survives a change of
        trace format."""
        return self._digest.hexdigest()

    def decide(self, count: int, timed: bool = True) -> None:
        run, engine, twin = self.run, self.engine, self.twin
        traced = run.tracer is not None
        done = 0
        while done < count:
            event = self.stream.next_event()
            if isinstance(event, Write):
                self.write(event, timed)
                continue
            engine.audit_all = twin.audit_all = audit_all(run, self.workload, self.decided)
            before = speed_probe() if timed else 0
            t0 = thread_time_ns()
            again, twin_trace = twin.decide(event)
            twin_line = append(self.twin_log, twin_trace)
            t1 = thread_time_ns()
            # Only the engine's decisions count in the per-layer spans.
            run.set_phase("decide" if timed else "other")
            t2 = thread_time_ns()
            decision, trace = engine.decide(event)
            line = append(self.log, trace)
            t3 = thread_time_ns()
            run.set_phase("other")
            if timed:
                self.timings.add(min(t1 - t0, t3 - t2), speed_factor(before, speed_probe()))
            done += 1
            if twin_line != line:
                run.fail(("decide", self.decided), f"{event.request_id}: twin wrote another trace line")
            self.check(event, decision, again)
            if not timed:
                continue
            self.trace_bytes += len(line)
            if decision.verdict == fg_engine.DENY:
                self.denies[decision.deciding_policy] += 1
            if traced:
                self.records += len(trace.pre_state["cooldowns"]["users"])
                self.pre_state_bytes += len(fg_engine.canonical_json(trace.pre_state))
                self.event_bytes += len(fg_engine.canonical_json(trace.events))

    def write(self, event: Write, timed: bool) -> None:
        self.run.attempted += 1
        ok = apply_write(self.engine, event)
        if apply_write(self.twin, event) != ok or ok != event.expect_ok:
            self.run.fail(("write", self.run.attempted), f"registry write {event} gave ok={ok}")
        if timed:
            self.writes += 1
            self.writes_refused += not ok

    def check(self, event, decision, again) -> None:
        """Compare Decision.to_dict() with the twin's decision; test the
        invariants that hold for any traffic: under-5s and unknown objects
        are denied at the eligibility gate, and vehicles inside the
        requester's mind-altering window are denied."""
        run = self.run
        run.attempted += 1
        op = ("decide", self.decided)
        first = decision.to_dict()
        again = again.to_dict()
        if again != first:
            run.fail(op, f"{event.request_id}: twin decided {again} != {first}")
        if self.decided < self.workload.digest_decisions:
            self._digest.update(fg_engine.canonical_json(first).encode())
            self._digest.update(b"\n")
        self.decided += 1
        denied = decision.verdict == fg_engine.DENY
        ineligible = denied and decision.deciding_policy == "eligibility"
        obj = self._objects.get(event.object_id)
        if obj is None and not ineligible:
            run.fail(op, f"{event.request_id}: unknown object not denied at eligibility")
        if self._ages.get(event.user_id, MIN_ELIGIBLE_AGE) < MIN_ELIGIBLE_AGE and not ineligible:
            run.fail(op, f"{event.request_id}: under-5 requester not denied at eligibility")
        if obj is None:
            return
        in_window = self._mind_altering_until.get(event.user_id, 0) > event.now
        if obj.category == VEHICLE_CATEGORY and in_window and not denied:
            run.fail(op, f"{event.request_id}: vehicle allowed in a mind-altering window")
        if obj.safety_class is SafetyClass.MIND_ALTERING:
            self._mind_altering_until[event.user_id] = (
                event.now + run.config.durations.mind_altering
            )


class Verifier:
    """Reads trace lines back, parses them and runs verify_trace. A line
    listed in `tampered` must fail to verify and every other line must
    pass. With cycle=True the log is replayed from the top at its end."""

    def __init__(self, run: Run, log_path: Path, tampered: set[int], cycle: bool):
        self.run = run
        self.fh = open(log_path, encoding="utf-8")
        self.tampered = tampered
        self.cycle = cycle
        self.line = 0
        self.timings = Timings()

    def close(self) -> None:
        self.fh.close()

    def verify(self, count: int) -> None:
        """Verify the next `count` lines. Each line is parsed and verified
        twice, and the faster run is its latency (see Timings)."""
        run = self.run
        done = 0
        while done < count:
            line = self.fh.readline()
            if not line:
                if not self.cycle:
                    raise RuntimeError(f"log ended at line {self.line}; nothing left to verify")
                self.fh.seek(0)
                self.line = 0
                continue
            before = speed_probe()
            run.set_phase("verify")
            t0 = thread_time_ns()
            result = verify_line(line, run.config)
            t1 = thread_time_ns()
            again = verify_line(line, run.config)
            t2 = thread_time_ns()
            run.set_phase("other")
            self.timings.add(min(t1 - t0, t2 - t1), speed_factor(before, speed_probe()))
            run.attempted += 1
            done += 1
            tampered = self.line in self.tampered
            if result.ok == tampered or again.ok != result.ok:
                run.fail(
                    ("verify", run.attempted),
                    f"log line {self.line}: verify ok={result.ok}, tampered={tampered}",
                )
            self.line += 1


@dataclass
class Session:
    decider: Decider
    verifier: Verifier
    # Per round, the full collection; every other round, a cold start. Both
    # in ns at reference speed.
    full_gc_ns: list[float] = field(default_factory=list)
    setup_ns: list[float] = field(default_factory=list)

    def scaled(self, part: str) -> list[float]:
        """Every latency (ns) of `part`, decisions or verifications, at
        reference speed."""
        timings = self.decider.timings if part == "decisions" else self.verifier.timings
        return timings.scaled()

    def close(self) -> None:
        self.decider.close()
        self.verifier.close()


def run_session(run: Run, workload: Workload, name: str) -> Session:
    """Set up, then run the workload's fixed number of rounds.

    Full (generation 2) collections are moved out of the timed intervals:
    they never start on their own, and each round starts with one, untimed.
    A full collection walks the whole heap, the twin engine and the
    benchmark's own objects included, and where it lands depends on the
    benchmark's allocations as much as on the program's. On history_heavy
    it costs about 7.5 ms and landed on 0.5 to 1.5 % of timed decisions,
    so decision_us_p99 jumped between 3 and 7 ms from seed to seed. Young
    collections stay in the timed intervals."""
    gen0, gen1, _ = gc.get_threshold()
    gc.set_threshold(gen0, gen1, NO_AUTOMATIC_FULL_GC)
    run.load_config()
    warm_up(run)
    decider = Decider(run, workload, run.workdir / f"{name}.jsonl")
    if workload.replay_lines:
        decider.decide(workload.replay_lines, timed=False)
        replay = run.workdir / f"{name}.tampered.jsonl"
        tampered = tamper(run, workload, decider.log_path, replay)
        verifier = Verifier(run, replay, tampered, cycle=True)
    else:
        verifier = Verifier(run, decider.log_path, set(), cycle=False)
    session = Session(decider, verifier)
    for i in range(workload.rounds(run.seconds)):
        before = speed_probe()
        start = thread_time_ns()
        gc.collect()
        session.full_gc_ns.append((thread_time_ns() - start) * speed_factor(before, speed_probe()))
        if i % 2 == 0:
            session.setup_ns.append(run.cold_start())
        decider.decide(workload.decide_chunk)
        verifier.verify(workload.verify_chunk)
    session.close()
    return session


# -- machine speed ---------------------------------------------------------------

#: What speed_probe() takes at reference speed. Times are reported at that
#: speed: on a machine where the probe takes exactly this long, they equal
#: wall time.
REFERENCE_NS = 185_000


class Timings:
    """Latencies of one kind of timed operation, each with the factor that
    takes it to reference speed. The factor comes from a speed probe run
    just before the operation and one run just after it.

    Decisions and verifications are run twice, as the same work, between
    the two probes, and the faster run is kept: the machine only ever adds
    time to a run, by a burst of contention too short for the probes to
    see."""

    def __init__(self) -> None:
        self.ns = array("q")
        self.factors = array("d")

    def __len__(self) -> int:
        return len(self.ns)

    def add(self, elapsed_ns: int, factor: float) -> None:
        self.ns.append(elapsed_ns)
        self.factors.append(factor)

    def scaled(self) -> list[float]:
        return [t * k for t, k in zip(self.ns, self.factors)]


def speed_factor(before_ns: int, after_ns: int) -> float:
    """The factor that takes a time measured between two speed probes to
    reference speed."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def speed_probe() -> int:
    """Time, in ns, of a fixed piece of work that uses no fetchguard code,
    of the kinds decide() and verify_trace do: building, sorting and joining
    small dicts, tuples and strings in Python, and JSON and SHA-256 in C.
    No change to the program can change it, so the ratio of a measured
    time to it tracks the program's speed, not the machine's. The cyclic
    GC is off inside, so that the program's heap cannot slow the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time_ns()
        for _ in range(2):
            table = {}
            for i in range(60):
                table[f"key{i}"] = (i, str(i * 7))
            items = sorted(table.items(), key=lambda kv: kv[1][1])
            sum(v[0] for v in table.values()) + len(",".join(k for k, _ in items))
        records = {f"key{i}": {"n": i, "s": str(i * 7), "ok": i % 3 == 0} for i in range(30)}
        text = json.dumps(records, sort_keys=True, separators=(",", ":"))
        hashlib.sha256(text.encode()).hexdigest()
        sum(v["n"] for v in json.loads(text).values())
        return thread_time_ns() - start
    finally:
        if was_enabled:
            gc.enable()


# -- set-up helpers ----------------------------------------------------------------


def warm_up(run: Run) -> None:
    """Let the interpreter specialize the hot paths before timing."""
    engine = DecisionEngine(run.config)
    stream = EventStream(run.config, run.seed, "warmup")
    for _ in range(WARMUP_EVENTS):
        event = stream.next_event()
        if not isinstance(event, Write):
            engine.decide(event)[1].to_json()


def fresh_engine(run: Run, workload: Workload) -> tuple[DecisionEngine, EventStream]:
    """A new engine and stream, with the workload's remembered requesters
    already decided (untimed). They and their requests are the same on
    every seed, so that the state timing starts from is too; the seed
    varies the traffic after them. The stream's clock starts where theirs
    ended."""
    engine = DecisionEngine(run.config)
    stream = EventStream(run.config, run.seed, workload.prefix, workload.new_user_every)
    if workload.population:
        remembered = EventStream(run.config, 0, f"{workload.prefix}-remembered")
        for _ in range(workload.population):
            engine.decide(remembered.request(remembered.fresh_user()))
        stream.now = remembered.now
    return engine, stream


def append(log, trace: DecisionTrace) -> str:
    """Serialize a trace and append it to a JSONL log, flushed, so that the
    record exists before the robot acts. Returns the line."""
    line = trace.to_json()
    log.write(line)
    log.write("\n")
    log.flush()
    return line


def verify_line(line: str, config: PolicyConfig):
    return fg_engine.verify_trace(DecisionTrace.from_dict(json.loads(line)), config)


def apply_write(engine: DecisionEngine, write: Write) -> bool:
    try:
        if write.grantee is None:
            engine.apply_tag(write.actor, write.object_id)
        else:
            engine.apply_grant(write.actor, write.object_id, write.grantee)
    except FetchguardError:
        return False
    return True


def audit_all(run: Run, workload: Workload, decision: int) -> bool:
    """Whether the n-th decision is made with audit_all=True: a seeded
    third of the workload's blocks are."""
    if not workload.audit_block:
        return False
    block = f"audit:{run.seed}:{decision // workload.audit_block}"
    return hashlib.sha256(block.encode()).digest()[0] < 86


def tamper(run: Run, workload: Workload, source: Path, target: Path) -> set[int]:
    """Copy the log, editing a seeded ~tamper_share of its lines so that the
    engine cannot recompute them: a request field changes (the request is
    echoed in the knowledge_check event) or the verdict flips. Returns the
    indices of the edited lines."""
    rng = random.Random(f"tamper:{run.seed}")
    catalog = [o.object_id for o in run.config.objects]
    tampered = set()
    with open(source, encoding="utf-8") as src, open(target, "w", encoding="utf-8") as dst:
        for i, raw in enumerate(src):
            if rng.random() >= workload.tamper_share:
                dst.write(raw)
                continue
            data = json.loads(raw)
            request = data["request"]
            how = rng.randrange(4)
            if how == 0:
                decision = data["decision"]
                decision["verdict"] = "deny" if decision["verdict"] == "allow" else "allow"
            elif how == 1:
                request["object_id"] = rng.choice([o for o in catalog if o != request["object_id"]])
            elif how == 2:
                request["context"]["adult_present"] = not request["context"]["adult_present"]
            else:
                request["now"] += rng.randint(1, 600)
            dst.write(fg_engine.canonical_json(data))
            dst.write("\n")
            tampered.add(i)
    return tampered


def percentile_us(latencies_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    ordered = sorted(latencies_ns)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1000.0


# -- scaling checkpoints -------------------------------------------------------------

# (remembered users, decisions timed at that size)
SCALING_POINTS = ((0, 200), (100, 200), (1000, 40), (10000, 5))


def scaling(run: Run) -> dict[str, float]:
    """Per-decision cost (decide plus to_json, median, at reference speed)
    and trace bytes (mean) with n cool-down records already remembered.
    The records are loaded with restore_state, the path verify_trace uses,
    because reaching 10k users through decide() would take minutes."""
    config = run.config
    rng = random.Random(f"scaling:{run.seed}")
    out = {}
    for users, decisions in SCALING_POINTS:
        engine = DecisionEngine(config)
        if users:
            engine.restore_state(remembered_state(engine, users, rng))
        stream = EventStream(config, run.seed, f"scaling{users}")
        timings, nbytes = Timings(), 0
        while len(timings) < decisions:
            event = stream.next_event()
            if isinstance(event, Write):
                continue
            before = speed_probe()
            start = thread_time_ns()
            line = engine.decide(event)[1].to_json()
            timings.add(thread_time_ns() - start, speed_factor(before, speed_probe()))
            nbytes += len(line)
        out[f"scaling.decide_us.n{users}"] = statistics.median(timings.scaled()) / 1000.0
        out[f"scaling.trace_bytes.n{users}"] = nbytes / decisions
    return out


def remembered_state(engine: DecisionEngine, users: int, rng: random.Random) -> dict:
    records = {}
    for i in range(users):
        obj = rng.choice(engine.config.objects)
        active = {}
        if obj.safety_class is not SafetyClass.NEITHER and rng.random() < 0.5:
            active[obj.safety_class.value] = rng.randint(1, 20000)
        records[f"remembered-{i:05d}"] = {"last_requested": obj.object_id, "active": active}
    return {
        "cooldowns": {"scope": engine.config.cooldown_scope, "users": records},
        "personal_registry": engine.registry.snapshot(),
        "board_primed": True,
    }


# -- scenario I/O ----------------------------------------------------------------------

# Lines of a run's log that fetchguard.scenario reads and writes back, and
# how many times. history_heavy lines are about 40 KB, so this keeps the
# parsed traces to a few tens of MB.
SCENARIO_LINES = 100
SCENARIO_PASSES = 5


def scenario_io(run: Run, log_path: Path) -> dict[str, float]:
    """Per-line cost of fetchguard.scenario's read_traces and write_traces
    over the first SCENARIO_LINES lines of a run's log, median of
    SCENARIO_PASSES passes, at reference speed. These functions take whole
    files, so the timed loops, which handle one line at a time, cannot call
    them; they are timed here on their own. Writing back what was read must
    give the same bytes."""
    sample = run.workdir / "scenario.jsonl"
    copy = run.workdir / "scenario.out.jsonl"
    with open(log_path, encoding="utf-8") as src, open(sample, "w", encoding="utf-8") as dst:
        for _, line in zip(range(SCENARIO_LINES), src):
            dst.write(line)
    reads, writes = Timings(), Timings()
    for _ in range(SCENARIO_PASSES):
        before = speed_probe()
        start = thread_time_ns()
        traces = read_traces(sample)
        reads.add(thread_time_ns() - start, speed_factor(before, speed_probe()))
        before = speed_probe()
        start = thread_time_ns()
        write_traces(traces, copy)
        writes.add(thread_time_ns() - start, speed_factor(before, speed_probe()))
    run.attempted += 1
    if copy.read_bytes() != sample.read_bytes():
        run.fail(("scenario", 0), "write_traces(read_traces(log)) changed the log's bytes")
    per_line_us = 1 / len(traces) / 1000.0
    return {
        "scenario.read_line_us": statistics.median(reads.scaled()) * per_line_us,
        "scenario.write_line_us": statistics.median(writes.scaled()) * per_line_us,
    }
