"""The untraced run (end-to-end metrics) and the traced run (per-layer
metrics) of one workload. Each returns (metrics, info): metrics go into the
result line, info is printed for the reader only."""

from __future__ import annotations

import statistics
from pathlib import Path

import workloads as w
from spans import Tracer

GATE_NODES = (
    "knowledge_check",
    "blackboard_update",
    "eligibility_gate",
    "ordering_check",
    "emotion_check",
    "category_context_check",
    "personal_check",
)
DENY_POLICIES = ("eligibility", "ordering", "emotion", "category", "context", "personal")


def measure(run: w.Run, workload: w.Workload):
    session = w.run_session(run, workload, "run")
    # Read before the analysis below allocates anything.
    peak_rss_mb = w.peak_rss_mb()
    decided = session.decider
    decisions = session.scaled("decisions")
    verifications = session.scaled("verifications")
    setup = session.setup_ns
    metrics = {
        "decision_us_p50": (w.percentile_us(decisions, 0.50), "us"),
        "decision_us_p99": (w.percentile_us(decisions, 0.99), "us"),
        "decisions_per_s": (len(decisions) / (sum(decisions) / 1e9), "1/s"),
        "trace_bytes_mean": (decided.trace_bytes / len(decisions), "B"),
        "verify_us_p50": (w.percentile_us(verifications, 0.50), "us"),
        "verify_us_p99": (w.percentile_us(verifications, 0.99), "us"),
        "verified_per_s": (len(verifications) / (sum(verifications) / 1e9), "1/s"),
        "setup_s": (statistics.median(setup) / 1e9, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {
        "machine_speed": (statistics.median(decided.timings.factors), "x reference"),
        "unscaled_decision_us_p50": (w.percentile_us(decided.timings.ns, 0.50), "us"),
        "unscaled_verify_us_p50": (w.percentile_us(session.verifier.timings.ns, 0.50), "us"),
        "rss_before_setup_mb": (run.rss_before_setup_mb, "MB"),
        "full_gc_ms": (
            statistics.median(session.full_gc_ns) / 1e6,
            "ms per round",
        ),
        "rounds": (len(session.full_gc_ns), "count"),
        "decision_samples": (len(decisions), "count"),
        "verify_samples": (len(verifications), "count"),
        "decision_digest": (decided.digest(), "sha256"),
    }
    return metrics, info


def profile(run: w.Run, workload: w.Workload):
    """The workload once untraced and once with spans installed, then the
    scaling checkpoints. The two passes must write the same trace lines and
    make the same decisions."""
    plain = w.run_session(run, workload, "plain")
    tracer = Tracer()
    run.tracer = tracer
    tracer.install()
    try:
        session = w.run_session(run, workload, "traced")
    finally:
        tracer.uninstall()
        run.tracer = None
    decided = session.decider

    common = min(plain.decider.decided, decided.decided)
    if not same_lines(plain.decider.log_path, decided.log_path, common):
        run.problems.append("traced and untraced runs wrote different trace lines")
    digests = {d.digest() for d in (plain.decider, decided)}
    if len(digests) != 1:
        run.problems.append("traced and untraced runs made different decisions")

    scale = statistics.median([*decided.timings.factors, *session.verifier.timings.factors])
    metrics, missing = layer_metrics(tracer, decided, scale)
    if missing:
        run.problems.append(f"spans with no calls: {', '.join(sorted(missing))}")
    plain_p50 = decision_p50(plain)
    traced_p50 = decision_p50(session)
    metrics["trace_overhead_us"] = (traced_p50 - plain_p50, "us")
    for name, value in w.scenario_io(run, decided.log_path).items():
        metrics[name] = (value, "us")
    for name, value in w.scaling(run).items():
        metrics[name] = (value, "us" if name.startswith("scaling.decide_us") else "B")
    info = {
        "untraced_decision_us_p50": (plain_p50, "us"),
        "traced_decision_us_p50": (traced_p50, "us"),
        "trace_lines_compared": (common, "count"),
        "decision_digest": (digests.pop(), "sha256"),
    }
    return metrics, info


def decision_p50(session: w.Session) -> float:
    return w.percentile_us(session.scaled("decisions"), 0.50)


def same_lines(a: Path, b: Path, count: int) -> bool:
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        return all(fa.readline() == fb.readline() for _ in range(count))


def layer_metrics(tracer: Tracer, decided: w.Decider, scale: float):
    """Per-layer metrics of the traced pass: decision-side spans from the
    timed decisions, audit-side spans from the verifications, validators
    from the cold starts. Times are taken to reference speed by `scale`,
    the pass's median round factor. Also returns every span a metric reads
    that recorded no call, so that a moved import cannot silently read
    zero."""
    missing = set()

    def calls(phase, name):
        n = tracer.calls(phase, name)
        if not n:
            missing.add(f"{phase}:{name}")
        return n or 1

    def mean(phase, name, self_time=False):
        calls(phase, name)
        return tracer.mean_us(phase, name, self_time) * scale

    decides = calls("decide", "engine.decide")
    verifies = calls("verify", "engine.verify_trace")
    starts = calls("setup", "config.parse")
    if not tracer.nodes_ticked["decide"]:
        missing.add("decide:bt node ticks")
    n = len(decided.timings)

    m = {
        "bt.tick_us": (mean("decide", "bt.tick"), "us"),
        "bt.nodes_ticked": (tracer.nodes_ticked["decide"] / decides, "count"),
    }
    for node in GATE_NODES:
        m[f"bt.{node}.self_us"] = (mean("decide", f"bt.{node}", self_time=True), "us")
    m.update(
        {
            "engine.decide_self_us": (mean("decide", "engine.decide", self_time=True), "us"),
            "engine.trace_to_json_us": (mean("decide", "engine.trace_to_json"), "us"),
            "engine.trace_bytes.pre_state": (decided.pre_state_bytes / n, "B"),
            "engine.trace_bytes.events": (decided.event_bytes / n, "B"),
            "engine.build_us": (mean("setup", "engine.build", self_time=True), "us"),
            "engine.builds_per_verify": (
                tracer.scoped[("verify", "engine.verify_trace", "engine.build")] / verifies,
                "count",
            ),
            "engine.restore_state_us": (mean("verify", "engine.restore_state"), "us"),
            "engine.trace_from_dict_us": (mean("verify", "engine.trace_from_dict"), "us"),
            "engine.deny_ratio": (sum(decided.denies.values()) / n, "1"),
        }
    )
    for policy in DENY_POLICIES:
        m[f"engine.deny.{policy}"] = (decided.denies[policy] / n, "1")
    m.update(
        {
            "emotion.zone_of_us": (mean("decide", "emotion.zone_of"), "us"),
            "emotion.zone_of_calls": (
                tracer.scoped[("decide", "engine.decide", "emotion.zone_of")] / decides,
                "count",
            ),
            "emotion.validate_zone_table_us": (mean("setup", "emotion.validate_zone_table"), "us"),
            "matrix.lookup_us": (mean("decide", "matrix.lookup"), "us"),
            "matrix.category_checks_us": (mean("decide", "matrix.category_checks"), "us"),
            "matrix.validate_matrix_us": (mean("setup", "matrix.validate_matrix"), "us"),
            "ordering.snapshot_us": (mean("decide", "ordering.snapshot"), "us"),
            "ordering.records": (decided.records / n, "count"),
            "ordering.active_cooldowns_us": (mean("decide", "ordering.active_cooldowns"), "us"),
            "ordering.restore_us": (mean("verify", "ordering.restore"), "us"),
            "privacy.snapshot_us": (mean("decide", "privacy.snapshot"), "us"),
            "privacy.personal_check_us": (mean("decide", "privacy.personal_check"), "us"),
            "privacy.writes": (decided.writes, "count"),
            "privacy.writes_refused": (decided.writes_refused, "count"),
            "config.parse_us": (mean("setup", "config.parse"), "us"),
            # validate() is memoized, so only the first call of a cold start
            # does the work: this is per cold start, not per call.
            "config.validate_us": (
                tracer.total_us("setup", "config.validate") * scale / starts,
                "us",
            ),
            "config.fingerprint_us": (mean("setup", "config.fingerprint"), "us"),
            "config.fingerprint_calls_per_verify": (
                tracer.scoped[("verify", "engine.verify_trace", "config.fingerprint")] / verifies,
                "count",
            ),
            "config.lookup_us": (mean("decide", "config.lookup"), "us"),
            "config.lookups_per_decision": (
                tracer.scoped[("decide", "engine.decide", "config.lookup")] / decides,
                "count",
            ),
            "model.classify_user_group_us": (mean("decide", "model.classify_user_group"), "us"),
            "model.validate_object_catalog_us": (
                mean("setup", "model.validate_object_catalog"),
                "us",
            ),
        }
    )
    return m, missing
