"""Per-layer spans recorded from outside the package.

Tracer.install() replaces public callables of fetchguard's modules with
wrappers that time each call, at the place its caller looks it up: names
that engine.py imports by name are patched on fetchguard.engine, the
validators on fetchguard.config, methods on their classes, and the
behaviour-tree node classes' tick. uninstall() puts every original back.
Nothing under src/ changes, and the wrappers never touch a call's
arguments or result, so traces stay byte-identical.

Spans live in memory, keyed by (phase, name). A span's self time is its
duration minus the durations of the spans opened inside it. Calls made
while a scope span (engine.decide, engine.verify_trace) is open are also
counted per scope, so that ratios such as lookups per decision are taken
where the work happens.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

import fetchguard.bt as fg_bt
import fetchguard.config as fg_config
import fetchguard.engine as fg_engine
import fetchguard.ordering as fg_ordering
import fetchguard.privacy as fg_privacy

SCOPES = ("engine.decide", "engine.verify_trace")

# Tree nodes that get a span of their own. The Condition and Action leaves
# inside a gate are not spans, so a gate's self time covers its predicate,
# its violation leaf and building their trace events (the recorder runs
# inside tick), minus the spans of other layers those leaves call.
NODE_SPANS = {
    "per_request": "bt.tick",
    "knowledge_check": "bt.knowledge_check",
    "blackboard_update": "bt.blackboard_update",
    "eligibility_gate": "bt.eligibility_gate",
    "ordering_check": "bt.ordering_check",
    "emotion_check": "bt.emotion_check",
    "category_context_check": "bt.category_context_check",
    "personal_check": "bt.personal_check",
}

# (owner, attribute, span name).
CALL_SPANS = (
    (fg_engine, "zone_of", "emotion.zone_of"),
    (fg_engine, "matrix_lookup", "matrix.lookup"),
    (fg_engine, "category_checks", "matrix.category_checks"),
    (fg_engine, "classify_user_group", "model.classify_user_group"),
    (fg_engine, "verify_trace", "engine.verify_trace"),
    (fg_config, "validate_zone_table", "emotion.validate_zone_table"),
    (fg_config, "validate_matrix", "matrix.validate_matrix"),
    (fg_config, "validate_object_catalog", "model.validate_object_catalog"),
    (fg_config.PolicyConfig, "load", "config.parse"),
    (fg_config.PolicyConfig, "validate", "config.validate"),
    (fg_config.PolicyConfig, "fingerprint", "config.fingerprint"),
    (fg_config.PolicyConfig, "user_by_id", "config.lookup"),
    (fg_config.PolicyConfig, "object_by_id", "config.lookup"),
    (fg_engine.DecisionEngine, "__init__", "engine.build"),
    (fg_engine.DecisionEngine, "decide", "engine.decide"),
    (fg_engine.DecisionEngine, "restore_state", "engine.restore_state"),
    (fg_engine.DecisionTrace, "to_json", "engine.trace_to_json"),
    (fg_engine.DecisionTrace, "from_dict", "engine.trace_from_dict"),
    (fg_ordering.CooldownState, "snapshot", "ordering.snapshot"),
    (fg_ordering.CooldownState, "restore", "ordering.restore"),
    (fg_ordering.CooldownState, "active_cooldowns", "ordering.active_cooldowns"),
    (fg_privacy.PersonalRegistry, "snapshot", "privacy.snapshot"),
    (fg_privacy.PersonalRegistry, "personal_check", "privacy.personal_check"),
)

NODE_CLASSES = (fg_bt.Sequence, fg_bt.Fallback, fg_bt.Repeat, fg_bt.Condition, fg_bt.Action)


class Tracer:
    def __init__(self):
        self.phase = "other"
        # (phase, name) -> [calls, total ns, self ns]
        self.spans: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        # (phase, scope, name) -> calls made while that scope was open
        self.scoped: dict[tuple[str, str, str], int] = defaultdict(int)
        self.nodes_ticked: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._open_scopes: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        frame = [0]
        self._stack.append(frame)
        scope = name in SCOPES
        if scope:
            self._open_scopes.append(name)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self._stack.pop()
            if scope:
                self._open_scopes.pop()
            if self._stack:
                self._stack[-1][0] += elapsed
            span = self.spans[(self.phase, name)]
            span[0] += 1
            span[1] += elapsed
            span[2] += elapsed - frame[0]
            for open_scope in self._open_scopes:
                self.scoped[(self.phase, open_scope, name)] += 1

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in CALL_SPANS:
            self._patch(owner, attr, self._wrap(owner, attr, name))
        for cls in NODE_CLASSES:
            self._patch(cls, "tick", self._wrap_tick(cls.__dict__["tick"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name):
        original = _raw(owner, attr)
        call = self.call
        if isinstance(original, classmethod):
            func = original.__func__

            def wrapped_classmethod(cls, *args, **kwargs):
                return call(name, func, cls, *args, **kwargs)

            return classmethod(wrapped_classmethod)

        def wrapped(*args, **kwargs):
            return call(name, original, *args, **kwargs)

        return wrapped

    def _wrap_tick(self, original):
        call = self.call
        counts = self.nodes_ticked

        def tick(node, board, listener=None):
            counts[self.phase] += 1
            span = NODE_SPANS.get(node.name)
            if span is None:
                return original(node, board, listener)
            return call(span, original, node, board, listener)

        return tick

    # -- reading results -------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.spans[(phase, name)][0]

    def mean_us(self, phase: str, name: str, self_time: bool = False) -> float:
        calls, total, own = self.spans[(phase, name)]
        if not calls:
            return 0.0
        return (own if self_time else total) / calls / 1000.0

    def total_us(self, phase: str, name: str) -> float:
        return self.spans[(phase, name)][1] / 1000.0


def _raw(owner, attr):
    # A class's __dict__ holds the classmethod object itself; getattr would
    # hand back a bound method.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)
