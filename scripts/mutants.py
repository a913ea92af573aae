#!/usr/bin/env python3
"""Mutation checks: each mutant is one wrong edit to the program that named
tests must catch.

    python3 scripts/mutants.py

The working tree as `git add -A` would stage it (on a clean checkout, the
committed files) is exported into a temporary directory, removed
afterwards, by scripts/bench_pairs.py's `export`. Every mutant's tests
first run once on the export as it is: if one fails there, a failure under
a mutant would mean nothing, and the script exits 1. Then each mutant is
applied alone: its file is restored as exported, its old text replaced by
its new text, and its tests run with `pytest -x`. Every run has a fixed
hash seed, a fixed hypothesis seed and an empty hypothesis database, so
that a result can be reproduced and does not depend on the runs before it.
Prints one line per mutant, with the test that failed:

- `killed`: a test failed;
- `survived`: every test passed, so no test tells the mutant from the
  program;
- `stale`: the old text does not occur exactly once in its file, or pytest
  neither passed nor failed a test (a test id it cannot find, an error at
  collection), so the entry no longer fits the code and must be updated.

Exits 1 unless every mutant is killed. A mutant that survives is a finding:
add the test that kills it, never weaken the mutant or drop its tests.
Stdlib and pytest only.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


class Mutant(NamedTuple):
    name: str
    #: The file it edits, relative to the repository root.
    file: str
    #: The text it replaces, which must occur exactly once in the file.
    old: str
    new: str
    #: The pytest ids of which at least one must fail.
    tests: tuple[str, ...]


#: The reference decider's agreement with the engine on every request class
#: of each household in tests/test_reference_engine.py's CONFIGS.
GRID = ("tests/test_request_grid.py::test_the_engine_agrees_with_the_reference_on_every_class",)

MUTANTS = (
    # The reference decider's mutants: the engine decides otherwise.
    Mutant(
        "gates: category_context and personal swapped", "src/fetchguard/formats.py",
        '    ("category_context", "category_context_check"),\n    ("personal", "personal_check"),\n',
        '    ("personal", "personal_check"),\n    ("category_context", "category_context_check"),\n',
        GRID,
    ),
    Mutant(
        "gates: ordering and emotion swapped", "src/fetchguard/formats.py",
        '    ("ordering", "ordering_check"),\n    ("emotion", "emotion_check"),\n',
        '    ("emotion", "emotion_check"),\n    ("ordering", "ordering_check"),\n',
        GRID,
    ),
    Mutant(
        "cool-downs armed only on allow", "src/fetchguard/engine.py",
        "            self.cooldowns.on_granted(request.user_id, st.obj, request.now, self.config.durations)\n",
        "            verdict == ALLOW and self.cooldowns.on_granted(request.user_id, st.obj, request.now, self.config.durations)\n",
        GRID,
    ),
    Mutant(
        "two-step escalation", "src/fetchguard/ordering.py",
        "_ESCALATE = Restriction(vehicle_ban=False, escalation_steps=1)",
        "_ESCALATE = Restriction(vehicle_ban=False, escalation_steps=2)",
        GRID,
    ),
    Mutant(
        "owner backdoor in the personal check", "src/fetchguard/engine.py",
        "        if not self.registry.personal_check(st.request.user_id, st.request.object_id):",
        "        if st.request.user_id != self.config.admin.owner"
        " and not self.registry.personal_check(st.request.user_id, st.request.object_id):",
        GRID,
    ),
    Mutant(
        "no vehicle ban", "src/fetchguard/engine.py",
        "        if restriction.vehicle_ban:",
        "        if False:",
        GRID,
    ),
    Mutant(
        "adult_present ignored in the row check", "src/fetchguard/matrix.py",
        "            passed = getattr(context, check)",
        '            passed = check == "adult_present" or getattr(context, check)',
        GRID,
    ),
    Mutant(
        "adult_present ignored in the child-tier rule", "src/fetchguard/matrix.py",
        "            if requester_group in CHILD_TIER and not context.adult_present:",
        "            if False:",
        GRID,
    ),
    Mutant(
        "child tier without family and friend children", "src/fetchguard/model.py",
        "CHILD_TIER = frozenset({UserGroup.HC, UserGroup.FAC, UserGroup.FRC})",
        "CHILD_TIER = frozenset({UserGroup.HC})",
        ("tests/test_matrix.py::TestCategoryChecks::test_child_tier_needs_adult_present",),
    ),
    # The one sharing rule of the cool-down state.
    Mutant(
        "roster scope: requesters the roster lacks keep records of their own", "src/fetchguard/ordering.py",
        "        if self.roster is not None and user_id not in self.roster:",
        "        if False:",
        ("tests/test_engine.py::TestStateIsBoundedByTheRoster",),
    ),
    # The line writer's and the decision table's mutants.
    Mutant(
        "frame template: request before pre_state", "src/fetchguard/engine.py",
        """f'"pre_state":{canonical_json(self.pre_state)},"request":{text},'""",
        """f'"request":{text},"pre_state":{canonical_json(self.pre_state)},'""",
        ("tests/test_verify.py::TestToJsonIsTheStdlibsJson",),
    ),
    Mutant(
        "decisions on unknown objects interned", "src/fetchguard/engine.py",
        "        if st.obj is None:\n            # Its reason names the unknown id, so it is not interned.\n",
        "        if False:\n            # Its reason names the unknown id, so it is not interned.\n",
        ("tests/test_engine.py::TestInternedDecisions::test_made_up_object_ids_add_no_entry",),
    ),
    Mutant(
        "frame template: audit_all type check dropped", "src/fetchguard/engine.py",
        "and type(self.audit_all) is bool and type(self.trace_version) is int",
        "and type(self.trace_version) is int",
        ("tests/test_verify.py::TestToJsonIsTheStdlibsJson::test_each_edit_of_one_of_two_traces_sharing_a_decision",),
    ),
    # The version 6 down-step.
    Mutant(
        "version 6 down-step ignores the audit outcome", "src/fetchguard/formats.py",
        '    return event.get("outcome") == "failure" or event["node"].replace("_ok", "_violation") in nodes',
        '    return event["node"].replace("_ok", "_violation") in nodes',
        ("tests/test_verify.py::TestAuditPassFailures",),
    ),
    # One rule, one home: the canonical writer, a decision's groups, a sensor
    # token, a matrix row's key.
    Mutant(
        "trace encoder allows NaN", "src/fetchguard/engine.py",
        "canonical_json = canonical_encoder(False)",
        "canonical_json = canonical_encoder(True)",
        ("tests/test_verify.py::TestStrictJson",),
    ),
    Mutant(
        "decision groups unsorted", "src/fetchguard/engine.py",
        '            "allowed_groups_at_leaf": sorted(self.allowed_groups_at_leaf),',
        '            "allowed_groups_at_leaf": list(self.allowed_groups_at_leaf),',
        ("tests/test_engine.py::TestInternedDecisions::test_the_memos_are_not_fields", "tests/test_golden.py"),
    ),
    Mutant(
        "sensor tokens: Infinity and -Infinity swapped", "src/fetchguard/emotion.py",
        '("Infinity" if value > 0 else "-Infinity")',
        '("-Infinity" if value > 0 else "Infinity")',
        ("tests/test_verify.py::TestStrictJson",),
    ),
    Mutant(
        "matrix row key looked up in the table after the reader", "src/fetchguard/config.py",
        "            key, entry = _read_row(row)\n",
        "            entry = _read_row(row)[1]\n"
        '            key = KEY_BY_TEXTS[tuple(row["cooldown"]), row["request_class"], row["zone"]]\n',
        ("tests/test_config.py::TestRowKeyTable::test_a_form_the_table_lacks_is_read_to_the_same_key",),
    ),
    # A run's log: each line on disk as it is decided, one run per log, and
    # an expectation that checks something.
    Mutant(
        "trace line not flushed", "src/fetchguard/log.py",
        "    log.flush()\n",
        "",
        ("tests/test_scenario_cli.py::TestRunner::test_each_trace_is_on_disk_as_it_is_decided",),
    ),
    Mutant(
        "run log opened for append", "src/fetchguard/cli.py",
        'with open(args.trace, "w", encoding="utf-8") as log:',
        'with open(args.trace, "a", encoding="utf-8") as log:',
        ("tests/test_scenario_cli.py::TestCliRun::test_a_second_run_replaces_the_first_runs_log",),
    ),
    Mutant(
        "null expect accepted", "src/fetchguard/scenario.py",
        'if "expect" in fields and fields["expect"] not in (ALLOW, DENY):',
        'if fields.get("expect") is not None and fields["expect"] not in (ALLOW, DENY):',
        ("tests/test_scenario_cli.py::TestParsing::test_a_null_expect_is_refused",),
    ),
    # A scenario's events: checked where they lie, each value of its exact
    # JSON type.
    Mutant(
        "scenario events copied at parse", "src/fetchguard/scenario.py",
        "events=tuple(raw_events))",
        "events=tuple(dict(raw) for raw in raw_events))",
        ("tests/test_scenario_cli.py::TestParsing::test_the_script_holds_the_events_it_was_given",),
    ),
    Mutant(
        "scenario field type tested with isinstance", "src/fetchguard/scenario.py",
        "        if type(fields[key]) not in types:\n",
        "        if not isinstance(fields[key], types):\n",
        (
            "tests/test_scenario_cli.py::TestParsing::test_a_json_bool_is_not_a_number",
            "tests/test_scenario_cli.py::TestParsing::test_a_subclass_of_a_json_type_is_refused",
        ),
    ),
    # One id lookup: validate() describes the user the engine reads.
    Mutant(
        "config lookups keep the last of two equal ids", "src/fetchguard/config.py",
        '{u.user_id: u for u in reversed(self.users)}',
        '{u.user_id: u for u in self.users}',
        ("tests/test_config.py::TestValidationFindings::test_findings_describe_the_first_of_two_equal_ids",),
    ),
    # One holder per fact: the audit pass starts after the failed stage's
    # index, and one reader refuses every JSON file no loader can read.
    Mutant(
        "audit pass re-evaluates the failed stage", "src/fetchguard/engine.py",
        "self._stages[st.failed + 1:]",
        "self._stages[st.failed:]",
        ("tests/test_engine.py::TestAuditMode::test_audit_mode_keeps_verdict_but_adds_events",),
    ),
    Mutant(
        "JSON loader lets a too-deep file through", "src/fetchguard/model.py",
        "        except (RecursionError, ValueError) as exc:\n",
        "        except ValueError as exc:\n",
        ("tests/test_scenario_cli.py::TestCliValidate::test_unparseable_config_exits_2[too_deep]",),
    ),
    # A context stamped after `now` fails closed.
    Mutant(
        "future-context rule deleted", "src/fetchguard/engine.py",
        "        if context.timestamp > req.now:\n",
        "        if False:\n",
        ("tests/test_engine.py::TestTighteningLaws::test_a_context_stamped_after_now_reads_both_flags_false",),
    ),
    # Zone-table coverage: a gap narrower than the space between two edges.
    Mutant(
        "zone-table validation without the midpoint probes", "src/fetchguard/emotion.py",
        "    return sorted(edges + [(lo + hi) / 2 for lo, hi in zip(edges, edges[1:])])",
        "    return edges",
        ("tests/test_emotion.py::TestValidation",),
    ),
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code for `tests` with -x in `tree`, and the id of the
    test that failed, if one did."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(tree / "src")}
    # Hypothesis replays the failing examples it saved in an earlier run.
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line[7:].split(" - ")[0] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else ""


def check(tree: Path, mutant: Mutant) -> tuple[str, str]:
    """killed, survived or stale (see the module's docstring), and the test
    that failed."""
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "stale", "old text not found exactly once"
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code, failed = run_tests(tree, mutant.tests)
    finally:
        path.write_text(original, encoding="utf-8")
    return {0: "survived", 1: "killed"}.get(code, "stale"), failed or f"pytest exit code {code}"


def main() -> int:
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        bench_pairs.export(None, tree)
        tests = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        code, failed = run_tests(tree, tests)
        if code != 0:
            print(f"the mutants' tests fail on the unmutated program: {failed or f'pytest exit code {code}'}",
                  file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            result, detail = check(tree, mutant)
            results.append(result)
            print(f"{result:<8} {time.perf_counter() - start:6.1f} s  {mutant.name}  ({detail})", flush=True)
    killed = results.count("killed")
    print(f"{killed}/{len(results)} killed")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
