#!/usr/bin/env python3
"""Run every shipped scenario against the default config, in plain mode and
with audit_all, write its traces and verify that each written line, read
back, replays to the identical decision, and that writing back the traces
read gives the log's bytes.

Writes one trace file per scenario under out/, and one per scenario run
with audit_all under out/audit/, and prints a summary table. Exits nonzero
on any expectation mismatch, replay divergence or log that a read and a
write change.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # Runs from a checkout without installing the package.
    sys.path.insert(0, str(ROOT / "src"))
    from fetchguard import append_trace, default_config, load_scenario, read_traces
    from fetchguard import run_scenario, verify_trace, write_traces

    config = default_config()
    out_dir = ROOT / "out"
    (out_dir / "audit").mkdir(parents=True, exist_ok=True)
    failures = 0
    runs = [
        (load_scenario(path), audit_all)
        for path in sorted((ROOT / "scenarios").glob("*.json"))
        for audit_all in (False, True)
    ]
    for script, audit_all in runs:
        name = f"audit/{script.name}" if audit_all else script.name
        log = out_dir / f"{name}.jsonl"
        with open(log, "w", encoding="utf-8") as fh:
            result = run_scenario(config, script, lambda trace: append_trace(fh, trace), audit_all)
        written = log.read_bytes()
        # The lines as written, the way a `fetchguard run` log is audited.
        traces = read_traces(log)
        replay_ok = all(verify_trace(t, config).ok for t in traces)
        write_traces(traces, log)
        rewrite_ok = log.read_bytes() == written
        ok = result.ok and replay_ok and rewrite_ok
        failures += 0 if ok else 1
        print(
            f"{'ok ' if ok else 'FAIL'} {name:<56} {result.allowed:>2} allow {result.denied:>2} deny "
            f"replay={'ok' if replay_ok else 'DIVERGED'} rewrite={'ok' if rewrite_ok else 'CHANGED'}"
        )
        for mismatch in result.mismatches:
            print(f"      expected {mismatch.expected}, got {mismatch.got} ({mismatch.request_id})")
        for note in result.notes:
            print(f"      note: {note}")
    print(f"\ntraces written under {out_dir}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
