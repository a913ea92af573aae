#!/usr/bin/env python3
"""fetchguard benchmark: audited-decision latency, history growth, audit replay.

Run from the root of a fetchguard checkout; stdlib only, nothing to build:

    python3 perfbench/run.py --workload household_mix --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload once
untraced and once with per-layer spans installed, and prints the per-layer
metrics. Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Workloads: household_mix, history_heavy, audit_replay (see
DESIGN.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fetchguard" / "__init__.py").is_file() or not (
        ROOT / "configs" / "default.json"
    ).is_file():
        print(
            f"perfbench: {ROOT} is not a fetchguard checkout "
            "(it needs src/fetchguard and configs/default.json)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = workloads.Run(ROOT, workdir, args.seed, args.seconds)
    try:
        metrics, info = (bench.profile if args.trace else bench.measure)(run, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there

    failed = len(run.failed_ops)
    info["failed_ratio"] = (failed / run.attempted, "1")
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (value, unit) in {**metrics, **info}.items():
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>16} {unit}")
    for problem in run.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
