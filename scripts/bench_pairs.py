#!/usr/bin/env python3
"""Paired benchmark runs of a base git ref against the working tree.

    python3 scripts/bench_pairs.py --workload audit_replay --seeds 31 32 33 --seconds 4 [--base HEAD]
    python3 scripts/bench_pairs.py --workload household_mix history_heavy audit_replay --seeds 31 32 --seconds 4

Both sides run from exports made with `git archive` into a temporary
directory, removed afterwards: the base ref's committed files, and the
working tree as `git add -A` would stage it, that is tracked edits and
untracked files that are not ignored. So neither side runs among the
checkout's caches and build leftovers, and the git index is left alone.
For each seed, and each workload in turn, perfbench/run.py runs once on
each side, one after the other; the side that runs first alternates from
seed to seed, the same way for every workload. Each run's end-to-end
metrics are printed as it ends, then one table per workload: for every
end-to-end metric that BENCHMARK.json lists, the base and change
medians, their ratio, the spread between the base runs' quartiles and
that between the change runs' quartiles, the number of pairs the change
won (ties count for neither side), the claim column: `met` when at
least ten pairs ran, the change won at least nine tenths of them and its
median beats the base's by more than the base quartile spread, `-`
otherwise; and the bound column: `past` when the change's median is
worse than the base's, in the direction the metric's `better` gives, by
more than the metric's relative `bound`, `ok` when it is not, `-` for a
metric with no bound.

Each pair also reads the decision_digest line each run prints and says
whether the two sides decided alike. That is only reported: a change that
means to decide otherwise differs on every pair.

Exits 1 as soon as a run's result line is not `correct` with 0 failed.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    pass


def result_of(stdout: str) -> dict[str, float]:
    """The metric values of a run.py result line, the last line of its
    output. Refuses a run whose checks failed or that failed an operation."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise RunFailed(f"no result line: {exc}") from exc
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunFailed(f"correct={result.get('correct')!r} failed={result.get('failed')!r}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def digest_of(stdout: str) -> str | None:
    """The decision_digest a run printed among its metric lines, or None
    if it printed none."""
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[0] == "decision_digest":
            return fields[1]
    return None


def decided(base: str | None, change: str | None) -> str:
    """Whether the two sides of a pair decided alike, by their digests."""
    if base is None or change is None:
        return "unknown"
    return "alike" if base == change else "differ"


def quartile_spread(values: list[float]) -> float:
    """Distance between the upper and lower quartile; 0 for one value."""
    if len(values) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(values, n=4, method="inclusive")
    return upper - lower


def number(value: float) -> str:
    """A metric value to six significant digits, so that a value of a few
    milliseconds in seconds and its spread can be read as well as a rate."""
    return f"{value:.6g}"


def table(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> str:
    """One row per end-to-end metric: base and change medians, change/base,
    the base and change quartile spreads, the pairs the change won, whether
    a gain in the metric is met and whether the change's median is past the
    metric's bound. `metrics` are BENCHMARK.json's end_to_end entries; `pairs` are
    (base, change) results."""
    rows = [("metric", "unit", "base", "change", "change/base", "base IQR", "change IQR", "change won", "claim", "bound")]
    for metric in metrics:
        name, lower_wins = metric["name"], metric["better"] == "lower"
        measured = [(base[name], change[name]) for base, change in pairs if name in base and name in change]
        if not measured:
            continue
        base_values, change_values = [b for b, _ in measured], [c for _, c in measured]
        base_median, change_median = statistics.median(base_values), statistics.median(change_values)
        won = sum((c < b) if lower_wins else (c > b) for b, c in measured)
        ratio = f"{change_median / base_median:.4f}" if base_median else "-"
        bound, spread = metric.get("bound"), quartile_spread(base_values)
        worse_by = change_median - base_median if lower_wins else base_median - change_median
        met = len(measured) >= 10 and 10 * won >= 9 * len(measured) and -worse_by > spread
        rows.append((
            name, metric["unit"], number(base_median), number(change_median), ratio,
            number(spread), number(quartile_spread(change_values)), f"{won}/{len(measured)}", "met" if met else "-",
            "-" if bound is None else "past" if worse_by > bound * base_median else "ok",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) if i == 0 else cell.rjust(width) for i, (cell, width) in enumerate(zip(row, widths)))
        for row in rows
    )


def git(*args: str, env: dict[str, str] | None = None) -> str:
    """The stripped output of a git command run in the repository."""
    done = subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def export(ref: str | None, dest: Path) -> None:
    """The committed files of `ref`, written under dest. With ref None, the
    working tree as `git add -A` would stage it, staged into a temporary
    index so that the real one is left alone."""
    if ref is None:
        with tempfile.TemporaryDirectory(prefix="bench_pairs-index-") as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            git("add", "-A", env=env)
            ref = git("write-tree", env=env)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"bench_pairs: cannot export {ref!r}")


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict[str, float], str | None]:
    """A run's metric values and decision digest."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        return result_of(done.stdout), digest_of(done.stdout)
    except RunFailed as exc:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench_pairs: {tree} seed {seed}: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git ref to compare against (default HEAD)")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    pairs = {workload: [] for workload in args.workload}
    differing = {workload: [] for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        base_tree, change_tree = Path(tmp, "base"), Path(tmp, "change")
        for ref, tree in ((args.base, base_tree), (None, change_tree)):
            tree.mkdir()
            export(ref, tree)
        for i, seed in enumerate(args.seeds):
            sides = [("base", base_tree), ("change", change_tree)]
            if i % 2:
                sides.reverse()
            for workload in args.workload:
                results, digests = {}, {}
                for side, tree in sides:
                    results[side], digests[side] = run(tree, workload, seed, args.seconds)
                    shown = " ".join(f"{m['name']}={number(results[side][m['name']])}"
                                     for m in metrics if m["name"] in results[side])
                    print(f"{workload} seed {seed} {side}: {shown}", flush=True)
                verdict = decided(digests["base"], digests["change"])
                print(f"{workload} seed {seed} decisions: {verdict}", flush=True)
                if verdict != "alike":
                    differing[workload].append(f"{seed} ({verdict})")
                pairs[workload].append((results["base"], results["change"]))
    for workload in args.workload:
        done, odd = pairs[workload], differing[workload]
        print(f"\n{workload}, {len(done)} pairs, --seconds {args.seconds:g}, base {args.base}")
        print(table(metrics, done))
        print(f"decided alike on {len(done) - len(odd)}/{len(done)} pairs"
              + (f"; not alike on seeds {', '.join(odd)}" if odd else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
