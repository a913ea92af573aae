"""scripts/bench_pairs.py's result parsing, medians and table, on canned
run.py output, and its exports, on a throwaway git repository; nothing here
runs the benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "verify_us_p50", "unit": "us", "better": "lower", "bound": 0.15},
    {"name": "decisions_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "trace_bytes_mean", "unit": "B", "better": "lower", "bound": 0.1},
    {"name": "not_measured", "unit": "us", "better": "lower", "bound": 0.25},
]


def run_output(correct=True, failed=0, digest=None, **values):
    """What run.py prints: metric lines, the decision digest among the
    information lines, then one JSON result line."""
    result = {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "us"} for name, value in values.items()},
    }
    shown = "\n".join(f"  {name:<40} {value:>16.4f} us" for name, value in values.items())
    if digest is not None:
        shown += f"\n  {'decision_digest':<40} {digest:>16} sha256\n  {'failed_ratio':<40} {0.0:>16.4f} 1"
    return f"workload audit_replay  seed 1  seconds 4  trace 0\n{shown}\n{json.dumps(result)}\n"


class TestResultLine:
    def test_reads_the_metric_values_of_the_last_line(self):
        assert bench_pairs.result_of(run_output(verify_us_p50=100.5, decisions_per_s=9000.0)) == {
            "verify_us_p50": 100.5,
            "decisions_per_s": 9000.0,
        }

    @pytest.mark.parametrize(
        "output, why",
        [
            (run_output(correct=False, verify_us_p50=1.0), "correct=False failed=0"),
            (run_output(failed=3, verify_us_p50=1.0), "correct=True failed=3"),
            ("", "no result line"),
            ("perfbench: unknown workload 'x'\n", "no result line"),
        ],
    )
    def test_refuses_a_run_that_is_not_correct_with_none_failed(self, output, why):
        with pytest.raises(bench_pairs.RunFailed, match=why):
            bench_pairs.result_of(output)


class TestDecisionDigest:
    BASE = "9f" * 32
    CHANGE = "3c" * 32

    def test_reads_the_digest_line(self):
        assert bench_pairs.digest_of(run_output(digest=self.BASE, verify_us_p50=1.0)) == self.BASE

    def test_a_run_that_printed_no_digest_has_none(self):
        assert bench_pairs.digest_of(run_output(verify_us_p50=1.0)) is None

    def test_a_pair_is_alike_only_on_equal_digests(self):
        base, change = (bench_pairs.digest_of(run_output(digest=d)) for d in (self.BASE, self.CHANGE))
        assert bench_pairs.decided(base, base) == "alike"
        assert bench_pairs.decided(base, change) == "differ"
        assert bench_pairs.decided(base, None) == bench_pairs.decided(None, None) == "unknown"

    def test_differing_digests_do_not_fail_the_run(self):
        # Only the result line decides whether a run is refused.
        output = run_output(digest=self.CHANGE, verify_us_p50=1.0)
        assert bench_pairs.result_of(output) == {"verify_us_p50": 1.0}


class TestTable:
    PAIRS = [
        ({"verify_us_p50": 110.0, "decisions_per_s": 9000.0, "trace_bytes_mean": 1600.0},
         {"verify_us_p50": 100.0, "decisions_per_s": 9500.0, "trace_bytes_mean": 1600.0}),
        ({"verify_us_p50": 108.0, "decisions_per_s": 9100.0, "trace_bytes_mean": 1700.0},
         {"verify_us_p50": 109.0, "decisions_per_s": 9000.0, "trace_bytes_mean": 1700.0}),
        ({"verify_us_p50": 104.0, "decisions_per_s": 8800.0, "trace_bytes_mean": 1650.0},
         {"verify_us_p50": 98.0, "decisions_per_s": 9900.0, "trace_bytes_mean": 1650.0}),
        ({"verify_us_p50": 106.0, "decisions_per_s": 9200.0, "trace_bytes_mean": 1620.0},
         {"verify_us_p50": 99.0, "decisions_per_s": 9300.0, "trace_bytes_mean": 1620.0}),
    ]

    def rows(self):
        lines = bench_pairs.table(METRICS, self.PAIRS).splitlines()
        return {line.split()[0]: line.split()[1:] for line in lines}

    def test_medians_ratio_spread_and_wins(self):
        rows = self.rows()
        # Medians of four: the mean of the middle two. Quartiles interpolate
        # between the sorted values: 105.5 and 108.5 for the base, 98.75 and
        # 102.25 for the change.
        assert rows["verify_us_p50"] == ["us", "107", "99.5", "0.9299", "3", "3.5", "3/4", "-", "ok"]
        # Higher is better here: the change won where it read more.
        assert rows["decisions_per_s"] == ["1/s", "9050", "9400", "1.0387", "175", "375", "3/4", "-", "ok"]

    def test_a_tie_counts_for_neither_side(self):
        assert self.rows()["trace_bytes_mean"][-5:] == ["47.5", "47.5", "0/4", "-", "ok"]

    def test_a_metric_no_run_printed_gets_no_row(self):
        assert list(self.rows()) == ["metric", "verify_us_p50", "decisions_per_s", "trace_bytes_mean"]

    def test_a_cold_start_in_seconds_and_its_spread_can_be_read(self):
        setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        pairs = [({"setup_s": b}, {"setup_s": c}) for b, c in
                 ((0.001281, 0.001093), (0.001275, 0.001101), (0.001302, 0.001088), (0.001290, 0.001097))]
        row = bench_pairs.table([setup], pairs).splitlines()[1].split()
        assert row == ["setup_s", "s", "0.0012855", "0.001095", "0.8518", "1.35e-05", "6.25e-06", "4/4", "-", "ok"]

    @pytest.mark.parametrize(
        "metric, change, column",
        [
            # Lower is better: past when the change's median exceeds 1.15 x 100.
            ({"name": "m", "unit": "us", "better": "lower", "bound": 0.15}, 116.0, "past"),
            ({"name": "m", "unit": "us", "better": "lower", "bound": 0.15}, 114.0, "ok"),
            # Higher is better: past when it falls below 0.85 x 100.
            ({"name": "m", "unit": "1/s", "better": "higher", "bound": 0.15}, 84.0, "past"),
            ({"name": "m", "unit": "1/s", "better": "higher", "bound": 0.15}, 86.0, "ok"),
            # A large gain is never past the bound.
            ({"name": "m", "unit": "us", "better": "lower", "bound": 0.15}, 10.0, "ok"),
            ({"name": "m", "unit": "us", "better": "lower"}, 116.0, "-"),
        ],
        ids=["lower_past", "lower_within", "higher_past", "higher_within", "gain", "no_bound"],
    )
    def test_the_bound_column_says_whether_the_change_is_past_its_bound(self, metric, change, column):
        pairs = [({"m": 100.0}, {"m": change})] * 3
        assert bench_pairs.table([metric], pairs).splitlines()[1].split()[-1] == column

    def test_one_metric_past_its_bound_is_the_only_row_marked(self):
        # verify_us_p50's change median 99.5 becomes 123.5: more than 15 %
        # over the base's 107.
        pairs = [(base, {**change, "verify_us_p50": change["verify_us_p50"] + 24}) for base, change in self.PAIRS]
        lines = bench_pairs.table(METRICS, pairs).splitlines()
        assert lines[0].split()[-1] == "bound"
        assert {line.split()[0]: line.split()[-1] for line in lines[1:]} == {
            "verify_us_p50": "past", "decisions_per_s": "ok", "trace_bytes_mean": "ok",
        }

    def test_one_pair_has_no_spread(self):
        assert bench_pairs.quartile_spread([5.0]) == 0.0
        rows = bench_pairs.table(METRICS[:1], self.PAIRS[:1]).splitlines()
        assert rows[1].split() == ["verify_us_p50", "us", "110", "100", "0.9091", "0", "0", "1/1", "-", "ok"]


class TestClaim:
    """The claim column applies the rule a claimed gain is held to: at least
    ten pairs, at least nine tenths of them won, and a median gain larger
    than the base quartile spread."""

    METRIC = {"name": "m", "unit": "us", "better": "lower", "bound": 0.15}

    def claim(self, pairs, metric=METRIC):
        return bench_pairs.table([metric], pairs).splitlines()[1].split()[-2]

    @staticmethod
    def pairs(bases, won, n):
        """n pairs on the given base values; the change reads 10 lower on the
        first `won` pairs and 1 higher on the rest."""
        return [({"m": b}, {"m": b - 10 if i < won else b + 1}) for i, b in enumerate(bases[:n])]

    BASES = [100.0, 101.0, 102.0, 99.0, 100.5, 101.5, 98.5, 100.0, 99.5, 100.0]

    def test_the_header_names_the_column_before_the_bound(self):
        assert bench_pairs.table([self.METRIC], self.pairs(self.BASES, 10, 10)).splitlines()[0].split()[-2:] == [
            "claim", "bound",
        ]

    def test_nine_of_ten_won_is_met(self):
        assert self.claim(self.pairs(self.BASES, 9, 10)) == "met"

    def test_eight_of_ten_won_is_not(self):
        assert self.claim(self.pairs(self.BASES, 8, 10)) == "-"

    def test_nine_of_nine_won_is_too_few_pairs(self):
        assert self.claim(self.pairs(self.BASES, 9, 9)) == "-"

    def test_a_gain_equal_to_the_spread_is_not_met(self):
        # Base quartiles 98.25 and 102.75: a spread of 4.5. The change wins
        # every pair, and its median is lower by exactly 4.5, then by 5.
        bases = [float(b) for b in range(96, 106)]
        assert bench_pairs.quartile_spread(bases) == 4.5
        pairs = [({"m": b}, {"m": b - 4.5}) for b in bases]
        assert self.claim(pairs) == "-"
        assert self.claim([(base, {"m": change["m"] - 0.5}) for base, change in pairs]) == "met"

    def test_higher_is_better_wins_upwards(self):
        metric = {"name": "m", "unit": "1/s", "better": "higher", "bound": 0.15}
        pairs = [({"m": b}, {"m": b + 10}) for b in self.BASES]
        assert self.claim(pairs, metric) == "met"
        assert self.claim([(change, base) for base, change in pairs], metric) == "-"


class TestSeveralWorkloads:
    """main() with run() and export() replaced: which runs it makes, in
    what order, and the table it prints for each workload."""

    def run_main(self, monkeypatch, capsys, workloads, seeds):
        calls = []

        def fake_run(tree, workload, seed, seconds):
            side = tree.name
            calls.append((workload, seed, side))
            # The change is 10 us faster on every pair of every workload.
            verify = 100.0 + seed + (len(workload) if side == "base" else len(workload) - 10)
            return {"verify_us_p50": verify}, "ab" * 32

        monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: None)
        monkeypatch.setattr(bench_pairs, "run", fake_run)
        argv = ["--workload", *workloads, "--seeds", *map(str, seeds), "--seconds", "0.5"]
        assert bench_pairs.main(argv) == 0
        return calls, capsys.readouterr().out

    def test_each_seed_runs_every_workload_with_the_sides_alternating_by_seed(self, monkeypatch, capsys):
        calls, _ = self.run_main(monkeypatch, capsys, ["audit_replay", "household_mix"], [31, 32, 33])
        first = {("base", "change"): "base", ("change", "base"): "change"}
        order = [(calls[i][:2], first[(calls[i][2], calls[i + 1][2])]) for i in range(0, len(calls), 2)]
        assert order == [
            (("audit_replay", 31), "base"),
            (("household_mix", 31), "base"),
            (("audit_replay", 32), "change"),
            (("household_mix", 32), "change"),
            (("audit_replay", 33), "base"),
            (("household_mix", 33), "base"),
        ]
        assert all(calls[i][:2] == calls[i + 1][:2] for i in range(0, len(calls), 2))

    def test_one_table_per_workload_of_its_own_pairs(self, monkeypatch, capsys):
        _, out = self.run_main(monkeypatch, capsys, ["audit_replay", "history_heavy"], [1, 2, 3])
        tables = out.split("\n\n")[1:]
        assert [t.splitlines()[0] for t in tables] == [
            "audit_replay, 3 pairs, --seconds 0.5, base HEAD",
            "history_heavy, 3 pairs, --seconds 0.5, base HEAD",
        ]
        rows = [{line.split()[0]: line.split()[1:] for line in t.splitlines()[1:-1]} for t in tables]
        # Base medians 100 + seed 2 + len(workload): 114 and 115.
        assert rows[0]["verify_us_p50"] == ["us", "114", "104", "0.9123", "1", "1", "3/3", "-", "ok"]
        assert rows[1]["verify_us_p50"] == ["us", "115", "105", "0.9130", "1", "1", "3/3", "-", "ok"]
        assert [t.splitlines()[-1] for t in tables] == ["decided alike on 3/3 pairs"] * 2

    def test_one_workload_prints_one_table(self, monkeypatch, capsys):
        calls, out = self.run_main(monkeypatch, capsys, ["audit_replay"], [7, 8])
        assert [side for _, _, side in calls] == ["base", "change", "change", "base"]
        assert out.count("pairs, --seconds") == 1


class TestExport:
    """Both sides run from exports: the base ref's commit, and the working
    tree as `git add -A` would stage it."""

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        files = {".gitignore": "ignored.txt\n", "kept.txt": "kept\n", "edited.txt": "before\n", "gone.txt": "gone\n"}
        for name, text in files.items():
            (repo / name).write_text(text, encoding="utf-8")
        self.git(repo, "init", "-q")
        self.git(repo, "add", "-A")
        self.git(repo, "-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "base")
        (repo / "edited.txt").write_text("after\n", encoding="utf-8")
        (repo / "untracked.txt").write_text("new\n", encoding="utf-8")
        (repo / "ignored.txt").write_text("ignored\n", encoding="utf-8")
        (repo / "gone.txt").unlink()
        monkeypatch.setattr(bench_pairs, "ROOT", repo)
        return repo

    @staticmethod
    def git(repo, *args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout

    @staticmethod
    def exported(ref, dest):
        dest.mkdir()
        bench_pairs.export(ref, dest)
        return {path.name: path.read_text(encoding="utf-8") for path in dest.iterdir()}

    def test_the_working_tree_as_git_add_would_stage_it(self, repo, tmp_path):
        assert self.exported(None, tmp_path / "change") == {
            ".gitignore": "ignored.txt\n",
            "kept.txt": "kept\n",
            "edited.txt": "after\n",
            "untracked.txt": "new\n",
        }

    def test_the_base_ref_as_committed(self, repo, tmp_path):
        assert self.exported("HEAD", tmp_path / "base") == {
            ".gitignore": "ignored.txt\n",
            "kept.txt": "kept\n",
            "edited.txt": "before\n",
            "gone.txt": "gone\n",
        }

    def test_the_index_is_left_alone(self, repo, tmp_path):
        self.git(repo, "add", "edited.txt")
        before = self.git(repo, "status", "--porcelain", "--ignored")
        self.exported(None, tmp_path / "change")
        assert self.git(repo, "status", "--porcelain", "--ignored") == before
        assert before.splitlines() == ["M  edited.txt", " D gone.txt", "?? untracked.txt", "!! ignored.txt"]
