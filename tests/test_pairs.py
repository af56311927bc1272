"""benchmarks/pairs.py: the per-metric verdict on paired parent/change runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)
verdict = pairs.verdict

# median 100, quartiles 99 and 101: a spread of 2%
STEADY = [100.0, 99.0, 101.0, 100.0, 98.0, 102.0, 100.0, 99.0, 101.0, 100.0]
# median 100, quartiles 57.5 and 142.5: a spread of 85%
WIDE = [50.0, 150.0, 40.0, 160.0, 100.0, 100.0, 60.0, 140.0, 100.0, 100.0]


def shifted(values, by):
    return [v + by for v in values]


class TestVerdict:
    def test_same_runs_held(self):
        assert verdict(STEADY, STEADY, "higher", 0.25) == "held"
        assert verdict(STEADY, STEADY, "lower", 0.25) == "held"

    @pytest.mark.parametrize("better,by", [("higher", -26.0), ("lower", 26.0)])
    def test_median_worse_by_more_than_bound_regressed(self, better, by):
        assert verdict(STEADY, shifted(STEADY, by), better, 0.25) == "regressed"

    @pytest.mark.parametrize("better,by", [("higher", -24.0), ("lower", 24.0)])
    def test_worse_within_bound_held(self, better, by):
        assert verdict(STEADY, shifted(STEADY, by), better, 0.25) == "held"

    def test_regression_outranks_a_wide_spread(self):
        assert verdict(WIDE, shifted(WIDE, -30.0), "higher", 0.25) == "regressed"

    def test_spread_wider_than_bound_unresolved(self):
        assert verdict(WIDE, shifted(WIDE, 5.0), "higher", 0.25) == "unresolved"

    def test_wide_spread_resolved_when_every_b_beats_every_a(self):
        # min(b) 161 beats max(a) 160, but the shift (61) is inside A's spread (85)
        b = [161.0] * 10
        assert verdict(WIDE, b, "higher", 0.25) == "held"
        assert verdict(WIDE, [39.0] * 10, "lower", 0.25) == "held"

    @pytest.mark.parametrize("better,by", [("higher", 5.0), ("lower", -5.0)])
    def test_nine_of_ten_and_shift_past_spread_is_gain(self, better, by):
        b = shifted(STEADY, by)
        b[3] = STEADY[3] - by  # one pair lost
        assert verdict(STEADY, b, better, 0.25) == "gain"

    def test_eight_of_ten_is_no_gain(self):
        b = shifted(STEADY, 5.0)
        b[3], b[7] = STEADY[3] - 5.0, STEADY[7] - 5.0
        assert verdict(STEADY, b, "higher", 0.25) == "held"

    def test_ties_count_for_neither_side(self):
        b = shifted(STEADY, 5.0)
        b[3] = STEADY[3]
        assert verdict(STEADY, b, "higher", 0.25) == "gain"
        b[7] = STEADY[7]
        assert verdict(STEADY, b, "higher", 0.25) == "held"

    def test_shift_inside_parent_spread_is_no_gain(self):
        # every pair won, but by 1, inside A's quartile spread of 2
        assert verdict(STEADY, shifted(STEADY, 1.0), "higher", 0.25) == "held"

    def test_constant_share_metric(self):
        ones = [1.0] * 10
        assert verdict(ones, ones, "higher", 0.01) == "held"
        assert verdict(ones, [0.9] + [1.0] * 9, "higher", 0.01) == "held"
        assert verdict(ones, [0.98] * 10, "higher", 0.01) == "regressed"


def git(cwd: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=cwd, capture_output=True, text=True, check=True)
    return proc.stdout.strip()


class TestCommit:
    @pytest.fixture
    def repo(self, tmp_path):
        root = tmp_path / "repo"
        root.mkdir()
        git(root, "init", "-q")
        (root / "f.txt").write_text("one\n")
        git(root, "add", "f.txt")
        git(root, "commit", "-q", "-m", "one")
        first = git(root, "rev-parse", "HEAD")
        (root / "f.txt").write_text("two\n")
        git(root, "commit", "-q", "-am", "two")
        return root, first

    def test_worktree_of_the_parent_gives_its_head(self, repo, tmp_path):
        root, first = repo
        parent = tmp_path / "parent"
        git(root, "worktree", "add", "-q", "--detach", str(parent), first)
        assert pairs.commit(parent) == {"commit": first, "dirty": False}
        assert pairs.commit(root) == {"commit": git(root, "rev-parse", "HEAD"), "dirty": False}
        (parent / "f.txt").write_text("edited\n")
        assert pairs.commit(parent) == {"commit": first, "dirty": True}

    def test_unpacked_tree_inside_a_repo_gives_nulls(self, repo):
        root, _ = repo
        nested = root / "parent"
        nested.mkdir()
        (nested / "f.txt").write_text("one\n")
        assert pairs.commit(nested) == {"commit": None, "dirty": None}

    def test_directory_outside_any_repo_gives_nulls(self, tmp_path):
        assert pairs.commit(tmp_path) == {"commit": None, "dirty": None}


def synthetic_run(seed: int, shift: float) -> dict:
    """One run as run_once returns it, with made-up numbers."""
    return {"correct": True, "digests": {"model": "m", "mmd_row": f"r{seed % 2}"},
            "environment": {"backend": "numpy", "blas_threads": 1},
            "metrics": {"mmd_s": 0.3 - shift + 0.001 * seed, "model.forward_ms": 40.0 + seed}}


class TestJsonRecord:
    def series(self):
        pairs_ = [(synthetic_run(i, 0.0), synthetic_run(i + (i == 8), 0.1))
                  for i in range(10)]
        better = {"mmd_s": "lower", "model.forward_ms": "lower"}
        summary = pairs.summarize(pairs_, better, {"mmd_s": 0.25})
        commits = {"a": {"commit": "abc", "dirty": False}, "b": {"commit": None, "dirty": None}}
        return pairs_, summary, pairs.series_record(pairs_, summary, commits, 50.0, 0)

    def test_schema(self):
        pairs_, summary, rec = self.series()
        assert set(rec) == {"environment", "commits", "seconds", "trace", "pairs", "correct",
                            "digests_moved", "metrics"}
        assert rec["environment"] == {"backend": "numpy", "blas_threads": 1}
        assert rec["commits"]["a"] == {"commit": "abc", "dirty": False}
        assert (rec["seconds"], rec["trace"], rec["pairs"]) == (50.0, 0, 10)
        assert rec["correct"] == [[True, True]] * 10
        # pair 8 gave B another seed's mmd_row digest
        assert rec["digests_moved"] == [[]] * 8 + [["mmd_row"], []]
        for row in rec["metrics"].values():
            assert set(row) == {"a", "b", "better", "b_won", "verdict"}
            for side in ("a", "b"):
                assert set(row[side]) == {"median", "q1", "q3"}
                assert row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]

    def test_figures(self):
        pairs_, summary, rec = self.series()
        mmd = rec["metrics"]["mmd_s"]
        a = [p[0]["metrics"]["mmd_s"] for p in pairs_]
        assert mmd["a"]["median"] == pytest.approx(sorted(a)[4] / 2 + sorted(a)[5] / 2)
        assert (mmd["better"], mmd["b_won"], mmd["verdict"]) == ("lower", 10, "gain")
        forward = rec["metrics"]["model.forward_ms"]
        assert forward["verdict"] is None  # no bound: a per-layer metric
        assert forward["b_won"] == 0

    def test_file_keeps_other_workloads(self, tmp_path):
        path = tmp_path / "BENCH.json"
        _, _, rec = self.series()
        pairs.write_json(path, "score", rec)
        pairs.write_json(path, "train", {"pairs": 1})
        pairs.write_json(path, "score", rec)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(doc["workloads"]) == ["score", "train"]
        assert doc["workloads"]["score"] == rec
