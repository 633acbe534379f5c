"""Tests for the perf-benchmark recording harness (repro.perf.bench)."""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.perf.bench import (
    SCHEMA_VERSION,
    BenchRecorder,
    BenchTiming,
    load_report,
    regressions,
    time_call,
)


class TestTimeCall:
    def test_returns_result_and_nonnegative_wall(self):
        result, wall = time_call(lambda: 41 + 1)
        assert result == 42
        assert wall >= 0.0

    def test_repeats_keep_best(self):
        calls = []

        def work():
            calls.append(1)
            return len(calls)

        result, wall = time_call(work, repeats=3)
        assert result == 3  # last result
        assert len(calls) == 3
        assert wall >= 0.0

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)


class TestBenchTiming:
    def test_as_dict_merges_meta(self):
        entry = BenchTiming("stage", 1.5, repeats=2, n_rows=100)
        assert entry.as_dict() == {"wall_s": 1.5, "repeats": 2, "n_rows": 100}

    def test_negative_wall_rejected(self):
        with pytest.raises(ValueError):
            BenchTiming("stage", -0.1)


class TestBenchRecorder:
    def _recorder(self):
        rec = BenchRecorder("training", "smoke", n_jobs=4, git_sha="abc123")
        rec.record("slow", 2.0)
        rec.record("fast", 0.5)
        return rec

    def test_timed_records_and_returns(self):
        rec = self._recorder()
        assert rec.timed("stage", lambda: "out") == "out"
        assert rec.wall_s("stage") >= 0.0

    def test_speedup(self):
        rec = self._recorder()
        assert rec.speedup("opt", "slow", "fast") == pytest.approx(4.0)
        assert rec.as_dict()["speedups"]["opt"] == pytest.approx(4.0)

    def test_zero_candidate_is_inf(self):
        rec = self._recorder()
        rec.record("instant", 0.0)
        assert rec.speedup("div", "slow", "instant") == float("inf")

    def test_git_sha_from_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        assert BenchRecorder("training", "smoke").git_sha == "deadbeef"
        monkeypatch.delenv("REPRO_GIT_SHA")
        # Without the variable the recorder falls back to the checkout's
        # HEAD; only off a git repository does it stay None.
        monkeypatch.chdir(tmp_path)
        assert BenchRecorder("training", "smoke").git_sha is None

    def test_git_dirty_tracks_the_working_tree(self, monkeypatch, tmp_path):
        # Off a git checkout the flag is unknown, not False.
        monkeypatch.chdir(tmp_path)
        assert BenchRecorder("training", "smoke").git_dirty is None
        repo = tmp_path / "checkout"
        repo.mkdir()
        monkeypatch.chdir(repo)
        tracked = repo / "tracked.txt"
        tracked.write_text("v1\n")
        config = [
            "-c", "user.name=bench",
            "-c", "user.email=bench@example.com",
            "-c", "commit.gpgsign=false",
        ]
        for args in (
            ["init", "-q"],
            ["add", "tracked.txt"],
            ["commit", "-q", "-m", "v1"],
        ):
            subprocess.run(["git", *config, *args], check=True, capture_output=True)
        clean = BenchRecorder("training", "smoke")
        assert clean.git_dirty is False
        assert clean.as_dict()["git_dirty"] is False
        tracked.write_text("v2\n")
        dirty = BenchRecorder("training", "smoke")
        assert dirty.git_dirty is True
        assert dirty.as_dict()["git_dirty"] is True

    def test_write_and_load_roundtrip(self, tmp_path):
        rec = self._recorder()
        rec.check("parity", True)
        path = rec.write(tmp_path / "nested" / "BENCH_training.json")
        report = load_report(path)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["benchmark"] == "training"
        assert report["n_jobs"] == 4
        assert report["git_sha"] == "abc123"
        assert report["timings"]["slow"]["wall_s"] == 2.0
        assert report["checks"] == {"parity": True}

    def test_load_rejects_non_report(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="timings"):
            load_report(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"timings": {}, "schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            load_report(path)


class TestRegressions:
    def _report(self, **walls):
        return {
            "timings": {name: {"wall_s": wall} for name, wall in walls.items()}
        }

    def test_flags_only_slowdowns_beyond_threshold(self):
        baseline = self._report(a=1.0, b=1.0, c=1.0)
        current = self._report(a=1.2, b=2.0, c=0.5)
        flagged = regressions(current, baseline, threshold=1.5)
        assert flagged == {"b": (1.0, 2.0)}

    def test_new_and_removed_stages_ignored(self):
        baseline = self._report(a=1.0, gone=1.0)
        current = self._report(a=1.0, new=50.0)
        assert regressions(current, baseline) == {}

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            regressions(self._report(), self._report(), threshold=0.0)
