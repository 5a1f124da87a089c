"""Tests for the experiment engine and its content-addressed run cache.

Covers the cache robustness contract (corrupted/truncated entries fall
back to recompute; ``read=False`` bypasses reads but still writes),
batch semantics (order preservation, deduplication), and worker-count
resolution.
"""

import json

import pytest

from repro.core.efficiency import EfficiencyRecord
from repro.experiments import SimulationConfig
from repro.experiments.parallel import (
    ExperimentEngine,
    RunCache,
    config_key,
    metrics_from_jsonable,
    metrics_json_bytes,
    metrics_to_jsonable,
    resolve_jobs,
)
from repro.experiments.parallel import engine as engine_mod
from repro.experiments.runner import RunMetrics


def cfg(**kw):
    kw.setdefault("rms", "LOWEST")
    kw.setdefault("n_schedulers", 3)
    kw.setdefault("n_resources", 9)
    kw.setdefault("workload_rate", 0.004)
    kw.setdefault("horizon", 1500.0)
    kw.setdefault("drain", 2500.0)
    return SimulationConfig(**kw)


def stub_metrics(seed=0):
    return RunMetrics(
        record=EfficiencyRecord(F=200.0 + seed, G=100.0, H=2.0),
        jobs_submitted=10,
        jobs_completed=10,
        jobs_successful=9,
        mean_response=50.0,
        throughput=0.009,
        messages_sent=40,
        scheduler_busy=100.0,
        horizon=1500.0,
    )


@pytest.fixture
def counting_runner(monkeypatch):
    """Replace the engine's serial run function with a counting stub."""
    calls = []

    def fake_run(config, platform=None):
        calls.append(config)
        return stub_metrics(config.seed)

    monkeypatch.setattr(engine_mod, "run_simulation", fake_run)
    return calls


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestMetricsRoundTrip:
    def test_jsonable_round_trip(self):
        m = stub_metrics(3)
        again = metrics_from_jsonable(metrics_to_jsonable(m))
        assert again == m
        assert metrics_json_bytes(again) == metrics_json_bytes(m)


class TestRunMany:
    def test_order_preserved(self, counting_runner):
        engine = ExperimentEngine(jobs=1)
        configs = [cfg(seed=s) for s in (5, 3, 9)]
        results = engine.run_many(configs)
        assert [m.record.F for m in results] == [205.0, 203.0, 209.0]

    def test_duplicates_run_once(self, counting_runner):
        engine = ExperimentEngine(jobs=1)
        results = engine.run_many([cfg(seed=1), cfg(seed=1), cfg(seed=2)])
        assert len(counting_runner) == 2
        assert engine.runs_executed == 2
        assert results[0] == results[1]

    def test_cache_hit_skips_execution(self, counting_runner, tmp_path):
        cache = RunCache(tmp_path)
        first = ExperimentEngine(jobs=1, cache=cache)
        first.run(cfg(seed=7))
        assert len(counting_runner) == 1
        second = ExperimentEngine(jobs=1, cache=RunCache(tmp_path))
        result = second.run(cfg(seed=7))
        assert len(counting_runner) == 1  # served from disk, not recomputed
        assert second.runs_executed == 0
        assert result == stub_metrics(7)

    def test_engine_without_cache_always_runs(self, counting_runner):
        engine = ExperimentEngine(jobs=1)
        engine.run(cfg(seed=1))
        engine.run(cfg(seed=1))
        assert len(counting_runner) == 2


class TestCacheRobustness:
    def _warm(self, tmp_path, counting_runner, seed=7):
        cache = RunCache(tmp_path)
        ExperimentEngine(jobs=1, cache=cache).run(cfg(seed=seed))
        return cache.path_for(config_key(cfg(seed=seed)))

    def test_corrupted_entry_recomputed_not_crash(self, tmp_path, counting_runner):
        path = self._warm(tmp_path, counting_runner)
        path.write_text("{ not json at all")
        cache = RunCache(tmp_path)
        result = ExperimentEngine(jobs=1, cache=cache).run(cfg(seed=7))
        assert result == stub_metrics(7)
        assert len(counting_runner) == 2  # recomputed
        assert cache.errors == 1
        # and the bad entry was repaired in place
        assert json.loads(path.read_text())["metrics"]["jobs_submitted"] == 10

    def test_truncated_entry_recomputed(self, tmp_path, counting_runner):
        path = self._warm(tmp_path, counting_runner)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        result = ExperimentEngine(jobs=1, cache=RunCache(tmp_path)).run(cfg(seed=7))
        assert result == stub_metrics(7)
        assert len(counting_runner) == 2

    def test_wrong_version_entry_recomputed(self, tmp_path, counting_runner):
        path = self._warm(tmp_path, counting_runner)
        payload = json.loads(path.read_text())
        payload["version"] = -1
        path.write_text(json.dumps(payload))
        ExperimentEngine(jobs=1, cache=RunCache(tmp_path)).run(cfg(seed=7))
        assert len(counting_runner) == 2

    def test_malformed_metrics_payload_recomputed(self, tmp_path, counting_runner):
        path = self._warm(tmp_path, counting_runner)
        payload = json.loads(path.read_text())
        del payload["metrics"]["record"]
        path.write_text(json.dumps(payload))
        ExperimentEngine(jobs=1, cache=RunCache(tmp_path)).run(cfg(seed=7))
        assert len(counting_runner) == 2

    def test_no_cache_bypasses_reads_but_still_writes(self, tmp_path, counting_runner):
        self._warm(tmp_path, counting_runner)
        bypass = RunCache(tmp_path, read=False)
        ExperimentEngine(jobs=1, cache=bypass).run(cfg(seed=7))
        assert len(counting_runner) == 2  # read bypassed: recomputed
        assert bypass.writes == 1  # ... but the fresh result was persisted
        # a reading engine now gets the rewritten entry for free
        ExperimentEngine(jobs=1, cache=RunCache(tmp_path)).run(cfg(seed=7))
        assert len(counting_runner) == 2

    def test_len_and_clear(self, tmp_path, counting_runner):
        cache = RunCache(tmp_path)
        engine = ExperimentEngine(jobs=1, cache=cache)
        engine.run_many([cfg(seed=s) for s in (1, 2, 3)])
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_cache_dir_created_lazily(self, tmp_path):
        root = tmp_path / "sub" / "cache"
        RunCache(root)
        assert not root.exists()


class TestCacheEnvDefaults:
    def test_default_root_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert RunCache().root == tmp_path / "envcache"
