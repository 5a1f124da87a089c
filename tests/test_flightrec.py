"""Flight recorder: rings, bundles, ambient enablement, and the
guarantee that recording never changes simulation results."""

import json
import os

import pytest

from repro.core import CostLedger
from repro.core.ledger import Category
from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.parallel.cache import metrics_json_bytes
from repro.telemetry import flightrec
from repro.telemetry.flightrec import FlightRecorder


def tiny_config(rms="LOWEST", **kw):
    kw.setdefault("n_schedulers", 3)
    kw.setdefault("n_resources", 9)
    kw.setdefault("workload_rate", 0.004)
    kw.setdefault("horizon", 2000.0)
    kw.setdefault("drain", 3000.0)
    kw.setdefault("update_interval", 20.0)
    return SimulationConfig(rms=rms, **kw)


@pytest.fixture(autouse=True)
def _clean_ambient(monkeypatch):
    """Each test starts with recording off and a fresh env check."""
    monkeypatch.delenv(flightrec.ENV_ENABLE, raising=False)
    monkeypatch.delenv(flightrec.ENV_DIR, raising=False)
    flightrec.disable()
    yield
    flightrec.disable()


class TestRings:
    def test_channels_are_bounded(self, tmp_path):
        rec = FlightRecorder(tmp_path, capacity=4)
        for i in range(10):
            rec.kernel_event(float(i), tiny_config, ())
            rec.ledger_charge("g.schedule", 1.0, None)
            rec.tuner_move("iteration", i=i)
        snap = rec.snapshot()
        assert len(snap["kernel"]) == 4
        assert len(snap["ledger"]) == 4
        assert len(snap["tuner"]) == 4
        # the window keeps the *latest* entries
        assert snap["kernel"][-1]["t"] == 9.0
        assert snap["tuner"][-1]["i"] == 9

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path, capacity=0)

    def test_kernel_labels_resolved_at_dump_time(self, tmp_path):
        class Entity:
            name = "sched0"

            def poke(self):
                pass

        rec = FlightRecorder(tmp_path, capacity=4)
        rec.kernel_event(1.0, Entity().poke, ())
        label = rec.snapshot()["kernel"][0]["fn"]
        assert "poke" in label and "sched0" in label

    def test_observe_ledger_feeds_ring(self, tmp_path):
        rec = FlightRecorder(tmp_path, capacity=8)
        ledger = CostLedger()
        rec.observe_ledger(ledger)
        ledger.charge(Category.SCHEDULE, 2.5, ("scheduler", "sched0", "job_submit"))
        snap = rec.snapshot()
        assert snap["ledger"] == [
            {
                "category": "g.schedule",
                "amount": 2.5,
                "source": ["scheduler", "sched0", "job_submit"],
            }
        ]


class TestDump:
    def test_bundle_shape(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        rec.note("run started", rms="LOWEST")
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            path = rec.dump("sim.exception", error=exc, context={"seed": 7})
        payload = json.loads(path.read_text())
        assert payload["schema"] == flightrec.BUNDLE_SCHEMA
        assert payload["reason"] == "sim.exception"
        assert payload["pid"] == os.getpid()
        assert payload["context"] == {"seed": 7}
        assert payload["channels"]["notes"][0]["note"] == "run started"
        assert payload["error"]["type"] == "RuntimeError"
        assert "boom" in payload["error"]["traceback"]
        assert rec.bundles == [path]

    def test_sequential_dumps_get_distinct_files(self, tmp_path):
        rec = FlightRecorder(tmp_path)
        first = rec.dump("sim.exception")
        second = rec.dump("run.cancelled")
        assert first != second
        assert json.loads(second.read_text())["reason"] == "run.cancelled"


class TestAmbient:
    def test_off_by_default(self):
        assert flightrec.current() is None

    def test_enable_disable(self, tmp_path):
        rec = flightrec.enable(tmp_path)
        assert flightrec.current() is rec
        flightrec.disable()
        assert flightrec.current() is None

    def test_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv(flightrec.ENV_ENABLE, "1")
        monkeypatch.setenv(flightrec.ENV_DIR, str(tmp_path))
        # force a fresh env consultation (it is memoized per process)
        flightrec._env_checked_pid = None
        rec = flightrec.current()
        assert rec is not None
        assert rec.directory == tmp_path
        assert flightrec.current() is rec  # stable within the process

    def test_env_zero_means_off(self, monkeypatch):
        monkeypatch.setenv(flightrec.ENV_ENABLE, "0")
        flightrec._env_checked_pid = None
        assert flightrec.current() is None


class TestRunnerIntegration:
    def test_crash_dumps_a_bundle(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        flightrec.enable(tmp_path)

        def exploding_build(config, platform=None):
            raise RuntimeError("wired to fail")

        monkeypatch.setattr(runner, "build_system", exploding_build)
        with pytest.raises(RuntimeError) as info:
            run_simulation(tiny_config())
        assert getattr(info.value, "_flightrec_dumped", False)
        bundles = sorted(tmp_path.glob("bundle-*.json"))
        assert len(bundles) == 1
        payload = json.loads(bundles[0].read_text())
        assert payload["reason"] == "sim.exception"
        assert payload["context"]["rms"] == "LOWEST"
        assert payload["error"]["type"] == "RuntimeError"

    def test_conservation_trip_dumps_invariant_bundle(self, tmp_path, monkeypatch):
        flightrec.enable(tmp_path)

        def tripped(self):
            raise RuntimeError("attribution conservation violated (forced)")

        monkeypatch.setattr(CostLedger, "check_conservation", tripped)
        with pytest.raises(RuntimeError) as info:
            run_simulation(tiny_config())
        assert getattr(info.value, "_flightrec_dumped", False)
        payloads = [
            json.loads(p.read_text()) for p in sorted(tmp_path.glob("bundle-*.json"))
        ]
        # exactly one bundle: the invariant dump, not a second generic one
        assert [p["reason"] for p in payloads] == ["invariant.conservation"]
        # the forensic window actually holds the run's observations
        assert payloads[0]["channels"]["kernel"]
        assert payloads[0]["channels"]["ledger"]

    def test_healthy_run_writes_nothing(self, tmp_path):
        flightrec.enable(tmp_path)
        run_simulation(tiny_config())
        assert list(tmp_path.glob("bundle-*.json")) == []

    def test_pool_worker_inherits_env_and_dumps_own_bundle(
        self, tmp_path, monkeypatch
    ):
        """Workers enable recording from the inherited environment and
        write PID-stamped bundles of their own."""
        from repro.experiments import runner
        from repro.experiments.parallel import ExperimentEngine, RunCache

        monkeypatch.setenv(flightrec.ENV_ENABLE, "1")
        monkeypatch.setenv(flightrec.ENV_DIR, str(tmp_path))

        def exploding_build(config, platform=None):
            raise RuntimeError("worker crash")

        monkeypatch.setattr(runner, "build_system", exploding_build)
        cache = RunCache(root=tmp_path / "cache", read=False)
        with ExperimentEngine(jobs=2, cache=cache) as engine:
            with pytest.raises(RuntimeError):
                engine.run_many([tiny_config(seed=1), tiny_config(seed=2)])
        bundles = list(tmp_path.glob("bundle-*.json"))
        assert bundles, "worker crashes must leave post-mortem bundles"
        payload = json.loads(bundles[0].read_text())
        assert payload["reason"] == "sim.exception"
        assert payload["pid"] != os.getpid(), "bundle must come from a worker"

    def test_results_byte_identical_with_and_without_recorder(self, tmp_path):
        config = tiny_config(rms="CENTRAL")
        flightrec.disable()
        plain = metrics_json_bytes(run_simulation(config))
        flightrec.enable(tmp_path)
        recorded = metrics_json_bytes(run_simulation(config))
        assert plain == recorded
