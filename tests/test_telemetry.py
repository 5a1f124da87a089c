"""Tests for the telemetry layer: collectors, registry, spans, reports.

Covers the JSONL record schema, span nesting, the ambient-session
contract (``current()`` / ``activate``), the disabled-path no-ops, the
engine/cache/tuner instrumentation, and — the layer's central
invariant — that enabling telemetry leaves simulation results
byte-identical.
"""

import json
import logging
import math

import pytest

from repro.core.annealing import AnnealingSchedule
from repro.core.efficiency import EfficiencyRecord
from repro.core.scaling import Enabler, EnablerSpace
from repro.core.tuner import EnablerTuner
from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.parallel import ExperimentEngine, RunCache, config_key, metrics_json_bytes
from repro.experiments.parallel import engine as engine_mod
from repro.experiments.runner import RunMetrics
from repro.telemetry import (
    NULL_TELEMETRY,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTelemetry,
    SCHEMA_VERSION,
    Telemetry,
    activate,
    current,
)
from repro.telemetry.collectors import (
    NullCounter,
    NullGauge,
    NullHistogram,
    NullTally,
    snapshot_collector,
)
from repro.telemetry.report import (
    load_run,
    resolve_run_dir,
    spans_report,
    summary_report,
    tuner_report,
)
from repro.telemetry.spans import SPANS_FILENAME, jsonable_attrs


def read_records(run_dir):
    """All JSONL records of a closed session, in file order."""
    out = []
    for line in (run_dir / SPANS_FILENAME).read_text().splitlines():
        if line.strip():
            out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# Collectors
# ---------------------------------------------------------------------------

class TestGauge:
    def test_set_and_shift(self):
        g = Gauge("workers")
        g.set(4)
        g.increment()
        g.decrement(2.0)
        assert g.value == 3.0
        assert float(g) == 3.0

    def test_snapshot(self):
        g = Gauge("depth", 7.0)
        assert snapshot_collector(g) == {"type": "gauge", "value": 7.0}


class TestHistogram:
    def test_bucketing_and_overflow(self):
        h = Histogram("t", buckets=(1.0, 2.0, 5.0))
        for x in (0.5, 1.5, 1.7, 4.0, 99.0):
            h.record(x)
        assert h.counts == [1, 2, 1]
        assert h.overflow == 1
        assert h.count == 5
        assert h.max == 99.0

    def test_quantile(self):
        h = Histogram("t", buckets=(1.0, 2.0, 5.0))
        for x in (0.5, 1.5, 1.7, 4.0):
            h.record(x)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.75) == 2.0
        assert h.quantile(1.0) == 5.0

    def test_quantile_empty_and_overflow(self):
        h = Histogram("t", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))
        h.record(10.0)
        assert h.quantile(1.0) == math.inf
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_buckets_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("t", buckets=())

    def test_snapshot_shape(self):
        h = Histogram("t", buckets=(1.0, 2.0))
        h.record(0.5)
        snap = snapshot_collector(h)
        assert snap["type"] == "histogram"
        assert snap["buckets"] == [[1.0, 1], [2.0, 0]]
        assert snap["count"] == 1


class TestNullCollectors:
    def test_all_mutators_are_no_ops(self):
        NullCounter().increment()
        NullTally().record(1.0)
        g = NullGauge()
        g.set(5.0)
        g.increment()
        g.decrement()
        h = NullHistogram()
        h.record(1.0)
        assert g.value == 0.0
        assert h.count == 0
        assert math.isnan(h.quantile(0.5))


# ---------------------------------------------------------------------------
# Registry and scopes
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_collectors_shared_by_name(self):
        reg = MetricsRegistry()
        reg.counter("runs").increment()
        reg.counter("runs").increment()
        assert reg.counter("runs").value == 2
        assert len(reg) == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.tally("x")

    def test_register_adopts_and_rejects_duplicates(self):
        from repro.sim.monitor import TimeWeighted

        reg = MetricsRegistry()
        tw = TimeWeighted("queue")
        assert reg.register("queue", tw) is tw
        assert reg.register("queue", tw) is tw  # same object ok
        with pytest.raises(ValueError):
            reg.register("queue", TimeWeighted("queue"))

    def test_snapshot_covers_all_types(self):
        reg = MetricsRegistry()
        reg.counter("c").increment(3)
        reg.gauge("g").set(2.0)
        reg.tally("t").record(4.0)
        reg.histogram("h").record(0.01)
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"]["value"] == 2.0
        assert snap["t"]["count"] == 1
        assert snap["h"]["count"] == 1
        assert reg.names() == ["c", "g", "h", "t"]
        assert "c" in reg and reg.get("c") is not None

    def test_disabled_registry_hands_out_nulls(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").increment()
        reg.gauge("g").set(9.0)
        reg.tally("t").record(1.0)
        reg.histogram("h").record(1.0)
        assert len(reg) == 0
        assert reg.snapshot() == {}
        # register is a pass-through, nothing adopted
        obj = object()
        assert reg.register("x", obj) is obj
        assert "x" not in reg


class TestMetricsScope:
    def test_prefixing_and_nesting(self):
        reg = MetricsRegistry()
        reg.scope("engine").counter("runs").increment()
        assert reg.counter("engine.runs").value == 1
        reg.scope("a").scope("b").gauge("g").set(1.0)
        assert reg.gauge("a.b.g").value == 1.0

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().scope("")


# ---------------------------------------------------------------------------
# Spans and the JSONL schema
# ---------------------------------------------------------------------------

class TestJsonableAttrs:
    def test_scalars_containers_and_fallback(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        out = jsonable_attrs(
            {"a": 1, "b": (1, 2), "c": {"k": Odd()}, "d": None, "e": True}
        )
        assert out == {"a": 1, "b": [1, 2], "c": {"k": "<odd>"}, "d": None, "e": True}
        assert json.dumps(out)  # fully serializable

    def test_numpy_scalars_collapse(self):
        np = pytest.importorskip("numpy")
        out = jsonable_attrs({"x": np.float64(1.5), "n": np.int64(3)})
        assert out == {"x": 1.5, "n": 3}
        assert isinstance(out["x"], float) and isinstance(out["n"], int)


class TestTelemetrySession:
    def test_meta_is_first_record(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            pass
        meta = read_records(tmp_path / "run")[0]
        assert meta["type"] == "meta"
        assert meta["schema"] == SCHEMA_VERSION
        assert isinstance(meta["pid"], int)
        assert isinstance(meta["argv"], list)

    def test_span_record_schema(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with session.span("work", rms="LOWEST") as span:
                span.set(items=3)
        (rec,) = [r for r in read_records(tmp_path / "run") if r["type"] == "span"]
        assert rec["name"] == "work"
        assert rec["parent"] is None
        assert rec["attrs"] == {"rms": "LOWEST", "items": 3}
        assert rec["t1"] >= rec["t0"] >= 0.0
        assert rec["dur"] == pytest.approx(rec["t1"] - rec["t0"], abs=1e-5)

    def test_nesting_links_parents(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with session.span("outer") as outer:
                with session.span("inner"):
                    session.event("tick", n=1)
        records = read_records(tmp_path / "run")
        spans = {r["name"]: r for r in records if r["type"] == "span"}
        (event,) = [r for r in records if r["type"] == "event"]
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert event["parent"] == spans["inner"]["id"]
        # inner closes first, so it appears first in the file
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["inner", "outer"]

    def test_event_outside_any_span(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            session.event("lone", x=1.0)
        (event,) = [r for r in read_records(tmp_path / "run") if r["type"] == "event"]
        assert event["parent"] is None
        assert event["attrs"] == {"x": 1.0}
        assert event["t"] >= 0.0

    def test_exception_annotates_span(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with pytest.raises(RuntimeError):
                with session.span("doomed"):
                    raise RuntimeError("boom")
        (rec,) = [r for r in read_records(tmp_path / "run") if r["type"] == "span"]
        assert rec["attrs"]["error"] == "RuntimeError"

    def test_close_writes_metrics_and_is_idempotent(self, tmp_path):
        session = Telemetry(tmp_path / "run")
        session.metrics.counter("jobs").increment(5)
        session.close()
        session.close()  # no error, nothing appended
        records = read_records(tmp_path / "run")
        assert records[-1]["type"] == "metrics"
        assert records[-1]["snapshot"]["jobs"]["value"] == 5
        mirrored = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert mirrored == records[-1]["snapshot"]
        # a closed session silently drops further records
        session.event("late")
        assert read_records(tmp_path / "run") == records


class TestSpanLifecycleUnderExceptions:
    """The JSONL file must never end mid-record, whatever propagates."""

    @staticmethod
    def assert_file_intact(run_dir):
        """Every line (including the last) is one complete JSON record."""
        text = (run_dir / SPANS_FILENAME).read_text()
        assert text.endswith("\n"), "file must end on a record boundary"
        for line in text.splitlines():
            json.loads(line)  # raises if any record is truncated

    def test_exception_through_nested_spans_closes_all(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with pytest.raises(RuntimeError):
                with session.span("outer"):
                    with session.span("middle"):
                        session.event("tick")
                        with session.span("inner"):
                            raise RuntimeError("boom")
        self.assert_file_intact(tmp_path / "run")
        spans = {
            r["name"]: r
            for r in read_records(tmp_path / "run")
            if r["type"] == "span"
        }
        assert set(spans) == {"outer", "middle", "inner"}
        # every span on the propagation path records the error and a
        # well-formed closing time
        for rec in spans.values():
            assert rec["attrs"]["error"] == "RuntimeError"
            assert rec["t1"] >= rec["t0"]
        assert spans["inner"]["parent"] == spans["middle"]["id"]

    def test_keyboard_interrupt_still_writes_span(self, tmp_path):
        session = Telemetry(tmp_path / "run")
        with pytest.raises(KeyboardInterrupt):
            with session.span("cancelled-work"):
                raise KeyboardInterrupt()
        session.close()
        self.assert_file_intact(tmp_path / "run")
        (rec,) = [
            r for r in read_records(tmp_path / "run") if r["type"] == "span"
        ]
        assert rec["name"] == "cancelled-work"
        assert rec["attrs"]["error"] == "KeyboardInterrupt"

    def test_exception_then_more_spans_keeps_file_parseable(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            for i in range(20):
                try:
                    with session.span("flaky", i=i):
                        if i % 3 == 0:
                            raise ValueError("intermittent")
                except ValueError:
                    pass
        self.assert_file_intact(tmp_path / "run")
        spans = [r for r in read_records(tmp_path / "run") if r["type"] == "span"]
        assert len(spans) == 20
        assert sum("error" in s["attrs"] for s in spans) == 7

    def test_exception_before_close_still_snapshots_metrics(self, tmp_path):
        session = Telemetry(tmp_path / "run")
        try:
            with session.span("doomed"):
                session.metrics.counter("partial").increment()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        finally:
            session.close()
        self.assert_file_intact(tmp_path / "run")
        records = read_records(tmp_path / "run")
        assert records[-1]["type"] == "metrics"
        assert records[-1]["snapshot"]["partial"]["value"] == 1


class TestAmbientSession:
    def test_default_is_null(self):
        assert current() is NULL_TELEMETRY
        assert not current().enabled

    def test_activate_swaps_and_restores(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with activate(session):
                assert current() is session
                assert current().enabled
            assert current() is NULL_TELEMETRY

    def test_activate_restores_on_error(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with pytest.raises(ValueError):
                with activate(session):
                    raise ValueError
        assert current() is NULL_TELEMETRY


class TestDisabledNoOps:
    def test_null_session_is_inert(self):
        null = NullTelemetry()
        with null.span("anything", x=1) as span:
            span.set(y=2)
        null.event("whatever")
        null.close()
        assert null.directory is None
        assert null.metrics.snapshot() == {}

    def test_shared_null_span_instance(self):
        null = NullTelemetry()
        assert null.span("a") is null.span("b")


# ---------------------------------------------------------------------------
# The determinism invariant: telemetry must not perturb results
# ---------------------------------------------------------------------------

def _small_config(rms="LOWEST"):
    return SimulationConfig(
        rms=rms,
        n_schedulers=3,
        n_resources=9,
        workload_rate=0.004,
        horizon=2000.0,
        drain=3000.0,
        update_interval=20.0,
        seed=11,
    )


class TestDeterminismWithTelemetry:
    def test_results_byte_identical_on_vs_off(self, tmp_path):
        baseline = run_simulation(_small_config())
        with Telemetry(tmp_path / "run") as session, activate(session):
            traced = run_simulation(_small_config())
        assert metrics_json_bytes(traced) == metrics_json_bytes(baseline)

    def test_sim_run_span_recorded(self, tmp_path):
        with Telemetry(tmp_path / "run") as session:
            with activate(session):
                run_simulation(_small_config())
        records = read_records(tmp_path / "run")
        (span,) = [r for r in records if r["type"] == "span" and r["name"] == "sim.run"]
        assert span["attrs"]["rms"] == "LOWEST"
        assert span["attrs"]["events"] > 0
        assert span["attrs"]["events_per_sec"] > 0
        snapshot = records[-1]["snapshot"]
        assert snapshot["sim.runs"]["value"] == 1
        assert snapshot["sim.events"]["value"] == span["attrs"]["events"]

    def test_tuned_procedure_identical_on_vs_off(self, tmp_path):
        # the annealer's observer must not consume RNG draws
        space = EnablerSpace([Enabler("knob", (1.0, 2.0, 4.0), default_index=1)])

        def make_tuner():
            def simulate(k, settings):
                return _FakeObservation(
                    G=100.0 / settings["knob"] + 5.0 * k, e=0.40, success=0.95
                )

            return EnablerTuner(
                simulate,
                space,
                schedule=AnnealingSchedule(iterations=12, t0=0.5),
                seed=3,
            )

        plain = make_tuner().tune(2.0, e0=0.40)
        with Telemetry(tmp_path / "run") as session, activate(session):
            traced = make_tuner().tune(2.0, e0=0.40)
        assert traced == plain


# ---------------------------------------------------------------------------
# Engine and cache instrumentation
# ---------------------------------------------------------------------------

def _cfg(**kw):
    kw.setdefault("rms", "LOWEST")
    kw.setdefault("n_schedulers", 3)
    kw.setdefault("n_resources", 9)
    kw.setdefault("workload_rate", 0.004)
    kw.setdefault("horizon", 1500.0)
    kw.setdefault("drain", 2500.0)
    return SimulationConfig(**kw)


def _stub_metrics(seed=0):
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
    calls = []

    def fake_run(config, platform=None):
        calls.append(config)
        return _stub_metrics(config.seed)

    monkeypatch.setattr(engine_mod, "run_simulation", fake_run)
    return calls


class TestEngineInstrumentation:
    def test_batch_span_attrs(self, tmp_path, counting_runner):
        cache = RunCache(tmp_path / "cache")
        engine = ExperimentEngine(jobs=1, cache=cache)
        with Telemetry(tmp_path / "run") as session, activate(session):
            engine.run_many([_cfg(seed=1), _cfg(seed=1), _cfg(seed=2)])
            engine.run_many([_cfg(seed=1)])  # all hits
        records = read_records(tmp_path / "run")
        batches = [r for r in records if r["type"] == "span" and r["name"] == "engine.batch"]
        assert len(batches) == 2
        first, second = batches
        assert first["attrs"]["size"] == 3
        assert first["attrs"]["unique"] == 2
        assert first["attrs"]["executed"] == 2
        assert second["attrs"]["cache_hits"] == 1
        assert second["attrs"]["executed"] == 0
        runs = [r for r in records if r["type"] == "event" and r["name"] == "engine.run"]
        assert len(runs) == 2  # one per executed config
        assert all(r["attrs"]["seconds"] >= 0.0 for r in runs)
        snapshot = records[-1]["snapshot"]
        assert snapshot["engine.batches"]["value"] == 2
        assert snapshot["engine.runs_requested"]["value"] == 4
        assert snapshot["engine.runs_executed"]["value"] == 2
        assert snapshot["engine.cache_hits"]["value"] == 1  # second batch's disk hit
        assert snapshot["engine.run_seconds"]["count"] == 2

    def test_corrupt_entry_counted_and_logged(self, tmp_path, counting_runner, caplog):
        cache = RunCache(tmp_path / "cache")
        ExperimentEngine(jobs=1, cache=cache).run(_cfg(seed=7))
        path = cache.path_for(config_key(_cfg(seed=7)))
        path.write_text("{ not json")
        cache2 = RunCache(tmp_path / "cache")
        with Telemetry(tmp_path / "run") as session, activate(session):
            with caplog.at_level(logging.WARNING, logger="repro.experiments.parallel.cache"):
                ExperimentEngine(jobs=1, cache=cache2).run(_cfg(seed=7))
        assert cache2.repairs == 1
        assert cache2.errors == 1
        assert any("corrupt run-cache entry" in r.message for r in caplog.records)
        records = read_records(tmp_path / "run")
        (corrupt,) = [r for r in records if r["type"] == "event" and r["name"] == "cache.corrupt"]
        assert corrupt["attrs"]["key"] == config_key(_cfg(seed=7))
        assert records[-1]["snapshot"]["cache.repairs"]["value"] == 1
        (batch,) = [r for r in records if r["type"] == "span" and r["name"] == "engine.batch"]
        assert batch["attrs"]["cache_repairs"] == 1


# ---------------------------------------------------------------------------
# Tuner convergence trace
# ---------------------------------------------------------------------------

class _FakeObservation:
    def __init__(self, G, e, success):
        self.record = EfficiencyRecord(F=1000.0, G=G, H=10.0)
        self.success_rate = success


def _fake_simulate(k, settings):
    # overhead falls with the knob; efficiency/success healthy everywhere
    return _FakeObservation(G=100.0 / settings["knob"] + 5.0 * k, e=0.4, success=0.95)


class TestTunerTrace:
    def _tune(self, tmp_path):
        space = EnablerSpace([Enabler("knob", (1.0, 2.0, 4.0), default_index=0)])
        tuner = EnablerTuner(
            _fake_simulate,
            space,
            schedule=AnnealingSchedule(iterations=10, t0=0.5),
            seed=5,
        )
        with Telemetry(tmp_path / "run") as session, activate(session):
            with session.span("study.measure", case=1, rms="LOWEST", profile="ci"):
                point = tuner.tune(2.0, e0=tuner._observe(2.0, space.default_settings()).record.efficiency)
        return point, read_records(tmp_path / "run")

    def test_iteration_events_form_full_trace(self, tmp_path):
        point, records = self._tune(tmp_path)
        iters = [r for r in records if r["type"] == "event" and r["name"] == "tuner.iteration"]
        assert len(iters) == 10  # one per annealing move
        for e in iters:
            attrs = e["attrs"]
            assert attrs["scale"] == 2.0
            assert set(attrs) >= {
                "iteration", "temperature", "settings", "objective",
                "accepted", "best", "efficiency", "G", "success",
            }
        # search span wraps presweep + result events
        (search,) = [r for r in records if r["type"] == "span" and r["name"] == "tuner.search"]
        assert search["attrs"]["evaluations"] >= 1
        (result,) = [r for r in records if r["type"] == "event" and r["name"] == "tuner.result"]
        assert result["attrs"]["settings"] == point.settings
        (presweep,) = [r for r in records if r["type"] == "event" and r["name"] == "tuner.presweep"]
        assert presweep["attrs"]["enabler"] == "knob"

    def test_tuner_report_renders_trace(self, tmp_path):
        _, records = self._tune(tmp_path)
        run_dir = tmp_path / "run"
        text = tuner_report(load_run(run_dir))
        assert "LOWEST @ k=2" in text
        assert "iter" in text and "accepted" in text
        assert "-> y(k): knob=" in text
        # filters
        assert "no tuner iterations match" in tuner_report(load_run(run_dir), rms="CENTRAL")
        assert "LOWEST" in tuner_report(load_run(run_dir), scale=2.0)

    def test_no_observer_overhead_when_disabled(self):
        space = EnablerSpace([Enabler("knob", (1.0, 2.0), default_index=0)])
        tuner = EnablerTuner(_fake_simulate, space, seed=1)
        assert tuner._observer_for(1.0) is None


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------

class TestSamplingProfiler:
    def test_samples_the_calling_thread(self):
        from repro.telemetry.profiler import SamplingProfiler

        prof = SamplingProfiler(interval=0.001)
        prof.start()
        prof.start()  # idempotent
        deadline = 0
        while prof.samples < 3 and deadline < 200_000:
            deadline += 1  # busy work for the sampler to land in
        top = prof.stop()
        assert prof.samples >= 1
        assert top and all(isinstance(n, int) and n >= 1 for _, n in top)
        assert prof.stop() == []  # stopped: nothing more to report

    def test_env_interval_parsing(self, monkeypatch):
        from repro.telemetry.profiler import DEFAULT_INTERVAL, _env_interval

        monkeypatch.setenv("REPRO_TELEMETRY_PROFILE", "50")
        assert _env_interval() == 0.05
        monkeypatch.setenv("REPRO_TELEMETRY_PROFILE", "1")
        assert _env_interval() == DEFAULT_INTERVAL
        monkeypatch.setenv("REPRO_TELEMETRY_PROFILE", "yes")
        assert _env_interval() == DEFAULT_INTERVAL

    def test_session_emits_profile_event(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_PROFILE", "2")
        session = Telemetry(tmp_path / "run")
        spin = 0
        while spin < 500_000:
            spin += 1
        session.close()
        events = [r for r in read_records(tmp_path / "run")
                  if r["type"] == "event" and r["name"] == "profile.samples"]
        # the sampler may legally land zero samples on a fast machine,
        # in which case no event is written — but when one is, it must
        # carry (location, count) pairs
        for e in events:
            assert all(len(pair) == 2 for pair in e["attrs"]["top"])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReportLoading:
    def _write_run(self, tmp_path, lines):
        run = tmp_path / "run"
        run.mkdir()
        (run / SPANS_FILENAME).write_text("\n".join(lines) + "\n")
        return run

    def test_load_skips_garbage_lines(self, tmp_path):
        run = self._write_run(
            tmp_path,
            [
                json.dumps({"type": "meta", "schema": 1, "pid": 1}),
                "{ truncated mid-wri",
                json.dumps({"type": "event", "name": "x", "id": 2, "parent": None,
                            "pid": 1, "t": 0.5, "attrs": {}}),
            ],
        )
        loaded = load_run(run)
        assert loaded.meta["schema"] == 1
        assert len(loaded.events) == 1
        assert loaded.duration == 0.5

    def test_resolve_direct_and_newest_child(self, tmp_path):
        old = self._write_run(tmp_path, [json.dumps({"type": "meta"})])
        assert resolve_run_dir(old) == old
        # a root containing runs resolves to the newest child
        import os
        import time as _time

        newer = tmp_path / "newer"
        newer.mkdir()
        (newer / SPANS_FILENAME).write_text(json.dumps({"type": "meta"}) + "\n")
        past = _time.time() - 100
        os.utime(old / SPANS_FILENAME, (past, past))
        assert resolve_run_dir(tmp_path) == newer

    def test_resolve_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_run_dir(tmp_path / "nope")

    def test_ancestor_attr_walks_parent_chain(self, tmp_path):
        run = self._write_run(
            tmp_path,
            [
                json.dumps({"type": "span", "name": "outer", "id": 1, "parent": None,
                            "pid": 1, "t0": 0, "t1": 1, "dur": 1, "attrs": {"rms": "S-I"}}),
                json.dumps({"type": "span", "name": "inner", "id": 2, "parent": 1,
                            "pid": 1, "t0": 0, "t1": 1, "dur": 1, "attrs": {}}),
                json.dumps({"type": "event", "name": "e", "id": 3, "parent": 2,
                            "pid": 1, "t": 0.1, "attrs": {}}),
            ],
        )
        loaded = load_run(run)
        (event,) = loaded.events
        assert loaded.ancestor_attr(event, "rms") == "S-I"
        assert loaded.ancestor_attr(event, "missing") is None


class TestRenderedReports:
    @pytest.fixture
    def run(self, tmp_path, counting_runner):
        cache = RunCache(tmp_path / "cache")
        engine = ExperimentEngine(jobs=1, cache=cache)
        with Telemetry(tmp_path / "run") as session, activate(session):
            engine.run_many([_cfg(seed=1), _cfg(seed=2)])
            session.event("procedure.scale", name="LOWEST", scale=1.0, F=100.0,
                          G=10.0, H=1.0, efficiency=0.4, success=0.95, feasible=True)
        return load_run(tmp_path / "run")

    def test_summary_report(self, run):
        text = summary_report(run)
        assert "engine: 1 batches, 2 runs requested" in text
        assert "time by span" in text
        assert "per-scale ledger snapshots" in text
        assert "engine.runs_executed" in text

    def test_spans_report(self, run):
        text = spans_report(run)
        assert "engine.batch" in text
        assert spans_report(run, name="no.such.span") == "(no spans recorded)"
        only = spans_report(run, name="engine.batch")
        assert "engine.batch" in only
