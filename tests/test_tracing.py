"""Integration tests for causal job tracing.

The load-bearing contract is **byte-identity**: a passive trace plan
(spans recorded at zero charge rate) must leave every F/G/H result,
attribution cell, and cache key bit-for-bit identical to an untraced
run — across worker counts and the fluid traffic mode.  On top of that: sampling must be a pure hash (never a
simulation RNG draw), the per-job span list must stay bounded while
the terminal ``complete`` span always lands, an active plan's
recording overhead must land in ``g.trace`` exactly (spans x rate)
without touching F, fault plans must surface as ``failed``/
``redispatch`` spans and a ``recovery_wait`` phase, and the flight
recorder must see the sampled spans in its bounded ``trace`` ring.
"""

import json
import math
from dataclasses import replace

import pytest

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.parallel import ExperimentEngine, metrics_json_bytes
from repro.experiments.parallel.cache import metrics_to_jsonable
from repro.experiments.parallel.hashing import config_key
from repro.faults.plan import CrashEvent, FaultPlan
from repro.fluid.plan import FluidPlan
from repro.telemetry import flightrec
from repro.telemetry.critpath import aggregate_phases
from repro.telemetry.tracing import (
    ENV_CHARGE,
    ENV_MAX_EVENTS,
    ENV_SAMPLE,
    TracePlan,
    job_is_sampled,
    resolve_trace_plan,
    trace_id_for,
    trace_plan_from_jsonable,
    trace_plan_to_jsonable,
)


def small_config(rms="LOWEST", **kw):
    """A small but non-trivial system (~10 ms per run)."""
    kw.setdefault("n_schedulers", 3)
    kw.setdefault("n_resources", 9)
    kw.setdefault("workload_rate", 0.004)
    kw.setdefault("horizon", 2000.0)
    kw.setdefault("drain", 3000.0)
    kw.setdefault("update_interval", 20.0)
    kw.setdefault("seed", 11)
    return SimulationConfig(rms=rms, **kw)


PASSIVE = TracePlan(sample=1.0, charge_rate=0.0)
ACTIVE = TracePlan(sample=1.0, charge_rate=0.02)


def stripped_bytes(metrics) -> bytes:
    """Canonical metrics bytes with the trace payload removed."""
    payload = metrics_to_jsonable(metrics)
    payload.pop("trace", None)
    return json.dumps(payload, sort_keys=True).encode()


class TestPlan:
    def test_default_plan_is_off(self):
        plan = TracePlan()
        assert plan.sample == 0.0
        assert not plan.is_enabled
        assert not plan.is_active

    def test_passive_vs_active(self):
        assert PASSIVE.is_enabled and not PASSIVE.is_active
        assert ACTIVE.is_enabled and ACTIVE.is_active

    @pytest.mark.parametrize("sample", [-0.1, 1.5, math.nan, math.inf])
    def test_rejects_bad_sample(self, sample):
        with pytest.raises(ValueError):
            TracePlan(sample=sample)

    def test_rejects_bad_charge_and_bound(self):
        with pytest.raises(ValueError):
            TracePlan(charge_rate=-0.01)
        with pytest.raises(ValueError):
            TracePlan(max_events=2)

    def test_jsonable_round_trip(self):
        plan = TracePlan(sample=0.25, charge_rate=0.1, max_events=16)
        assert trace_plan_from_jsonable(trace_plan_to_jsonable(plan)) == plan

    def test_resolve_env_precedence(self, monkeypatch):
        monkeypatch.setenv(ENV_SAMPLE, "0.5")
        monkeypatch.setenv(ENV_CHARGE, "0.3")
        monkeypatch.setenv(ENV_MAX_EVENTS, "32")
        plan = resolve_trace_plan()
        assert plan == TracePlan(sample=0.5, charge_rate=0.3, max_events=32)
        # explicit knobs beat the environment
        plan = resolve_trace_plan(sample=0.1, charge_rate=0.0, max_events=8)
        assert plan == TracePlan(sample=0.1, charge_rate=0.0, max_events=8)

    def test_resolve_default_sample_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_SAMPLE, raising=False)
        assert resolve_trace_plan().sample == 0.0
        assert resolve_trace_plan(default_sample=1.0).sample == 1.0
        # an env value still beats the caller's default
        monkeypatch.setenv(ENV_SAMPLE, "0.25")
        assert resolve_trace_plan(default_sample=1.0).sample == 0.25

    def test_resolve_rejects_garbled_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SAMPLE, "lots")
        with pytest.raises(ValueError, match=ENV_SAMPLE):
            resolve_trace_plan()


class TestSampling:
    """The predicate is a pure hash of (seed, job id) — no RNG stream."""

    def test_edges(self):
        assert not job_is_sampled(7, 3, 0.0)
        assert job_is_sampled(7, 3, 1.0)

    def test_deterministic(self):
        picks = [job_is_sampled(7, j, 0.5) for j in range(100)]
        assert picks == [job_is_sampled(7, j, 0.5) for j in range(100)]
        assert any(picks) and not all(picks)

    def test_fraction_roughly_honoured(self):
        hits = sum(job_is_sampled(7, j, 0.25) for j in range(4000))
        assert 0.20 < hits / 4000 < 0.30

    def test_seed_changes_the_sampled_set(self):
        a = {j for j in range(500) if job_is_sampled(7, j, 0.5)}
        b = {j for j in range(500) if job_is_sampled(8, j, 0.5)}
        assert a != b

    def test_trace_id_is_stable_hex(self):
        tid = trace_id_for(7, 42)
        assert tid == trace_id_for(7, 42)
        assert len(tid) == 16 and int(tid, 16) >= 0
        assert tid != trace_id_for(8, 42)


class TestByteIdentity:
    """Tentpole contract: passive tracing changes nothing, anywhere."""

    @pytest.mark.parametrize("rms", ["LOWEST", "CENTRAL", "S-I"])
    def test_passive_plan_leaves_results_bit_identical(self, rms):
        plain = run_simulation(small_config(rms))
        traced = run_simulation(replace(small_config(rms), trace=PASSIVE))
        assert traced.trace is not None
        assert stripped_bytes(traced) == stripped_bytes(plain)
        assert traced.record.F == plain.record.F
        assert traced.attribution == plain.attribution

    # Simulator is the single ("reference") kernel backend.
    @pytest.mark.parametrize("backend", ["reference"])
    def test_passive_plan_identity_on_both_kernels(self, backend):
        base = small_config()
        plain = run_simulation(base)
        traced = run_simulation(replace(base, trace=PASSIVE))
        assert stripped_bytes(traced) == stripped_bytes(plain)

    def test_passive_plan_identity_under_fluid_traffic(self):
        base = replace(small_config(), fluid=FluidPlan(mode="fluid"))
        plain = run_simulation(base)
        traced = run_simulation(replace(base, trace=PASSIVE))
        assert traced.trace is not None
        assert stripped_bytes(traced) == stripped_bytes(plain)

    def test_passive_plan_shares_the_cache_key(self):
        base = small_config()
        assert config_key(replace(base, trace=PASSIVE)) == config_key(base)
        assert config_key(
            replace(base, trace=TracePlan(sample=0.5, charge_rate=0.0))
        ) == config_key(base)

    def test_active_plan_changes_the_cache_key(self):
        base = small_config()
        assert config_key(replace(base, trace=ACTIVE)) != config_key(base)

    def test_results_identical_across_worker_counts(self):
        configs = [
            replace(small_config(rms), trace=PASSIVE)
            for rms in ("LOWEST", "CENTRAL")
        ]
        with ExperimentEngine(jobs=1) as serial, ExperimentEngine(jobs=4) as pool:
            a = serial.run_many(configs)
            b = pool.run_many(configs)
        for x, y in zip(a, b):
            assert metrics_json_bytes(x) == metrics_json_bytes(y)

    def test_untraced_metrics_carry_no_trace_key(self):
        payload = metrics_to_jsonable(run_simulation(small_config()))
        assert "trace" not in payload


class TestRecorder:
    def test_payload_shape_and_span_order(self):
        m = run_simulation(replace(small_config(), trace=PASSIVE))
        trace = m.trace
        assert trace["v"] == 1
        assert trace["sampled"] == len(trace["jobs"]) > 0
        assert trace["recorded"] > 0 and trace["dropped"] == 0
        for job_id, rec in trace["jobs"].items():
            assert rec["trace_id"] == trace_id_for(11, int(job_id))
            names = [e["name"] for e in rec["events"]]
            assert names[0] == "sched_deliver"  # armed before the workload
            times = [e["t"] for e in rec["events"]]
            assert times == sorted(times)
            if rec["successful"]:
                assert "complete" in names
                assert rec["response"] == pytest.approx(
                    rec["completion"] - rec["arrival"]
                )

    def test_partial_sampling_matches_the_predicate(self):
        plan = TracePlan(sample=0.5, charge_rate=0.0)
        m = run_simulation(replace(small_config(), trace=plan))
        assert 0 < m.trace["sampled"]
        for job_id in m.trace["jobs"]:
            assert job_is_sampled(11, int(job_id), 0.5)

    def test_span_bound_holds_but_complete_always_lands(self):
        plan = TracePlan(sample=1.0, charge_rate=0.0, max_events=4)
        m = run_simulation(replace(small_config(), trace=plan))
        assert m.trace["dropped"] > 0
        for rec in m.trace["jobs"].values():
            # the terminal span may exceed the bound by one entry
            assert len(rec["events"]) <= plan.max_events + 1
            if rec["successful"]:
                assert any(e["name"] == "complete" for e in rec["events"])
        # truncated traces still telescope to the turnaround
        agg = aggregate_phases(m.trace)
        assert agg["jobs"] > 0
        assert agg["max_residual"] < 1e-6

    def test_message_hops_carry_parent_edges(self):
        m = run_simulation(replace(small_config(), trace=PASSIVE))
        parents = [
            e["parent"]
            for rec in m.trace["jobs"].values()
            for e in rec["events"]
            if "parent" in e
        ]
        assert parents  # dispatch/complete hops stitch the DAG
        for rec in m.trace["jobs"].values():
            for i, e in enumerate(rec["events"]):
                if "parent" in e:
                    assert 0 <= e["parent"] < i

    def test_latency_histograms_recorded_per_message_class(self):
        m = run_simulation(replace(small_config(), trace=PASSIVE))
        latency = m.trace["latency"]
        assert "job_dispatch" in latency and "status_update" in latency
        for snap in latency.values():
            assert snap["count"] > 0
            assert snap["p50"] <= snap["p95"] <= snap["p99"]


class TestCharging:
    def test_active_plan_charges_g_trace_exactly(self):
        plain = run_simulation(small_config())
        traced = run_simulation(replace(small_config(), trace=ACTIVE))
        trace_g = math.fsum(
            v for k, v in traced.attribution.items() if k.startswith("g.trace")
        )
        assert trace_g == pytest.approx(
            traced.trace["recorded"] * ACTIVE.charge_rate
        )
        assert traced.record.G == pytest.approx(plain.record.G + trace_g)
        assert traced.record.F == plain.record.F  # charges never touch behaviour

    def test_passive_plan_never_touches_the_ledger(self):
        m = run_simulation(replace(small_config(), trace=PASSIVE))
        assert not any(k.startswith("g.trace") for k in m.attribution)


class TestFaultComposition:
    def test_crashes_surface_as_recovery_spans(self):
        plan = FaultPlan(
            crashes=tuple(
                CrashEvent(resource=r, at=600.0, duration=900.0)
                for r in range(4)
            )
        )
        m = run_simulation(
            replace(small_config(), trace=PASSIVE, faults=plan)
        )
        names = {
            e["name"]
            for rec in m.trace["jobs"].values()
            for e in rec["events"]
        }
        assert "failed" in names and "redispatch" in names
        agg = aggregate_phases(m.trace)
        assert "recovery_wait" in agg["phases"]
        assert agg["max_residual"] < 1e-6


class TestFlightRing:
    def test_sampled_spans_feed_the_trace_ring(self, tmp_path):
        flightrec.enable(tmp_path, capacity=32)
        try:
            run_simulation(replace(small_config(), trace=PASSIVE))
            snap = flightrec.current().snapshot()
        finally:
            flightrec.disable()
        ring = snap["trace"]
        assert 0 < len(ring) <= 32  # bounded window of the latest spans
        assert all({"job", "span", "t"} <= set(entry) for entry in ring)
