"""Byte-identity pins for small fluid-mode runs.

The fluid status plane is an exact replay of the discrete status,
keepalive and batcher timelines, so any rewrite of its internals must
reproduce today's output bit for bit.  Each configuration below pins
the SHA-256 of its serialized ``RunMetrics`` and the plane's counters
after the horizon.  The four shapes cover the plane's branches: flat
batcher routing, the aggregator tree, crash/repair under the liveness
watch (including a reboot inside the detection timeout), and a flush
window wider than the keepalive span, so one flush replays a keepalive
chain more than once.

A changed pin means changed output.  Re-pin only for a deliberate
change to the model, never for a refactor.
"""

import hashlib

import pytest

from repro.experiments import SimulationConfig, run_simulation
from repro.experiments.parallel.cache import metrics_json_bytes
from repro.experiments.runner import build_system
from repro.faults import CrashEvent, FaultPlan
from repro.fluid import FluidPlan


def fluid_config(**overrides):
    kwargs = dict(
        rms="LOWEST",
        n_schedulers=4,
        n_resources=48,
        workload_rate=48 * 0.003,
        horizon=3000.0,
        drain=1500.0,
        seed=5,
        fluid=FluidPlan(mode="fluid"),
    )
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


CONFIGS = {
    "flat": fluid_config(),
    "tree": fluid_config(
        n_estimators=6, fluid=FluidPlan(mode="fluid", aggregator_fanout=2)
    ),
    # Resource 0 reboots 60 units after its crash, inside the default
    # 4.5 * update_interval = 180 detection timeout; resource 5 stays
    # down past it; churn adds many more cycles of both kinds.
    "faults": fluid_config(
        faults=FaultPlan(
            resource_mttf=900.0,
            resource_mttr=90.0,
            crashes=(
                CrashEvent(resource=0, at=500.0, duration=60.0),
                CrashEvent(resource=5, at=700.0, duration=600.0),
            ),
        )
    ),
    # 250 > 2 * (3 * update_interval): every idle chain fires twice per flush.
    "wide_flush": fluid_config(fluid=FluidPlan(mode="fluid", flush_interval=250.0)),
}

METRICS_SHA256 = {
    "flat": "460cd26dbdc2a006fc9eb97cfa1e40c52fd1ab2bad53d09fb379929925bb6ab3",
    "tree": "09a620928dcb8c9478a10e8ec5c7c573319fce4cb8a62d3fc7a2a4acfb1841d3",
    "faults": "22314bd92e24992c723f26610a1b7a688b09f951937fb0914d7d87ab6795a83f",
    "wide_flush": "c92b095e597d196445a8cbf1acfe63c4b33f03ab987895e505b377ab5e25710e",
}

#: (flushes, modeled_updates, modeled_keepalives, modeled_forwards,
#: declared_dead) after ``sim.run(until=horizon)``
PLANE_COUNTERS = {
    "flat": (150, 1446, 932, 443, 0),
    "tree": (150, 1460, 946, 554, 0),
    "faults": (150, 1595, 667, 474, 130),
    "wide_flush": (12, 1200, 1152, 44, 0),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_metrics_bytes_pinned(name):
    metrics = run_simulation(CONFIGS[name])
    digest = hashlib.sha256(metrics_json_bytes(metrics)).hexdigest()
    assert digest == METRICS_SHA256[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_plane_counters_pinned(name):
    config = CONFIGS[name]
    system = build_system(config)
    system.sim.run(until=config.horizon)
    stats = system.fluid.stats()
    got = tuple(
        int(stats[key])
        for key in (
            "flushes",
            "modeled_updates",
            "modeled_keepalives",
            "modeled_forwards",
            "declared_dead",
        )
    )
    assert got == PLANE_COUNTERS[name]


def test_wide_flush_replays_chains_more_than_once_per_flush():
    config = CONFIGS["wide_flush"]
    system = build_system(config)
    system.sim.run(until=config.horizon)
    plane = system.fluid
    assert plane.flush_interval > 2 * plane.keepalive_span
    # More keepalives than (resources x flushes): some flush fired a
    # chain at least twice.
    assert plane.modeled_keepalives > config.n_resources * plane.flushes
