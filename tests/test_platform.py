"""The shared platform: a run on a memoized platform is a cold run, byte for byte.

A :class:`~repro.experiments.platform.Platform` (topology, grid map,
primed router) is built once per :func:`platform_key` and reused by the
batch executors.  These tests pin that reuse changes no result: not for
any design, not across traffic modes, not across worker counts, and
not through the RNG streams the skipped topology draw leaves alone.
"""

import gc
import json
import sys
import threading
import weakref

import pytest

from helpers import TINY_PROFILE
from repro.core.annealing import AnnealingSchedule
from repro.core.procedure import ScalabilityProcedure
from repro.experiments import platform as platform_mod
from repro.experiments import runner
from repro.experiments.cases import get_case, make_batch_simulate, make_simulate
from repro.experiments.config import PROFILES
from repro.experiments.parallel import ExperimentEngine, metrics_json_bytes
from repro.experiments.parallel.engine import _run_config
from repro.experiments.platform import (
    MEMO,
    PlatformMemo,
    build_platform,
    platform_key,
)
from repro.experiments.runner import build_system, run_simulation
from repro.fluid import FluidPlan
from repro.rms.registry import rms_names

CI = PROFILES["ci"]
FLUID = FluidPlan(mode="fluid")

#: two points of the Case-1 enabler grid
SETTINGS = (
    {"update_interval": 40.0, "neighborhood_size": 3, "link_delay_scale": 1.0},
    {"update_interval": 120.0, "neighborhood_size": 5, "link_delay_scale": 0.6},
)


def ci_configs(rms, fluid=None, seed=7):
    base = get_case(1).config_for(rms, 1, CI, seed=seed, fluid=fluid)
    return [base.with_enablers(s) for s in SETTINGS]


def run_bytes(config, platform=None):
    return metrics_json_bytes(run_simulation(config, platform=platform))


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test starts and ends with this process's memo empty."""
    MEMO.platform = None
    yield
    MEMO.platform = None


class TestWarmEqualsCold:
    @pytest.mark.parametrize("rms", rms_names())
    def test_every_design_at_two_settings(self, rms):
        configs = ci_configs(rms)
        assert platform_key(configs[0]) == platform_key(configs[1])
        cold = [run_bytes(c) for c in configs]
        shared = build_platform(configs[0])
        # twice round: the second pass runs on a router every source filled
        warm = [run_bytes(c, shared) for c in configs + configs]
        assert warm == cold + cold

    @pytest.mark.parametrize("rms", ["LOWEST", "AUCTION", "Sy-I"])
    def test_fluid_designs_at_two_settings(self, rms):
        configs = ci_configs(rms, fluid=FLUID)
        cold = [run_bytes(c) for c in configs]
        shared = build_platform(configs[0])
        assert [run_bytes(c, shared) for c in configs] == cold
        # fluid pricing stays on the primed scheduler tables
        assert shared.reusable

    def test_discrete_fluid_discrete_through_the_memo(self):
        discrete = ci_configs("LOWEST")[0]
        fluid = ci_configs("LOWEST", fluid=FLUID)[0]
        sequence = [discrete, fluid, discrete]
        cold = [run_bytes(c) for c in sequence]
        keys = []
        warm = []
        for config in sequence:
            warm.append(metrics_json_bytes(_run_config(config)))
            keys.append(MEMO.platform.key)
        assert warm == cold
        # the traffic mode is part of the key: no router crosses modes
        assert keys[0] != keys[1] != keys[2]
        assert MEMO.platform.router.symmetric is False


class TestKey:
    def test_enablers_do_not_change_the_key(self):
        a, b = ci_configs("LOWEST")
        assert platform_key(a) == platform_key(b)

    def test_key_names_seed_traffic_mode_and_site_counts(self):
        base = ci_configs("LOWEST")[0]
        assert platform_key(base) != platform_key(ci_configs("LOWEST", seed=8)[0])
        assert platform_key(base) != platform_key(ci_configs("LOWEST", fluid=FLUID)[0])
        # a centralized design places one scheduler on the same pool
        assert platform_key(base) != platform_key(ci_configs("CENTRAL")[0])
        assert platform_key(base) == platform_key(ci_configs("AUCTION")[0])

    def test_mismatched_platform_is_refused(self):
        lowest = ci_configs("LOWEST")[0]
        with pytest.raises(ValueError, match="does not match"):
            build_system(lowest, build_platform(ci_configs("CENTRAL")[0]))


class TestMemo:
    def test_one_slot_holds_only_the_latest_platform(self, monkeypatch):
        built = []
        build = platform_mod.build_platform

        def recording_build(config):
            platform = build(config)
            built.append(weakref.ref(platform))
            return platform

        monkeypatch.setattr(platform_mod, "build_platform", recording_build)
        first = ci_configs("LOWEST")
        second = ci_configs("LOWEST", seed=8)
        with ExperimentEngine(jobs=1) as engine:
            engine.run_many(first + second)
        assert len(built) == 2
        gc.collect()
        assert built[0]() is None
        assert built[1]() is MEMO.platform
        assert MEMO.platform.key == platform_key(second[0])

    def test_grown_symmetric_router_is_rebuilt(self):
        config = ci_configs("LOWEST", fluid=FLUID)[0]
        memo = PlatformMemo()
        held = memo.get(config)
        assert memo.get(config) is held
        resource = held.grid.resource_nodes[0]
        other = next(n for n in held.grid.resource_nodes if n != resource)
        held.router.path_info(resource, other)  # a table nothing primed
        assert not held.reusable
        fresh = memo.get(config)
        assert fresh is not held and fresh.reusable

    def test_threads_sharing_the_memo_build_each_platform_once(self, monkeypatch):
        # more threads than cores, switching often: without the memo's
        # lock several threads find the slot empty and each builds
        built = []
        build = platform_mod.build_platform
        monkeypatch.setattr(
            platform_mod, "build_platform", lambda c: built.append(c) or build(c)
        )
        config = get_case(1).config_for("LOWEST", 1, TINY_PROFILE, seed=3)
        memo = PlatformMemo()
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda: got.append(memo.get(config)))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(built) == 1
        assert len(got) == 8 and all(p is memo.platform for p in got)

    def test_direct_runs_stay_cold(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            runner, "build_platform", lambda c: calls.append(c) or build_platform(c)
        )
        config = ci_configs("LOWEST")[0]
        run_simulation(config)
        run_simulation(config)
        assert len(calls) == 2 and MEMO.platform is None


def _tuned_points(jobs):
    case = get_case(1)
    with ExperimentEngine(jobs=jobs, cache=None) as engine:
        memo = {}
        procedure = ScalabilityProcedure(
            make_simulate(case, "LOWEST", TINY_PROFILE, seed=5, memo=memo, engine=engine),
            case.enabler_space(),
            path=case.path(TINY_PROFILE),
            schedule=AnnealingSchedule(iterations=2, t0=0.5),
            seed=5,
            batch_simulate=make_batch_simulate(
                case, "LOWEST", TINY_PROFILE, seed=5, memo=memo, engine=engine
            ),
            speculation=2,
        )
        result = procedure.run(name="LOWEST")
    return json.dumps(
        [
            {
                "scale": p.scale,
                "settings": p.settings,
                "record": [p.record.F, p.record.G, p.record.H],
                "feasible": p.feasible,
            }
            for p in result.points
        ],
        sort_keys=True,
    )


def test_tuned_points_identical_for_jobs_1_and_2():
    assert _tuned_points(jobs=1) == _tuned_points(jobs=2)
