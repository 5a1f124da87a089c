"""The four experimental cases (paper Tables 2–5).

Each :class:`ExperimentCase` binds the case's **scaling variables** (how
the system grows with ``k``) and **scaling enablers** (what the tuner
may adjust) and can manufacture the ``simulate(k, settings)`` closure
the core measurement procedure consumes.  All four scale the workload
"in the same proportion as the scaling variable" (paper §3.4).

* **Case 1** (Table 2): scale the RP by network size — resources *and*
  schedulers grow with ``k``; enablers: update interval, neighborhood
  set size, link delay.
* **Case 2** (Table 3): scale the RP by resource service rate on a
  fixed network; same enablers.
* **Case 3** (Table 4): scale the RMS by the number of status
  estimators on a fixed network; same enablers.
* **Case 4** (Table 5): scale the RMS by ``L_p`` (peers probed/polled);
  enablers: update interval, **volunteering interval**, link delay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.scaling import (
    LINK_DELAY_SCALE,
    NEIGHBORHOOD_SIZE,
    UPDATE_INTERVAL,
    VOLUNTEER_INTERVAL,
    Enabler,
    EnablerSpace,
    ScalingPath,
)
from .config import PROFILES, ScaleProfile, SimulationConfig
from .runner import RunMetrics, run_simulation

__all__ = ["ExperimentCase", "CASES", "get_case", "make_simulate", "make_batch_simulate"]

#: the calibrated update-interval grid (see EXPERIMENTS.md): spans the
#: regime from scheduler saturation (tau=6) to near-zero state
#: maintenance (tau=160); default tau=9 puts the distributed designs in
#: the paper's efficiency band at the CI base scale.
_TAU_GRID = (6.0, 7.0, 7.5, 8.0, 8.5, 9.0, 10.0, 11.0, 13.0, 16.0, 24.0, 40.0, 80.0, 160.0)
_TAU_DEFAULT_INDEX = 4

_NEIGHBORHOOD_GRID = (2.0, 3.0, 5.0, 7.0)
_DELAY_GRID = (0.6, 1.0, 1.6)
_VOLUNTEER_GRID = (40.0, 80.0, 120.0, 240.0, 480.0)


def _standard_space() -> EnablerSpace:
    """Enablers of Tables 2–4: update interval, neighborhood, delay."""
    return EnablerSpace(
        [
            Enabler(UPDATE_INTERVAL, _TAU_GRID, default_index=_TAU_DEFAULT_INDEX),
            Enabler(NEIGHBORHOOD_SIZE, _NEIGHBORHOOD_GRID, default_index=1),
            Enabler(LINK_DELAY_SCALE, _DELAY_GRID, default_index=1),
        ]
    )


def _lp_space() -> EnablerSpace:
    """Enablers of Table 5: update interval, volunteering interval, delay."""
    return EnablerSpace(
        [
            Enabler(UPDATE_INTERVAL, _TAU_GRID, default_index=_TAU_DEFAULT_INDEX),
            Enabler(VOLUNTEER_INTERVAL, _VOLUNTEER_GRID, default_index=2),
            Enabler(LINK_DELAY_SCALE, _DELAY_GRID, default_index=1),
        ]
    )


@dataclass(frozen=True)
class ExperimentCase:
    """One of the paper's four scaling experiments.

    Attributes
    ----------
    case_id:
        1–4, matching Tables 2–5.
    name / description:
        Human-readable labels for reports.
    """

    case_id: int
    name: str
    description: str

    # ------------------------------------------------------------------
    def enabler_space(self) -> EnablerSpace:
        """The case's scaling-enabler search space."""
        return _lp_space() if self.case_id == 4 else _standard_space()

    def path(self, profile: ScaleProfile) -> ScalingPath:
        """The scaling path under ``profile``."""
        return ScalingPath(profile.scales)

    def config_for(
        self,
        rms: str,
        k: float,
        profile: ScaleProfile,
        seed: int = 7,
        faults=None,
        monitor=None,
        fluid=None,
        trace=None,
    ) -> SimulationConfig:
        """The simulation configuration at scale ``k`` (default enablers).

        Applies the case's scaling variables; the tuner layers enabler
        settings on top via ``SimulationConfig.with_enablers``.  An
        optional :class:`~repro.faults.plan.FaultPlan` rides along
        verbatim (``None`` keeps the inert default), as do a
        :class:`~repro.telemetry.timeseries.MonitorPlan` (``None`` keeps
        monitoring off), a :class:`~repro.fluid.plan.FluidPlan`
        (``None`` keeps the discrete traffic model), and a
        :class:`~repro.telemetry.tracing.TracePlan` (``None`` keeps
        tracing off).
        """
        config = self._base_config(rms, k, profile, seed)
        if faults is not None:
            config = replace(config, faults=faults)
        if monitor is not None:
            config = replace(config, monitor=monitor)
        if fluid is not None:
            config = replace(config, fluid=fluid)
        if trace is not None:
            config = replace(config, trace=trace)
        return config

    def _base_config(
        self, rms: str, k: float, profile: ScaleProfile, seed: int
    ) -> SimulationConfig:
        if self.case_id == 1:
            n_res = int(round(profile.base_resources * k))
            n_sched = max(1, int(round(profile.base_schedulers * k)))
            return SimulationConfig(
                rms=rms,
                n_schedulers=n_sched,
                n_resources=n_res,
                workload_rate=profile.base_rate_per_resource * profile.base_resources * k,
                horizon=profile.horizon,
                drain=profile.drain,
                seed=seed,
            )
        n_res = profile.fixed_resources
        n_sched = profile.fixed_schedulers
        base_rate = profile.base_rate_per_resource * n_res
        if self.case_id == 2:
            return SimulationConfig(
                rms=rms,
                n_schedulers=n_sched,
                n_resources=n_res,
                service_rate=float(k),
                workload_rate=base_rate * k,
                horizon=profile.horizon,
                drain=profile.drain,
                seed=seed,
            )
        if self.case_id == 3:
            return SimulationConfig(
                rms=rms,
                n_schedulers=n_sched,
                n_resources=n_res,
                n_estimators=max(1, int(round(n_sched * k))),
                workload_rate=base_rate * k,
                horizon=profile.horizon,
                drain=profile.drain,
                seed=seed,
            )
        if self.case_id == 4:
            return SimulationConfig(
                rms=rms,
                n_schedulers=n_sched,
                n_resources=n_res,
                l_p=max(1, int(round(2 * k))),
                workload_rate=base_rate * k,
                horizon=profile.horizon,
                drain=profile.drain,
                seed=seed,
            )
        raise ValueError(f"unknown case id {self.case_id}")


#: the paper's four cases
CASES: Dict[int, ExperimentCase] = {
    1: ExperimentCase(
        1,
        "case1-network-size",
        "Scale the RP by number of nodes; RMS grows proportionately (Table 2 / Fig. 2)",
    ),
    2: ExperimentCase(
        2,
        "case2-service-rate",
        "Scale the RP by resource service rate; network fixed (Table 3 / Fig. 3)",
    ),
    3: ExperimentCase(
        3,
        "case3-estimators",
        "Scale the RMS by number of status estimators; network fixed (Table 4 / Figs. 4, 6, 7)",
    ),
    4: ExperimentCase(
        4,
        "case4-lp",
        "Scale the RMS by L_p, the neighbors probed per decision (Table 5 / Fig. 5)",
    ),
}


def get_case(case_id: int) -> ExperimentCase:
    """Look up a case by Table number (1–4)."""
    try:
        return CASES[case_id]
    except KeyError:
        raise KeyError(f"unknown case {case_id}; valid: {sorted(CASES)}") from None


def make_simulate(
    case: ExperimentCase,
    rms: str,
    profile: ScaleProfile,
    seed: int = 7,
    memo: Optional[Dict] = None,
    engine=None,
    fluid=None,
) -> Callable[[float, Mapping[str, float]], RunMetrics]:
    """Build the ``simulate(k, settings)`` closure for one (case, RMS).

    Parameters
    ----------
    memo:
        Optional external cache ``{(k, settings-items): RunMetrics}``;
        sharing it with the figure drivers lets them re-read tuned
        points' full metrics (throughput, response times) for free.
    engine:
        Optional :class:`~repro.experiments.parallel.ExperimentEngine`;
        when given, runs execute through it (and hit its persistent run
        cache) instead of calling :func:`run_simulation` directly.
    fluid:
        Optional :class:`~repro.fluid.plan.FluidPlan` applied to every
        run of the closure (``None`` keeps the discrete model).  An
        inert plan never perturbs cache keys; a fluid one is hashed.
    """
    cache: Dict = memo if memo is not None else {}

    def simulate(k: float, settings: Mapping[str, float]) -> RunMetrics:
        key = (k, tuple(sorted(settings.items())))
        hit = cache.get(key)
        if hit is not None:
            return hit
        config = case.config_for(
            rms, k, profile, seed=seed, fluid=fluid
        ).with_enablers(dict(settings))
        metrics = engine.run(config) if engine is not None else run_simulation(config)
        cache[key] = metrics
        return metrics

    return simulate


def make_batch_simulate(
    case: ExperimentCase,
    rms: str,
    profile: ScaleProfile,
    seed: int = 7,
    memo: Optional[Dict] = None,
    engine=None,
    fluid=None,
) -> Callable[[Sequence[Tuple[float, Mapping[str, float]]]], List[RunMetrics]]:
    """Build the batch companion of :func:`make_simulate`.

    The returned ``simulate_many(pairs)`` evaluates a list of
    ``(k, settings)`` candidates — through ``engine.run_many`` when an
    engine is attached (process-pool fan-out + run cache), serially
    otherwise — and shares ``memo`` with the scalar closure so the two
    views never recompute each other's points.
    """
    cache: Dict = memo if memo is not None else {}

    def simulate_many(
        pairs: Sequence[Tuple[float, Mapping[str, float]]]
    ) -> List[RunMetrics]:
        keys = [(k, tuple(sorted(dict(s).items()))) for k, s in pairs]
        todo_keys = []
        todo_configs = []
        seen = set()
        for (k, settings), key in zip(pairs, keys):
            if key not in cache and key not in seen:
                seen.add(key)
                todo_keys.append(key)
                todo_configs.append(
                    case.config_for(
                        rms, k, profile, seed=seed, fluid=fluid
                    ).with_enablers(dict(settings))
                )
        if todo_configs:
            if engine is not None:
                metrics_list = engine.run_many(todo_configs)
            else:
                metrics_list = [run_simulation(c) for c in todo_configs]
            for key, metrics in zip(todo_keys, metrics_list):
                cache[key] = metrics
        return [cache[key] for key in keys]

    return simulate_many
