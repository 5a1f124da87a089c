"""The platform a simulation runs on, built once and shared across runs.

A run's *platform* is everything :func:`~repro.experiments.runner.build_system`
wires before it creates a single entity: the router topology, the grid
map (scheduler, estimator and resource sites and their clusters) and the
router holding the shortest-path tables.  Its contents depend on a few
config fields only (:func:`platform_key`): not on the enabler settings,
the RMS policy beyond its scheduler count, the workload, or any plan
except the traffic mode.  The paper's procedure tunes the enablers by
simulated annealing at every scale, so one tuned walk simulates the same
platform dozens of times.

:class:`Platform` is that split made explicit: GridSim separates the
modeled resources from the per-run entities, and PowNet builds its
system input once before simulating it.  :data:`MEMO` keeps the most
recent platform of the process (one slot) for the batch executors
(:mod:`~repro.experiments.parallel.engine` and the fabric worker), so
each platform a batch visits is built once per process.  Runs visit a
(design, scale) point's configs consecutively, so one slot catches them
while holding at most one platform's tables in memory.  A direct
:func:`~repro.experiments.runner.run_simulation` call builds its own.

Sharing is exact.  Generation and mapping draw only the ``"topology"``
stream, and :class:`~repro.sim.rng.RngHub` keys streams by name, so a
run on a shared platform draws every other stream as a cold run does.
The router's tables are pure functions of the topology; only the order
in which a symmetric (fluid-mode) router fills them can change a price,
so the traffic mode is part of the key and a symmetric router that ever
grew past its primed tables is not reused (:attr:`Platform.reusable`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Tuple

from ..network.routing import Router
from ..rms.registry import get_rms
from ..sim.rng import RngHub
from ..topology.generator import TopologyParams, generate_topology
from ..topology.graph import Topology
from ..topology.grid_map import GridMap, map_grid
from .config import SimulationConfig

__all__ = [
    "MEMO",
    "Platform",
    "PlatformMemo",
    "build_platform",
    "platform_key",
    "site_counts",
]


def site_counts(config: SimulationConfig) -> Tuple[int, int]:
    """``(schedulers, estimators)`` a run places on its platform.

    A centralized design runs one scheduler whatever the config says;
    the estimator count defaults to one per scheduler.
    """
    n_sched = 1 if get_rms(config.rms).centralized else config.n_schedulers
    n_est = config.n_estimators if config.n_estimators is not None else n_sched
    return n_sched, n_est


def platform_key(config: SimulationConfig) -> Tuple:
    """Everything a platform's contents depend on.

    Node count, scheduler, resource and estimator counts, seed and
    traffic mode.  Configs with equal keys build identical platforms.
    """
    n_sched, n_est = site_counts(config)
    return (
        max(4, config.n_resources + n_sched),
        n_sched,
        config.n_resources,
        n_est,
        config.seed,
        config.fluid.is_fluid,
    )


@dataclass(frozen=True)
class Platform:
    """The topology, grid map and primed router of one :func:`platform_key`."""

    key: Tuple
    topology: Topology
    grid: GridMap
    router: Router

    @property
    def reusable(self) -> bool:
        """Whether a later run prices its sends as on a fresh platform.

        A discrete router always prices a source from its own table, so
        the tables it holds cannot change a price.  A symmetric router
        prices an uncached source from the destination's table, so it
        is reusable only while it holds just the primed scheduler tables.
        """
        return (
            not self.router.symmetric
            or self.router.cached_sources == len(self.grid.scheduler_nodes)
        )


def build_platform(config: SimulationConfig) -> Platform:
    """Generate the topology, map the grid and prime the router."""
    key = platform_key(config)
    n_nodes, n_sched, n_resources, n_est, seed, fluid = key
    topo = generate_topology(
        TopologyParams(n_nodes=n_nodes), RngHub(seed).stream("topology")
    )
    gm = map_grid(
        topo, n_schedulers=n_sched, n_resources=n_resources, n_estimators=n_est
    )
    # In fluid mode the resource sends are priced in reverse from the
    # schedulers' tables; otherwise every resource site would need a
    # table of its own at 1e5-scale pools (see ``Router``).
    router = Router(topo, symmetric=fluid)
    # The mapper's per-scheduler tables: scheduler (and co-located
    # estimator) sites are the busiest sources, so the router never
    # recomputes them.
    for node, table in zip(gm.scheduler_nodes, gm.scheduler_tables):
        router.prime(node, table)
    return Platform(key=key, topology=topo, grid=gm, router=router)


class PlatformMemo:
    """A one-slot memo: the most recently used platform of a process."""

    def __init__(self) -> None:
        #: the platform held, or ``None`` before the first run
        self.platform: Optional[Platform] = None
        # fabric workers in one process (tests run them as threads)
        # share the slot: one build per key, not one per thread
        self._lock = threading.Lock()

    def get(self, config: SimulationConfig) -> Platform:
        """The platform for ``config``: the one held, or a new one."""
        key = platform_key(config)
        with self._lock:
            held = self.platform
            if held is None or held.key != key or not held.reusable:
                # drop the old platform before building its successor,
                # so the two are never in memory together
                self.platform = held = None
                self.platform = held = build_platform(config)
            return held


#: this process's platform memo.  A pool worker receives only the
#: config, so the memo has to be per process; every batch executor in
#: the process reads it.
MEMO = PlatformMemo()
