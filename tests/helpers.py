"""Shared builders for grid-layer tests: a hand-wired miniature grid.

Experiments use :mod:`repro.experiments.runner` to build full systems;
these helpers build *tiny*, fully inspectable ones (a couple of
schedulers, a handful of resources on a trivial topology) so protocol
tests can assert on individual messages and state transitions.

:func:`reference_single_source` is the heap Dijkstra that the array
shortest-path kernel must match bit for bit, and
:class:`ReferenceStatusTable` is the push-on-every-write status table
that :class:`~repro.grid.StatusTable` must answer identically to.

:data:`TINY_PROFILE` is a miniature scaling profile: a real two-scale
Case-1 study at unit-test cost.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core import CostLedger
from repro.experiments.config import ScaleProfile
from repro.grid import CostModel, Estimator, Middleware, Resource, SchedulerBase, StatusTable
from repro.network import Network, Router
from repro.sim import RngHub, Simulator
from repro.topology import Topology
from repro.topology.paths import PathInfo
from repro.workload import JobClass, JobSpec
from repro.grid.jobs import Job

_ids = itertools.count()

TINY_PROFILE = ScaleProfile(
    name="tiny",
    base_resources=6,
    base_schedulers=2,
    fixed_resources=6,
    fixed_schedulers=2,
    base_rate_per_resource=0.0008,
    horizon=1500.0,
    drain=4000.0,
    scales=(1, 2),
    sa_iterations=1,
)


def reference_single_source(topo: Topology, source: int) -> List[PathInfo]:
    """Heap Dijkstra from ``source`` minimizing latency: the oracle that
    :func:`repro.topology.paths.single_source` must reproduce exactly.

    Returns
    -------
    list[PathInfo]
        For every node ``v``: ``(latency, hops, transmission_factor)``
        along the latency-shortest path from ``source`` to ``v``.
        Unreachable nodes (cannot happen for generated topologies, which
        are connected) get ``(inf, -1, inf)``.
    """
    n = topo.n_nodes
    dist = [math.inf] * n
    hops = [-1] * n
    txf = [math.inf] * n
    dist[source] = 0.0
    hops[source] = 0
    txf[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale entry
        for v in topo.neighbors(u):
            link = topo.link(u, v)
            nd = d + link.latency
            if nd < dist[v]:
                dist[v] = nd
                hops[v] = hops[u] + 1
                txf[v] = txf[u] + 1.0 / link.bandwidth
                heapq.heappush(heap, (nd, v))
    return list(zip(dist, hops, txf))


class ReferenceStatusTable:
    """Last-known loads of a set of resources.

    Parameters
    ----------
    resource_ids:
        The resources this table tracks (a cluster for distributed
        schedulers, the whole pool for CENTRAL).
    """

    __slots__ = ("_load", "_stamp", "_dead", "_heap")

    def __init__(self, resource_ids: Iterable[int]) -> None:
        self._load: Dict[int, float] = {r: 0.0 for r in resource_ids}
        self._stamp: Dict[int, float] = {r: -math.inf for r in self._load}
        self._dead: Set[int] = set()
        # Lazy min-heap over (load, id): every mutation pushes a fresh
        # entry; stale/dead entries are discarded when they surface at
        # the top.  `least_loaded` is the per-decision hot path (every
        # placement calls it), and the lexicographic heap minimum is
        # exactly the old sorted-scan answer — smallest load, lowest id
        # on ties — at O(log n) per mutation instead of O(n log n) per
        # decision, which is what keeps decisions affordable when one
        # table tracks 1e5-scale pools.
        self._heap = [(0.0, r) for r in sorted(self._load)]

    def __contains__(self, resource_id: int) -> bool:
        return resource_id in self._load

    def __len__(self) -> int:
        return len(self._load)

    def record(self, resource_id: int, load: float, time: float) -> None:
        """Store an observed load for ``resource_id`` at ``time``.

        Out-of-order updates (older than the stored stamp) are ignored —
        the network can reorder messages sent over different paths.
        """
        if resource_id not in self._load:
            raise KeyError(f"resource {resource_id} not tracked by this table")
        if time >= self._stamp[resource_id]:
            self._load[resource_id] = load
            self._stamp[resource_id] = time
            # Fresh news proves liveness: a recovered resource rejoins
            # the placement view on its first post-repair report.
            self._dead.discard(resource_id)
            # Revivals must re-enter the heap even when the load is
            # unchanged: the dead entry may already have been discarded.
            heapq.heappush(self._heap, (load, resource_id))
            self._maybe_compact()

    def bump(self, resource_id: int, by: float = 1.0) -> None:
        """Optimistically adjust a tracked load (local dispatch bookkeeping)."""
        if resource_id not in self._load:
            raise KeyError(f"resource {resource_id} not tracked by this table")
        load = max(0.0, self._load[resource_id] + by)
        self._load[resource_id] = load
        heapq.heappush(self._heap, (load, resource_id))
        self._maybe_compact()

    def load_of(self, resource_id: int) -> float:
        """Last known load of one resource."""
        return self._load[resource_id]

    def mark_dead(self, resource_id: int) -> None:
        """Age the resource out of every placement view (entry is kept)."""
        if resource_id not in self._load:
            raise KeyError(f"resource {resource_id} not tracked by this table")
        self._dead.add(resource_id)

    def is_dead(self, resource_id: int) -> bool:
        """Whether the resource is currently aged out."""
        return resource_id in self._dead

    @property
    def alive_count(self) -> int:
        """Tracked resources not currently aged out."""
        return len(self._load) - len(self._dead)

    def _maybe_compact(self) -> None:
        """Rebuild the heap from live state once lazy entries pile up."""
        if len(self._heap) > max(64, 8 * len(self._load)):
            dead = self._dead
            self._heap = [
                (v, r) for r, v in self._load.items() if r not in dead
            ]
            heapq.heapify(self._heap)

    def least_loaded(self) -> Tuple[Optional[int], float]:
        """Live resource with the smallest known load (ties -> lowest id).

        Returns ``(None, inf)`` for an empty table or when every tracked
        resource is aged out.
        """
        heap = self._heap
        load = self._load
        dead = self._dead
        while heap:
            v, r = heap[0]
            if r in dead or load[r] != v:
                heapq.heappop(heap)  # stale lazy entry
                continue
            return r, v
        return None, math.inf

    def average_load(self) -> float:
        """Mean known load over live resources (``nan`` if none)."""
        n = len(self._load) - len(self._dead)
        if n == 0:
            return math.nan
        if not self._dead:
            return sum(self._load.values()) / n
        return (
            sum(v for r, v in self._load.items() if r not in self._dead) / n
        )

    def min_load(self) -> float:
        """Smallest known live load (``inf`` if none)."""
        if not self._dead:
            return min(self._load.values(), default=math.inf)
        return min(
            (v for r, v in self._load.items() if r not in self._dead),
            default=math.inf,
        )

    def staleness_of(self, resource_id: int, now: float) -> float:
        """Age of one entry at ``now`` (``nan`` if never updated).

        The per-decision twin of :meth:`mean_staleness`: the causal
        tracer records it on every dispatch, so a trace shows how stale
        the status row behind each placement actually was.
        """
        stamp = self._stamp[resource_id]
        if stamp == -math.inf:
            return math.nan
        return now - stamp

    def mean_staleness(self, now: float) -> float:
        """Mean age of the table's live entries at ``now``.

        How old, on average, the placement view is — the accuracy side
        of the monitoring overhead/accuracy tradeoff the probe layer
        samples.  Entries that never received an update (stamp
        ``-inf``) and aged-out dead entries are excluded; ``nan`` when
        nothing qualifies.
        """
        total = 0.0
        n = 0
        dead = self._dead
        for r, stamp in self._stamp.items():
            if stamp == -math.inf or r in dead:
                continue
            total += now - stamp
            n += 1
        return total / n if n else math.nan

    def loads(self) -> Dict[int, float]:
        """Copy of the full view (diagnostics/tests)."""
        return dict(self._load)


def make_spec(
    arrival=0.0,
    execution=50.0,
    benefit=5.0,
    cluster=0,
    job_class=JobClass.LOCAL,
    job_id=None,
):
    """A JobSpec with friendly defaults for protocol tests."""
    return JobSpec(
        job_id=next(_ids) if job_id is None else job_id,
        arrival_time=arrival,
        execution_time=execution,
        requested_time=execution * 2,
        benefit_factor=benefit,
        submit_cluster=cluster,
        job_class=job_class,
    )


def make_job(**kw):
    """A runtime Job over :func:`make_spec`."""
    return Job(make_spec(**kw))


class MiniGrid:
    """A hand-wired grid: ``n_clusters`` schedulers, each with
    ``resources_per_cluster`` resources, all on a uniform star topology
    (every site one hop from a hub; latency 0.1, bandwidth 1000 — transit
    delays are small and identical, keeping assertions simple).

    Parameters
    ----------
    scheduler_cls:
        Scheduler class (SchedulerBase or an RMS subclass).
    n_clusters, resources_per_cluster:
        Grid shape.
    costs:
        Cost model (defaults to small, simple values for fast tests).
    service_rate:
        Resource service rate.
    seed:
        RNG seed for peer selection streams.
    central:
        If True, build ONE scheduler managing all resources (CENTRAL
        layout); n_clusters is then the number of resource groups only.
    use_middleware:
        Wire a shared Middleware entity (superscheduler protocols).
    """

    def __init__(
        self,
        scheduler_cls=SchedulerBase,
        n_clusters=2,
        resources_per_cluster=3,
        costs=None,
        service_rate=1.0,
        seed=0,
        central=False,
        use_middleware=False,
        scheduler_kwargs=None,
    ):
        self.sim = Simulator()
        self.ledger = CostLedger()
        self.costs = costs or CostModel(
            decision_base=0.1,
            scan_per_entry=0.01,
            update_proc=0.1,
            estimator_proc=0.05,
            poll_proc=0.1,
            advert_proc=0.1,
            auction_proc=0.1,
            completion_proc=0.05,
            transfer_proc=0.1,
            middleware_service=0.05,
            job_control=0.05,
            data_mgmt=0.02,
        )
        self.hub = RngHub(seed)

        n_sched = 1 if central else n_clusters
        n_res = n_clusters * resources_per_cluster
        # Star topology: node 0 is the hub; sites 1..(n_sched+n_res).
        n_nodes = 1 + n_sched + n_res + (1 if use_middleware else 0)
        topo = Topology(n_nodes)
        for v in range(1, n_nodes):
            topo.add_link(0, v, 0.1, 1000.0)
        self.topology = topo
        self.network = Network(self.sim, Router(topo))

        # Schedulers
        self.schedulers = []
        for s in range(n_sched):
            sched = scheduler_cls(
                self.sim,
                f"sched{s}",
                node=1 + s,
                scheduler_id=s,
                ledger=self.ledger,
                costs=self.costs,
                **(scheduler_kwargs or {}),
            )
            sched.network = self.network
            sched.rng = self.hub.stream(f"sched{s}")
            self.schedulers.append(sched)

        # Resources
        self.resources = []
        for r in range(n_res):
            cluster = r // resources_per_cluster
            owner = self.schedulers[0] if central else self.schedulers[cluster]
            res = Resource(
                self.sim,
                f"res{r}",
                node=1 + n_sched + r,
                resource_id=r,
                cluster_id=owner.scheduler_id,
                service_rate=service_rate,
                ledger=self.ledger,
                costs=self.costs,
            )
            res.network = self.network
            res.scheduler = owner
            self.resources.append(res)

        # Tables + resource maps
        for sched in self.schedulers:
            mine = [r for r in self.resources if r.cluster_id == sched.scheduler_id]
            sched.resources = {r.resource_id: r for r in mine}
            sched.table = StatusTable([r.resource_id for r in mine])

        # Peers: everyone else
        for sched in self.schedulers:
            sched.peers = [p for p in self.schedulers if p is not sched]

        # One estimator co-located with each scheduler; resources report
        # to their cluster's estimator.
        self.estimators = []
        for s, sched in enumerate(self.schedulers):
            est = Estimator(
                self.sim,
                f"est{s}",
                node=sched.node,
                estimator_id=s,
                ledger=self.ledger,
                costs=self.costs,
            )
            est.network = self.network
            est.schedulers = {sched.scheduler_id: sched}
            self.estimators.append(est)
        for res in self.resources:
            owner_idx = 0 if central else res.cluster_id
            res.estimator = self.estimators[owner_idx]

        # Optional middleware at the hub
        self.middleware = None
        if use_middleware:
            self.middleware = Middleware(
                self.sim, "mw", node=0, ledger=self.ledger, costs=self.costs
            )
            self.middleware.network = self.network
            for sched in self.schedulers:
                sched.middleware = self.middleware

    def submit(self, job, cluster=0, at=None):
        """Inject a job submission at its arrival time (or ``at``)."""
        from repro.network import Message, MessageKind

        when = job.spec.arrival_time if at is None else at
        sched = self.schedulers[min(cluster, len(self.schedulers) - 1)]
        delay = max(0.0, when - self.sim.now)
        self.sim.schedule(
            delay, sched.deliver, Message(MessageKind.JOB_SUBMIT, payload={"job": job})
        )
        return job
