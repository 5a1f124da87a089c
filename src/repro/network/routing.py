"""OSPF-like routing over a static topology.

The paper's simulator "uses an OSPF like algorithm for routing messages
between resources".  OSPF floods link-state advertisements and then each
router runs Dijkstra over the resulting link-state database.  Our
topologies are static for the duration of a run, so the link-state
database equals the topology and routing reduces to latency-weighted
shortest paths — computed lazily per source and cached.

The cache is the hot data structure of the whole simulator.  Scheduler
sites (and the estimators co-located with them) originate most routed
traffic, and their tables are primed from the grid mapper.  In discrete
traffic mode, though, every resource sends its own status updates, so
in practice every node becomes a source: a full-profile Case-1 run at
k=3 caches a table for 576 of its 576 nodes.  Fluid mode models those
updates instead and prices the remaining resource sends in reverse from
the destination's table (:attr:`Router.symmetric`), so in the runs
measured it holds only the primed scheduler tables.

Each table is a :class:`~repro.topology.paths.PathTable`: three compact
columns (latency, hops, transmission factor) indexed by destination
node, 20 bytes a destination.  A router belongs to a
:class:`~repro.experiments.platform.Platform`, which the batch
executors keep for the next run on the same platform, so one tuned
walk pays for each table once per process rather than once per run.
"""

from __future__ import annotations

from typing import Dict

from ..topology.graph import Topology
from ..topology.paths import PathInfo, PathTable, single_source

__all__ = ["Router"]


class Router:
    """Latency-shortest-path router with per-source caching.

    Parameters
    ----------
    topo:
        The (static) router topology; must be connected for every pair
        of mapped sites to communicate.
    symmetric:
        When set, an uncached source may be priced from the
        destination's cached table instead of computing its own.  The
        topology is undirected, so the reverse path has the same links,
        but its latency and transmission-factor sums are added in the
        opposite order and can differ in the last bit (about a third of
        pairs on a 576-node generated topology); the hop count can
        differ between tie-broken equal-latency paths.  Fluid-mode
        runs accept that ulp-level approximation: at 1e5-scale
        pools the resource→scheduler completion sends would otherwise
        trigger one full shortest-path table per resource node.
        Pricing then depends on which tables are already cached, so
        the flag is fixed for the router's lifetime.
    """

    def __init__(self, topo: Topology, symmetric: bool = False) -> None:
        self.topology = topo
        self.symmetric = symmetric
        self._cache: Dict[int, PathTable] = {}

    def prime(self, src: int, table: PathTable) -> None:
        """Seed the cache with a precomputed ``single_source`` table.

        The grid mapper already computes one table per scheduler site
        for cluster assignment; donating those tables here means the
        hottest sources (schedulers and their co-located estimators)
        never pay a second shortest-path sweep.  The table must be the
        exact ``single_source`` output for ``src`` — priming is a pure
        cache warm-up and cannot change any priced path.
        """
        self._cache.setdefault(src, table)

    def path_info(self, src: int, dst: int) -> PathInfo:
        """Return ``(latency, hops, transmission_factor)`` for src → dst.

        ``transmission_factor`` is ``sum(1/bandwidth)`` over the path, so
        a message of size ``s`` spends ``latency + s * factor`` in
        transit (store-and-forward on every hop).
        """
        if src == dst:
            return (0.0, 0, 0.0)
        table = self._cache.get(src)
        if table is None:
            if self.symmetric:
                reverse = self._cache.get(dst)
                if reverse is not None:
                    return reverse[src]
            table = self._cache[src] = single_source(self.topology, src)
        return (table.latency[dst], table.hops[dst], table.factor[dst])

    def transit_delay(self, src: int, dst: int, size: float) -> float:
        """End-to-end transit time of a ``size``-unit message src → dst."""
        latency, _, factor = self.path_info(src, dst)
        return latency + size * factor

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links on the latency-shortest path src → dst."""
        return self.path_info(src, dst)[1]

    @property
    def cached_sources(self) -> int:
        """Number of sources with a computed routing table (diagnostics)."""
        return len(self._cache)
