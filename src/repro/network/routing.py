"""OSPF-like routing over a static topology.

The paper's simulator "uses an OSPF like algorithm for routing messages
between resources".  OSPF floods link-state advertisements and then each
router runs Dijkstra over the resulting link-state database.  Our
topologies are static for the duration of a run, so the link-state
database equals the topology and routing reduces to latency-weighted
shortest paths — computed lazily per source and cached.

The cache is the hot data structure of the whole simulator: a 1000-node
Case-2 run prices millions of messages, but only between a handful of
distinct (scheduler, scheduler/resource) pairs, so per-source caching
makes pricing O(1) amortized.
"""

from __future__ import annotations

from typing import Dict, List

from ..topology.graph import Topology
from ..topology.paths import PathInfo, single_source

__all__ = ["Router"]


class Router:
    """Latency-shortest-path router with per-source caching.

    Parameters
    ----------
    topo:
        The (static) router topology; must be connected for every pair
        of mapped sites to communicate.
    """

    def __init__(self, topo: Topology) -> None:
        self.topology = topo
        self._cache: Dict[int, List[PathInfo]] = {}
        #: When set, an uncached source may be priced from the
        #: destination's cached table instead of computing its own.
        #: The topology is undirected, so the reverse path has the same
        #: links, but its latency and transmission-factor sums are
        #: added in the opposite order and can differ in the last bit
        #: (about a third of pairs on a 576-node generated topology);
        #: the hop count can differ between tie-broken equal-latency
        #: paths.  Fluid-mode builders accept that ulp-level
        #: approximation: at 1e5-scale pools the resource→scheduler
        #: completion sends would otherwise trigger one full
        #: shortest-path table per resource node.
        self.symmetric = False

    def prime(self, src: int, table: List[PathInfo]) -> None:
        """Seed the cache with a precomputed ``single_source`` table.

        The grid mapper already computes one table per scheduler site
        for cluster assignment; donating those tables here means the
        hottest sources (schedulers and their co-located estimators)
        never pay a second shortest-path sweep.  The table must be the
        exact ``single_source`` output for ``src`` — priming is a pure
        cache warm-up and cannot change any priced path.
        """
        self._cache.setdefault(src, table)

    def _table(self, src: int) -> List[PathInfo]:
        table = self._cache.get(src)
        if table is None:
            table = single_source(self.topology, src)
            self._cache[src] = table
        return table

    def path_info(self, src: int, dst: int) -> PathInfo:
        """Return ``(latency, hops, transmission_factor)`` for src → dst.

        ``transmission_factor`` is ``sum(1/bandwidth)`` over the path, so
        a message of size ``s`` spends ``latency + s * factor`` in
        transit (store-and-forward on every hop).
        """
        if src == dst:
            return (0.0, 0, 0.0)
        if self.symmetric and src not in self._cache:
            table = self._cache.get(dst)
            if table is not None:
                return table[src]
        return self._table(src)[dst]

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
