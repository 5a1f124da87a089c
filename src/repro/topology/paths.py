"""Shortest-path algorithms over :class:`~repro.topology.graph.Topology`.

These are pure graph algorithms shared by the routing layer (which is an
OSPF substitute: link-state shortest path by latency) and by the grid
mapper (which assigns resources to their nearest scheduler).

Paths minimize **total link latency**, matching OSPF's additive-metric
semantics.  Alongside the latency we accumulate the **transmission
factor** ``sum(1 / bandwidth)`` over the chosen path, so the transport
layer can price a message of size ``s`` as
``latency + s * transmission_factor`` (store-and-forward over every hop).
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Iterable, List, Tuple

import numpy as np

from .graph import Topology

__all__ = ["single_source", "multi_source_nearest", "PathInfo", "PathTable"]

#: (latency, hops, transmission_factor) triple for one destination.
PathInfo = Tuple[float, int, float]


class PathTable:
    """One source's shortest-path table, stored as three columns.

    ``latency`` (``array('d')``), ``hops`` (``array('i')``) and
    ``factor`` (``array('d')``, the transmission factor) are indexed by
    destination node: 20 bytes a destination, against ~150 for a tuple
    of three boxed Python numbers.  Indexing an ``array.array`` yields a
    plain Python ``float`` or ``int``, so a looked-up route prices
    messages exactly as the tuple did.  ``table[v]`` is the
    :data:`PathInfo` row of node ``v``.
    """

    __slots__ = ("latency", "hops", "factor")

    def __init__(self, latency: array, hops: array, factor: array) -> None:
        self.latency = latency
        self.hops = hops
        self.factor = factor

    def __len__(self) -> int:
        return len(self.latency)

    def __getitem__(self, node: int) -> PathInfo:
        return (self.latency[node], self.hops[node], self.factor[node])


def single_source(topo: Topology, source: int) -> PathTable:
    """Latency-shortest paths from ``source`` to every node.

    Returns
    -------
    PathTable
        For every node ``v``: ``(latency, hops, transmission_factor)``
        along the latency-shortest path from ``source`` to ``v``.
        Unreachable nodes (cannot happen for generated topologies, which
        are connected) get ``(inf, -1, inf)``.

    The table is exactly the one a heap Dijkstra produces that relaxes
    an edge only on a strict improvement, computed on the arrays of
    :meth:`Topology.in_edges` instead of edge by edge:

    1. *Latency.*  Every node repeatedly takes the minimum of
       ``latency[u] + link`` over its in-edges until nothing changes.
       Float addition is monotone, so the fixpoint is the same minimum
       over left-to-right path sums that the heap settles, bit for bit.
    2. *Predecessor.*  Among the in-edges that attain a node's latency,
       the one from the smallest ``(latency[u], u)``: the heap settles
       nodes in that order and keeps the first edge that reaches the
       minimum.
    3. *Hops and transmission factor.*  Hops count predecessor links
       (pointer jumping); the factor is folded outward from the source
       one hop level at a time as ``factor[pred] + 1 / bandwidth``, the
       heap's order of additions.

    This assumes no link latency vanishes when added to a path latency
    (``d + latency > d``), as holds for positive latencies of comparable
    magnitude.

    Raises
    ------
    ValueError
        If ``source`` is not a node of ``topo``, or a node is reached
        only through links whose latency vanishes in the path sum.
    """
    n = topo.n_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    edges = topo.in_edges()
    src, dst, lat = edges.src, edges.dst, edges.latency
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    while True:
        relaxed = dist.copy()
        np.minimum.at(relaxed, dst, dist[src] + lat)
        if not (relaxed < dist).any():
            break
        dist = relaxed

    # The heap keeps the first edge that attains a node's latency, and
    # it relaxes edges in (latency[u], u) order: of the tight edges into
    # each reached node, keep the lowest latency[u], then the lowest u.
    via = dist[src]
    reached = dist[dst]
    tight = np.flatnonzero((via + lat == reached) & (via < reached))
    to, frm, via = dst[tight], src[tight], via[tight]
    low = np.full(n, math.inf)
    np.minimum.at(low, to, via)
    keep = via == low[to]
    tight, to, frm = tight[keep], to[keep], frm[keep]
    first = np.full(n, n, dtype=frm.dtype)
    np.minimum.at(first, to, frm)
    keep = frm == first[to]
    edge, node = tight[keep], to[keep]
    if node.size != np.count_nonzero(dist < math.inf) - 1:
        raise ValueError("a link latency vanishes against a path latency")

    pred = np.arange(n)
    pred[node] = frm[keep]
    # hops[v] counts the links from v up to up[v]; doubling every
    # pointer each round reaches the source in log2(depth) rounds.
    hops = np.zeros(n, dtype=np.int64)
    hops[node] = 1
    up = pred
    while True:
        step = hops[up]
        if not step.any():
            break
        hops += step
        up = up[up]

    # One hop level at a time, so each factor extends a finished one.
    txf = np.full(n, math.inf)
    txf[source] = 0.0
    order = np.argsort(hops[node], kind="stable")
    node, weight = node[order], edges.inv_bandwidth[edge[order]]
    bounds = np.cumsum(np.bincount(hops[node]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        level = node[lo:hi]
        txf[level] = txf[pred[level]] + weight[lo:hi]
    hops[dist == math.inf] = -1
    return PathTable(
        array("d", dist.tobytes()),
        array("i", hops.astype(np.intc).tobytes()),
        array("d", txf.tobytes()),
    )


def multi_source_nearest(
    topo: Topology, sources: Iterable[int]
) -> Tuple[List[float], List[int]]:
    """Multi-source Dijkstra: latency and identity of the nearest source.

    Used to partition resources into non-overlapping clusters around
    their closest scheduler.  Ties are broken toward the source that
    first reaches the node in the (deterministic) heap order, which is
    the lowest-latency one and, for exact ties, the lowest node id
    among the seeds pushed first.

    Returns
    -------
    (dist, nearest):
        ``dist[v]`` — latency from ``v`` to its nearest source;
        ``nearest[v]`` — the source node id ``v`` is assigned to.
    """
    n = topo.n_nodes
    dist = [math.inf] * n
    nearest = [-1] * n
    heap: List[Tuple[float, int, int]] = []
    for s in sorted(set(sources)):
        if not (0 <= s < n):
            raise ValueError(f"source {s} out of range")
        dist[s] = 0.0
        nearest[s] = s
        heap.append((0.0, s, s))
    heapq.heapify(heap)
    while heap:
        d, u, src = heapq.heappop(heap)
        if d > dist[u] or (d == dist[u] and nearest[u] != src):
            continue
        for v in topo.neighbors(u):
            nd = d + topo.link(u, v).latency
            if nd < dist[v]:
                dist[v] = nd
                nearest[v] = src
                heapq.heappush(heap, (nd, v, src))
    return dist, nearest
