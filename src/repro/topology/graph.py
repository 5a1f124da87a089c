"""Router-level topology data structure.

A :class:`Topology` is an undirected graph of router nodes connected by
links with finite **latency** (time units) and **bandwidth** (payload
units per time unit), matching the paper's assumption that "network links
have finite bandwidth and non-zero latencies".

The structure is deliberately minimal — adjacency dictionaries keyed by
node id — because the routing layer and the generator are the only
consumers.  The shortest-path kernel reads the links through
:meth:`Topology.in_edges`, a cached array view built from the
dictionaries.  A :meth:`to_networkx` view exists for tests, which
cross-check our shortest paths against ``networkx``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import networkx as nx
import numpy as np

__all__ = ["InEdges", "Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """An undirected link between two routers.

    Attributes
    ----------
    u, v:
        Endpoint node ids (``u < v`` by construction).
    latency:
        Propagation delay in time units; must be positive ("non-zero
        latencies").
    bandwidth:
        Transfer capacity in payload units per time unit; must be
        positive ("finite bandwidth").
    """

    u: int
    v: int
    latency: float
    bandwidth: float


class InEdges(NamedTuple):
    """Array view of a :class:`Topology`'s edges, grouped by destination.

    One entry per *directed* edge, so every undirected link appears
    twice.  Entries are grouped by destination node in ascending order
    (compressed-sparse-row order); nodes without links have none.  Node
    ids are int32 to keep the view compact.
    """

    #: source node of each edge
    src: np.ndarray
    #: destination node of each edge
    dst: np.ndarray
    #: link latency of each edge
    latency: np.ndarray
    #: ``1 / bandwidth`` of each edge's link
    inv_bandwidth: np.ndarray


class Topology:
    """An undirected router graph with latency/bandwidth-annotated links.

    Nodes are dense integers ``0..n-1``.  Optional per-node planar
    coordinates (from the generator) are kept for placement heuristics
    and debugging.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("topology needs at least one node")
        self._n = n_nodes
        # adjacency: node -> {neighbor: Link}
        self._adj: List[Dict[int, Link]] = [dict() for _ in range(n_nodes)]
        self._n_links = 0
        #: optional (x, y) coordinates per node, filled by the generator
        self.coords: Optional[List[Tuple[float, float]]] = None
        self._in_edges: Optional[InEdges] = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of router nodes."""
        return self._n

    @property
    def n_links(self) -> int:
        """Number of undirected links."""
        return self._n_links

    def add_link(self, u: int, v: int, latency: float, bandwidth: float) -> Link:
        """Add an undirected link; replaces any existing ``(u, v)`` link.

        Raises
        ------
        ValueError
            For self-loops, unknown nodes, or non-positive latency or
            bandwidth.
        """
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"link endpoints out of range: ({u}, {v})")
        if latency <= 0.0:
            raise ValueError("links must have non-zero latency")
        if bandwidth <= 0.0:
            raise ValueError("links must have positive bandwidth")
        a, b = (u, v) if u < v else (v, u)
        link = Link(a, b, latency, bandwidth)
        if v not in self._adj[u]:
            self._n_links += 1
        self._adj[u][v] = link
        self._adj[v][u] = link
        self._in_edges = None
        return link

    def has_link(self, u: int, v: int) -> bool:
        """Whether an undirected link ``(u, v)`` exists."""
        return v in self._adj[u]

    def link(self, u: int, v: int) -> Link:
        """Return the link between ``u`` and ``v`` (KeyError if absent)."""
        return self._adj[u][v]

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate neighbor node ids of ``u``."""
        return iter(self._adj[u])

    def degree(self, u: int) -> int:
        """Number of links incident to ``u``."""
        return len(self._adj[u])

    def links(self) -> Iterator[Link]:
        """Iterate each undirected link exactly once."""
        for u in range(self._n):
            for v, link in self._adj[u].items():
                if u < v:
                    yield link

    def in_edges(self) -> InEdges:
        """The :class:`InEdges` array view, built on first use and cached
        until the next :meth:`add_link`."""
        view = self._in_edges
        if view is None:
            n = self._n
            deg = np.fromiter(map(len, self._adj), dtype=np.int64, count=n)
            m = int(deg.sum())
            links = list(itertools.chain.from_iterable(a.values() for a in self._adj))
            view = self._in_edges = InEdges(
                src=np.fromiter(itertools.chain.from_iterable(self._adj), np.int32, m),
                dst=np.repeat(np.arange(n, dtype=np.int32), deg),
                latency=np.fromiter((k.latency for k in links), float, m),
                inv_bandwidth=np.fromiter((1.0 / k.bandwidth for k in links), float, m),
            )
        return view

    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0 (BFS)."""
        seen = [False] * self._n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._n

    def to_networkx(self) -> "nx.Graph":
        """Export as a ``networkx.Graph`` with ``latency``/``bandwidth``
        edge attributes (used by tests as a reference implementation)."""
        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        for link in self.links():
            g.add_edge(link.u, link.v, latency=link.latency, bandwidth=link.bandwidth)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(n_nodes={self._n}, n_links={self._n_links})"
