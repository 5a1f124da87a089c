"""Tests for shortest-path algorithms, cross-checked against networkx and,
bit for bit, against the heap Dijkstra in :mod:`tests.helpers`."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngHub
from repro.topology import (
    PathTable,
    Topology,
    TopologyParams,
    generate_topology,
    multi_source_nearest,
    single_source,
)

from .helpers import reference_single_source

#: few distinct values, so equal-latency routes (ties) are common
TIE_LATENCIES = (0.25, 0.5, 1.0, 2.0, 3.0)
TIE_BANDWIDTHS = (1.0, 2.0, 4.0, 10.0)


def line(n=4):
    """0 -1- 1 -2- 2 -3- 3 ... latencies increasing."""
    t = Topology(n)
    for i in range(n - 1):
        t.add_link(i, i + 1, float(i + 1), 10.0 * (i + 1))
    return t


class TestSingleSource:
    def test_line_distances(self):
        info = single_source(line(4), 0)
        assert [d for d, _, _ in info] == [0.0, 1.0, 3.0, 6.0]
        assert [h for _, h, _ in info] == [0, 1, 2, 3]

    def test_transmission_factor_accumulates(self):
        info = single_source(line(3), 0)
        assert info[2][2] == pytest.approx(1 / 10.0 + 1 / 20.0)

    def test_source_is_zero(self):
        info = single_source(line(3), 1)
        assert info[1] == (0.0, 0, 0.0)

    def test_unreachable_marked(self):
        t = Topology(3)
        t.add_link(0, 1, 1.0, 1.0)
        info = single_source(t, 0)
        assert math.isinf(info[2][0])
        assert info[2][1] == -1

    def test_prefers_low_latency_path(self):
        t = Topology(3)
        t.add_link(0, 2, 10.0, 1000.0)   # direct but slow
        t.add_link(0, 1, 1.0, 1.0)
        t.add_link(1, 2, 1.0, 1.0)
        info = single_source(t, 0)
        assert info[2][0] == 2.0
        assert info[2][1] == 2  # took the 2-hop path

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_networkx(self, n, seed):
        topo = generate_topology(
            TopologyParams(n_nodes=n), RngHub(seed).stream("topology")
        )
        g = topo.to_networkx()
        ref = nx.single_source_dijkstra_path_length(g, 0, weight="latency")
        ours = single_source(topo, 0)
        for v in range(n):
            assert ours[v][0] == pytest.approx(ref[v])


    def test_out_of_range_source_rejected(self):
        # A negative source must not wrap around to node n - 1.
        with pytest.raises(ValueError):
            single_source(line(3), -1)
        with pytest.raises(ValueError):
            single_source(line(3), 3)

    def test_vanishing_latency_rejected(self):
        # 1e20 + 1.0 == 1e20: node 2 has no strictly closer neighbour,
        # so its predecessor is undefined.
        t = Topology(3)
        t.add_link(0, 1, 1e20, 1.0)
        t.add_link(1, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            single_source(t, 0)

    def test_add_link_invalidates_cached_edges(self):
        topo = line(4)
        assert single_source(topo, 0)[3] == (6.0, 3, 1 / 10 + 1 / 20 + 1 / 30)
        topo.add_link(0, 3, 0.5, 4.0)
        assert single_source(topo, 0)[3] == (0.5, 1, 0.25)


def diamond(first, second):
    """Source 0 and sink 9 joined by two node-disjoint routes of equal
    total latency.  Each route is a list of ``(node, latency,
    bandwidth)`` hops from the source."""
    t = Topology(10)
    for route in (first, second):
        prev = 0
        for node, latency, bandwidth in route:
            t.add_link(prev, node, latency, bandwidth)
            prev = node
    return t


class TestTieBreaking:
    """Of two equal-latency routes, the one whose last relay has the
    lowest ``(latency, node id)`` wins — the heap's settle order."""

    def test_lower_relay_id_wins_equal_relay_latency(self):
        # Relays 1 and 3 both sit at latency 1.0; node 1 wins the tie.
        topo = diamond(
            [(1, 1.0, 10.0), (9, 2.0, 10.0)],
            [(2, 0.5, 1.0), (3, 0.5, 1.0), (9, 2.0, 1.0)],
        )
        expected = (3.0, 2, 0.1 + 0.1)
        assert single_source(topo, 0)[9] == expected
        assert reference_single_source(topo, 0)[9] == expected

    def test_lower_relay_latency_wins_over_lower_id(self):
        # Relay 3 (latency 1.0) beats relay 2 (latency 1.5).
        topo = diamond(
            [(3, 1.0, 1.0), (9, 2.0, 1.0)],
            [(1, 0.5, 10.0), (2, 1.0, 10.0), (9, 1.5, 10.0)],
        )
        expected = (3.0, 2, 2.0)
        assert single_source(topo, 0)[9] == expected
        assert reference_single_source(topo, 0)[9] == expected


@st.composite
def tie_heavy_topologies(draw):
    """Random graphs over few latency and bandwidth values, with
    isolated nodes appended and often disconnected components."""
    n = draw(st.integers(min_value=1, max_value=24))
    isolated = draw(st.integers(min_value=0, max_value=2))
    topo = Topology(n + isolated)
    node = st.integers(min_value=0, max_value=n - 1)
    links = draw(st.lists(
        st.tuples(node, node, st.sampled_from(TIE_LATENCIES),
                  st.sampled_from(TIE_BANDWIDTHS)),
        max_size=3 * n,
    ))
    for u, v, latency, bandwidth in links:
        if u != v:
            topo.add_link(u, v, latency, bandwidth)
    return topo


def rows(table):
    """Every ``(latency, hops, factor)`` row of a ``PathTable``."""
    return [table[v] for v in range(len(table))]


class TestMatchesHeapDijkstra:
    """``single_source`` reproduces the heap Dijkstra's tables exactly:
    same floats to the last bit, same hop counts, row by row."""

    @settings(max_examples=200, deadline=None)
    @given(topo=tie_heavy_topologies())
    def test_tie_heavy_random_graphs(self, topo):
        for source in range(topo.n_nodes):
            assert rows(single_source(topo, source)) == reference_single_source(topo, source)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=600),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_generated_topologies(self, n, seed):
        topo = generate_topology(
            TopologyParams(n_nodes=n), RngHub(seed).stream("topology")
        )
        for source in range(n):
            assert rows(single_source(topo, source)) == reference_single_source(topo, source)


class TestPathTable:
    def test_columns_are_compact_arrays(self):
        table = single_source(line(4), 0)
        assert isinstance(table, PathTable)
        assert (table.latency.typecode, table.hops.typecode, table.factor.typecode) == (
            "d", "i", "d")
        assert len(table) == len(table.latency) == len(table.hops) == len(table.factor) == 4

    def test_rows_are_python_scalars(self):
        # exact-type check: 0 == 0.0 would let a wrong type through ==
        topo = generate_topology(TopologyParams(n_nodes=40), RngHub(3).stream("topology"))
        table = single_source(topo, 5)
        for row in list(table) + rows(table):
            assert tuple(map(type, row)) == (float, int, float)

    def test_iteration_and_indexing_agree(self):
        topo = generate_topology(TopologyParams(n_nodes=40), RngHub(4).stream("topology"))
        table = single_source(topo, 0)
        assert list(table) == rows(table) == reference_single_source(topo, 0)


class TestMultiSource:
    def test_nearest_assignment_on_line(self):
        # line latencies: 0-1:1, 1-2:2, 2-3:3 ; sources {0, 3}
        dist, nearest = multi_source_nearest(line(4), [0, 3])
        assert nearest[0] == 0 and nearest[3] == 3
        assert nearest[1] == 0          # 1 is at distance 1 from 0, 5 from 3
        assert nearest[2] == 3          # 2 is at distance 3 from both; ties
        # Verify distances are the min over sources.
        assert dist[1] == 1.0
        assert dist[2] == 3.0

    def test_single_source_degenerates(self):
        dist, nearest = multi_source_nearest(line(4), [0])
        assert all(s == 0 for s in nearest)
        assert dist == [0.0, 1.0, 3.0, 6.0]

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            multi_source_nearest(line(3), [7])

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=50),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_nearest_really_is_nearest(self, n, seed, k):
        topo = generate_topology(
            TopologyParams(n_nodes=n), RngHub(seed).stream("topology")
        )
        sources = sorted(set(range(0, n, max(1, n // k))))[:k]
        dist, nearest = multi_source_nearest(topo, sources)
        per_source = {s: single_source(topo, s) for s in sources}
        for v in range(n):
            best = min(per_source[s][v][0] for s in sources)
            assert dist[v] == pytest.approx(best)
            assert per_source[nearest[v]][v][0] == pytest.approx(best)
