"""Tests for the Topology data structure."""

import pytest

from repro.topology import Topology


def triangle():
    t = Topology(3)
    t.add_link(0, 1, 1.0, 10.0)
    t.add_link(1, 2, 2.0, 20.0)
    t.add_link(0, 2, 3.0, 30.0)
    return t


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Topology(0)

    def test_counts(self):
        t = triangle()
        assert t.n_nodes == 3
        assert t.n_links == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology(2).add_link(1, 1, 1.0, 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Topology(2).add_link(0, 5, 1.0, 1.0)

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            Topology(2).add_link(0, 1, 0.0, 1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Topology(2).add_link(0, 1, 1.0, 0.0)

    def test_link_is_symmetric(self):
        t = triangle()
        assert t.link(0, 1) is t.link(1, 0)
        assert t.has_link(2, 0)

    def test_link_endpoints_normalized(self):
        t = Topology(3)
        link = t.add_link(2, 0, 1.0, 1.0)
        assert (link.u, link.v) == (0, 2)

    def test_replacing_link_keeps_count(self):
        t = Topology(2)
        t.add_link(0, 1, 1.0, 1.0)
        t.add_link(0, 1, 5.0, 2.0)
        assert t.n_links == 1
        assert t.link(0, 1).latency == 5.0

    def test_degree_and_neighbors(self):
        t = triangle()
        assert t.degree(0) == 2
        assert sorted(t.neighbors(0)) == [1, 2]

    def test_links_iterates_each_once(self):
        t = triangle()
        links = list(t.links())
        assert len(links) == 3
        assert len({(l.u, l.v) for l in links}) == 3


class TestConnectivity:
    def test_connected_triangle(self):
        assert triangle().is_connected()

    def test_disconnected(self):
        t = Topology(4)
        t.add_link(0, 1, 1.0, 1.0)
        t.add_link(2, 3, 1.0, 1.0)
        assert not t.is_connected()

    def test_single_node_connected(self):
        assert Topology(1).is_connected()

    def test_to_networkx_roundtrip(self):
        t = triangle()
        g = t.to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3
        assert g[0][1]["latency"] == 1.0
        assert g[1][2]["bandwidth"] == 20.0


class TestInEdges:
    def test_each_link_both_ways_grouped_by_destination(self):
        t = Topology(4)  # node 3 has no links
        t.add_link(0, 1, 1.0, 2.0)
        t.add_link(1, 2, 3.0, 4.0)
        e = t.in_edges()
        assert e.dst.tolist() == [0, 1, 1, 2]
        assert sorted(zip(e.dst.tolist(), e.src.tolist(), e.latency.tolist(),
                          e.inv_bandwidth.tolist())) == [
            (0, 1, 1.0, 0.5), (1, 0, 1.0, 0.5), (1, 2, 3.0, 0.25), (2, 1, 3.0, 0.25),
        ]

    def test_cached_until_add_link(self):
        t = triangle()
        e = t.in_edges()
        assert t.in_edges() is e
        t.add_link(0, 1, 5.0, 10.0)
        assert t.in_edges() is not e
        assert t.in_edges().latency.tolist().count(5.0) == 2
