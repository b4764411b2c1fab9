"""Tests for broker overlay topologies and client assignment."""

import pytest

from repro.net import BrokerTopology, assign_clients
from repro.sim import RngRegistry


def hops(topo):
    """Eccentricity of every node by BFS over ``neighbors`` (None if
    some node is unreachable from it)."""
    out = {}
    for src in topo.nodes:
        depth, frontier = {src: 0}, [src]
        while frontier:
            nxt = []
            for node in frontier:
                for peer in topo.neighbors(node):
                    if peer not in depth:
                        depth[peer] = depth[node] + 1
                        nxt.append(peer)
            frontier = nxt
        out[src] = (max(depth.values()) if len(depth) == len(topo.nodes)
                    else None)
    return out


def diameter(topo):
    return max(hops(topo).values())


#: ``neighbors(dpI)`` for I = 0..n-1, recorded from the networkx-backed
#: implementation this adjacency table replaced.  The order is each
#: decision point's sync send order, so it must never drift.
NEIGHBOURS = {
    ("mesh", 1): [[]],
    ("mesh", 2): [[1], [0]],
    ("mesh", 3): [[1, 2], [0, 2], [0, 1]],
    ("mesh", 4): [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
    ("mesh", 5): [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [0, 1, 2, 4],
                  [0, 1, 2, 3]],
    ("mesh", 6): [[1, 2, 3, 4, 5], [0, 2, 3, 4, 5], [0, 1, 3, 4, 5],
                  [0, 1, 2, 4, 5], [0, 1, 2, 3, 5], [0, 1, 2, 3, 4]],
    ("ring", 1): [[]],
    ("ring", 2): [[1], [0]],
    ("ring", 3): [[1, 2], [0, 2], [1, 0]],
    ("ring", 4): [[1, 3], [0, 2], [1, 3], [2, 0]],
    ("ring", 5): [[1, 4], [0, 2], [1, 3], [2, 4], [3, 0]],
    ("ring", 6): [[1, 5], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]],
    ("star", 1): [[]],
    ("star", 2): [[1], [0]],
    ("star", 3): [[1, 2], [0], [0]],
    ("star", 4): [[1, 2, 3], [0], [0], [0]],
    ("star", 5): [[1, 2, 3, 4], [0], [0], [0], [0]],
    ("star", 6): [[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]],
    ("line", 1): [[]],
    ("line", 2): [[1], [0]],
    ("line", 3): [[1], [0, 2], [1]],
    ("line", 4): [[1], [0, 2], [1, 3], [2]],
    ("line", 5): [[1], [0, 2], [1, 3], [2, 4], [3]],
    ("line", 6): [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]],
}


class TestBrokerTopology:
    def test_mesh_is_complete(self):
        topo = BrokerTopology(["a", "b", "c", "d"], kind="mesh")
        assert all(len(topo.neighbors(n)) == 3 for n in topo.nodes)
        assert diameter(topo) == 1

    def test_ring(self):
        topo = BrokerTopology(list(range(5)), kind="ring")
        assert all(len(topo.neighbors(n)) == 2 for n in topo.nodes)
        assert diameter(topo) == 2

    def test_star_hub_and_leaves(self):
        topo = BrokerTopology(["hub", "l1", "l2", "l3"], kind="star")
        assert len(topo.neighbors("hub")) == 3
        assert len(topo.neighbors("l1")) == 1
        assert diameter(topo) == 2

    def test_line(self):
        topo = BrokerTopology([1, 2, 3, 4], kind="line")
        assert diameter(topo) == 3

    def test_single_node(self):
        topo = BrokerTopology(["only"], kind="mesh")
        assert topo.neighbors("only") == []
        assert hops(topo) == {"only": 0}

    def test_two_node_ring_no_self_loops(self):
        topo = BrokerTopology(["a", "b"], kind="ring")
        assert topo.neighbors("a") == ["b"]

    def test_all_kinds_connected(self):
        for kind in ("mesh", "ring", "star", "line"):
            assert None not in hops(BrokerTopology(list(range(6)), kind=kind)
                                    ).values()

    @pytest.mark.parametrize("kind,n", sorted(NEIGHBOURS))
    def test_neighbour_order_pinned(self, kind, n):
        nodes = [f"dp{i}" for i in range(n)]
        topo = BrokerTopology(nodes, kind=kind)
        assert [topo.neighbors(node) for node in nodes] == \
            [[f"dp{j}" for j in row] for row in NEIGHBOURS[(kind, n)]]

    def test_neighbour_lists_are_fresh_copies(self):
        topo = BrokerTopology(["a", "b", "c"], kind="mesh")
        topo.neighbors("a").append("zzz")
        assert topo.neighbors("a") == ["b", "c"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BrokerTopology([1, 2], kind="torus")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            BrokerTopology([1, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BrokerTopology([])

    def test_len(self):
        assert len(BrokerTopology([1, 2, 3])) == 3


class TestAssignClients:
    def test_every_client_assigned(self):
        rng = RngRegistry(0).stream("assign")
        mapping = assign_clients([f"c{i}" for i in range(50)], ["d1", "d2", "d3"], rng)
        assert len(mapping) == 50
        assert set(mapping.values()) <= {"d1", "d2", "d3"}

    def test_single_dp_gets_everyone(self):
        rng = RngRegistry(0).stream("assign")
        mapping = assign_clients(["a", "b"], ["dp"], rng)
        assert set(mapping.values()) == {"dp"}

    def test_roughly_balanced(self):
        rng = RngRegistry(1).stream("assign")
        mapping = assign_clients(list(range(3000)), list(range(3)), rng)
        counts = [sum(1 for v in mapping.values() if v == d) for d in range(3)]
        assert all(800 < c < 1200 for c in counts)

    def test_deterministic_given_stream(self):
        m1 = assign_clients(list(range(20)), ["x", "y"], RngRegistry(5).stream("assign"))
        m2 = assign_clients(list(range(20)), ["x", "y"], RngRegistry(5).stream("assign"))
        assert m1 == m2

    def test_no_dps_rejected(self):
        with pytest.raises(ValueError):
            assign_clients(["c"], [], RngRegistry(0).stream("assign"))
