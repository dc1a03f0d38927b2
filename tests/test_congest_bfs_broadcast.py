"""Unit tests for BFS-tree construction and Lemma-1 broadcast primitives.

The ``net`` fixture builds on the engine-parametrized ``engine`` fixture,
so every test here runs against both reference and fastpath.
"""

import networkx as nx
import pytest

from repro.congest import (
    broadcast_all,
    build_bfs_tree,
    convergecast_aggregate,
)
from repro.graphs import random_connected_graph


@pytest.fixture()
def net(engine):
    return engine(random_connected_graph(80, seed=5))


class TestBfsTree:
    def test_covers_all_vertices(self, net):
        bfs = build_bfs_tree(net)
        assert set(bfs.parent) == set(net.nodes())

    def test_root_has_no_parent(self, net):
        bfs = build_bfs_tree(net)
        assert bfs.parent[bfs.root] is None

    def test_depths_match_networkx(self, net):
        bfs = build_bfs_tree(net)
        expected = nx.single_source_shortest_path_length(net.graph, bfs.root)
        assert bfs.depth == expected

    def test_parents_are_one_level_up(self, net):
        bfs = build_bfs_tree(net)
        for v, p in bfs.parent.items():
            if p is not None:
                assert bfs.depth[v] == bfs.depth[p] + 1

    def test_rounds_equal_height(self, net):
        bfs = build_bfs_tree(net)
        assert net.metrics.rounds == bfs.height + 1

    def test_explicit_root(self, net):
        root = sorted(net.nodes(), key=repr)[3]
        bfs = build_bfs_tree(net, root)
        assert bfs.root == root

    def test_deterministic(self, engine):
        g = random_connected_graph(50, seed=9)
        bfs1 = build_bfs_tree(engine(g))
        bfs2 = build_bfs_tree(engine(g))
        assert bfs1.parent == bfs2.parent

    def test_path_to_root(self, net):
        bfs = build_bfs_tree(net)
        leaf = max(bfs.depth, key=lambda v: (bfs.depth[v], repr(v)))
        path = bfs.path_to_root(leaf)
        assert path[0] == leaf and path[-1] == bfs.root
        assert len(path) == bfs.depth[leaf] + 1

    def test_children_consistent_with_parent(self, net):
        bfs = build_bfs_tree(net)
        for v, kids in bfs.children.items():
            for c in kids:
                assert bfs.parent[c] == v

    def test_bfs_charges_o1_memory(self, net):
        build_bfs_tree(net)
        assert all(net.mem(v).high_water <= 2 for v in net.nodes())


class TestBroadcastAll:
    def test_returns_all_payloads(self, net):
        bfs = build_bfs_tree(net)
        nodes = sorted(net.nodes(), key=repr)
        items = [(nodes[i], ("msg", i)) for i in range(7)]
        out = broadcast_all(net, bfs, items)
        assert sorted(p[1] for p in out) == list(range(7))

    def test_rounds_linear_in_messages(self, net):
        bfs = build_bfs_tree(net)
        nodes = sorted(net.nodes(), key=repr)
        before = net.metrics.total_rounds
        broadcast_all(net, bfs, [(nodes[0], (1,))])
        small = net.metrics.total_rounds - before
        before = net.metrics.total_rounds
        broadcast_all(net, bfs, [(nodes[i % 10], (i,)) for i in range(50)])
        large = net.metrics.total_rounds - before
        # Lemma 1: 2(M + height); 50 messages vs 1 message.
        assert large - small == pytest.approx(2 * 49, abs=2)

    def test_deterministic_order(self, net):
        bfs = build_bfs_tree(net)
        nodes = sorted(net.nodes(), key=repr)
        items = [(nodes[3], "b"), (nodes[1], "a"), (nodes[5], "c")]
        out = broadcast_all(net, bfs, items)
        assert out == ["a", "b", "c"]

    def test_wide_payloads_cost_more_rounds(self, net):
        bfs = build_bfs_tree(net)
        nodes = sorted(net.nodes(), key=repr)
        before = net.metrics.total_rounds
        broadcast_all(net, bfs, [(nodes[0], tuple(range(40)))])
        wide = net.metrics.total_rounds - before
        before = net.metrics.total_rounds
        broadcast_all(net, bfs, [(nodes[0], (1,))])
        narrow = net.metrics.total_rounds - before
        assert wide > narrow

    def test_relay_buffers_freed_after(self, net):
        bfs = build_bfs_tree(net)
        nodes = sorted(net.nodes(), key=repr)
        broadcast_all(net, bfs, [(nodes[0], (1,))])
        for v in net.nodes():
            assert dict(net.mem(v).items()).get("relay/broadcast") is None


class TestConvergecast:
    def test_aggregates_sum(self, net):
        bfs = build_bfs_tree(net)
        total = convergecast_aggregate(net, bfs, lambda v: 1, lambda a, b: a + b)
        assert total == net.n

    def test_aggregates_min(self, net):
        bfs = build_bfs_tree(net)
        result = convergecast_aggregate(net, bfs, lambda v: v, min)
        assert result == min(net.nodes())

    def test_rounds_bounded_by_height(self, net):
        bfs = build_bfs_tree(net)
        before = net.metrics.total_rounds
        convergecast_aggregate(net, bfs, lambda v: 1, lambda a, b: a + b)
        assert net.metrics.total_rounds - before == bfs.height
