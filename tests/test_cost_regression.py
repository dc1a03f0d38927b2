"""Cost-regression guards.

These tests pin the *measured* construction costs of the flagship
workloads with generous headroom.  They are not asymptotic claims (the
benchmarks assert those); they catch accidental regressions in the round
or memory accounting -- e.g. a stage that forgets to free scratch memory,
or a charge formula that silently doubles.
"""

import networkx as nx
import pytest

from repro.baselines import build_en16_tree_scheme
from repro.congest import MemoryMeter, Network, build_bfs_tree
from repro.core import build_distributed_scheme
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.treerouting import build_distributed_tree_scheme


@pytest.fixture(scope="module")
def workload():
    graph = random_connected_graph(400, seed=231)
    tree = spanning_tree_of(graph, style="dfs", seed=231)
    return graph, tree


class TestTreeRoutingBudgets:
    @pytest.fixture(scope="class")
    def build(self, workload):
        graph, tree = workload
        net = Network(graph)
        return net, build_distributed_tree_scheme(net, tree, seed=23)

    def test_round_budget(self, build):
        _, b = build
        # measured ~1.4k at n=400; triple headroom.
        assert b.rounds <= 4500

    def test_memory_budget(self, build):
        _, b = build
        # measured 25-ish; headroom to 45.
        assert b.max_memory_words <= 45

    def test_message_budget(self, build):
        _, b = build
        # O(n log n) scale traffic; measured ~160k charged message events.
        assert b.messages <= 600_000

    def test_no_scratch_left_behind(self, build):
        net, _ = build
        # Final footprint per vertex: artifacts + partition info + sizes,
        # but none of the freed per-stage scratch keys.
        for v in net.nodes():
            for key, _ in net.mem(v).items():
                assert not key.endswith("/s-extra")
                assert not key.endswith("/enter-local")
                assert not key.endswith("/light-local")
                assert "relay/" not in key

    def test_baseline_round_budget(self, workload):
        graph, tree = workload
        net = Network(graph)
        base = build_en16_tree_scheme(net, tree, seed=23)
        assert base.rounds <= 2000


class TestGeneralSchemeBudgets:
    @pytest.fixture(scope="class")
    def report(self):
        graph = random_connected_graph(150, seed=232)
        return build_distributed_scheme(graph, 3, seed=23)

    def test_round_budget(self, report):
        # measured ~30k sequential at n=150; generous triple headroom.
        assert report.rounds_sequential <= 120_000

    def test_memory_budget(self, report):
        assert report.max_memory_words <= 2000

    def test_parallel_not_exceeding_sequential(self, report):
        assert report.rounds_parallel_estimate <= report.rounds_sequential

    def test_tables_budget(self, report):
        assert report.scheme.max_table_words() <= 400

    def test_labels_budget(self, report):
        assert report.scheme.max_label_words() <= 40


class TestSparseTeardown:
    """A cluster tree's build touches the meters of its own vertices only.

    Stage teardowns free exact keys through the network's holder index and
    Lemma 1 relay buffers are keyless transients, so building the scheme of
    a small subtree inside a large graph never stores or frees at a vertex
    outside the subtree.  With O(n) teardowns the general-graph build costs
    O(n) per cluster tree, O(n^2) in all.
    """

    def test_subtree_build_stays_on_the_subtree(self, monkeypatch):
        graph = random_connected_graph(2000, seed=233)
        net = Network(graph)
        bfs = build_bfs_tree(net)
        root = min(graph.nodes, key=repr)
        parent = {root: None}
        for u, v in nx.bfs_edges(graph, root):
            if len(parent) == 30:
                break
            parent[v] = u
        owner = {id(net.mem(v)): v for v in net.nodes()}
        touched = []
        real_store, real_free = MemoryMeter.store, MemoryMeter.free

        def store(meter, key, words):
            touched.append(owner.get(id(meter)))
            real_store(meter, key, words)

        def free(meter, key):
            touched.append(owner.get(id(meter)))
            real_free(meter, key)

        monkeypatch.setattr(MemoryMeter, "store", store)
        monkeypatch.setattr(MemoryMeter, "free", free)
        build_distributed_tree_scheme(net, parent, seed=23, bfs=bfs,
                                      mem_prefix="ct")
        assert touched, "the tree build stored nothing"
        outside = {v for v in touched if v not in parent}
        assert not outside, f"{len(outside)} vertices outside the subtree"
