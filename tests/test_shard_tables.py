"""Tests for repro.shard.tables: seal/attach round-trips, byte parity,
and the shared-memory lifecycle."""

import glob

import pytest

from repro.errors import InputError
from repro.graphs import random_connected_graph, spanning_tree_of
from repro.serve import (
    ServeEngine,
    compile_scheme,
    from_buffers,
    seal_to_buffers,
)
from repro.serve.workloads import make_workload
from repro.shard.tables import (
    NO_ID,
    TABLE_FORMAT,
    AttachedTables,
    lower_compiled,
)
from repro.tz import build_centralized_scheme, build_tree_scheme


@pytest.fixture(scope="module")
def built():
    graph = random_connected_graph(60, seed=21)
    scheme = build_centralized_scheme(graph, 3, seed=21)
    return graph, compile_scheme(scheme, graph)


@pytest.fixture(scope="module")
def built_tree():
    graph = random_connected_graph(40, seed=5)
    tree = spanning_tree_of(graph, style="dfs", seed=7)
    scheme = build_tree_scheme(tree, root_distance=lambda v: 1.0)
    return graph, compile_scheme(scheme, graph)


def _routes(compiled, graph, pairs, mode="first"):
    engine = ServeEngine(compiled, mode=mode, cache_size=0)
    return [engine.route_recorded(u, v) for u, v in pairs]


def _same_routes(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.source, x.target) == (y.source, y.target)
        assert x.ok == y.ok
        assert x.path == y.path
        assert x.length == y.length
        assert x.error == y.error


class TestRoundTrip:
    def test_graph_scheme_inline(self, built):
        graph, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        pairs = make_workload("uniform", graph, compiled.nodes, 400, 9)
        _same_routes(_routes(compiled, graph, pairs),
                     _routes(attached.compiled, graph, pairs))
        attached.close()

    def test_graph_scheme_zipf_best_mode(self, built):
        graph, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        pairs = make_workload("zipf", graph, compiled.nodes, 400, 17)
        _same_routes(_routes(compiled, graph, pairs, mode="best"),
                     _routes(attached.compiled, graph, pairs, mode="best"))
        attached.close()

    def test_tree_scheme(self, built_tree):
        graph, compiled = built_tree
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        nodes = list(compiled.nodes)
        pairs = [(nodes[i % len(nodes)], nodes[(i * 7 + 3) % len(nodes)])
                 for i in range(200)]
        _same_routes(_routes(compiled, graph, pairs),
                     _routes(attached.compiled, graph, pairs))
        attached.close()

    def test_rebuilt_structural_equality(self, built):
        _, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        re = attached.compiled
        assert re.k == compiled.k and re.n == compiled.n
        assert re.nodes == compiled.nodes
        assert re.tree_ids == compiled.tree_ids
        assert re.table_ids == compiled.table_ids
        assert re.default_budget == compiled.default_budget
        assert re.bunch_levels == compiled.bunch_levels
        assert set(re.provenance) == set(compiled.provenance)
        # Decision tables: same candidates in the same order (the packed
        # trees inside are compared by identity fields — their hot arrays
        # are zero-copy memoryviews on the rebuilt side, list-equal in
        # content but not list-typed).
        assert set(re.decisions) == set(compiled.decisions)
        for target, cands in compiled.decisions.items():
            got = re.decisions[target]
            assert len(got) == len(cands)
            for (loc_a, (tree_a, lab_a), w_a, e_a, d_a), \
                    (loc_b, (tree_b, lab_b), w_b, e_b, d_b) in \
                    zip(cands, got):
                assert loc_a == loc_b
                assert tree_a.tree_id == tree_b.tree_id
                assert list(tree_a.enter) == list(tree_b.enter)
                assert lab_a.enter == lab_b.enter
                assert lab_a.light == lab_b.light
                assert list(w_a) == list(w_b)
                assert e_a == e_b and d_a == d_b
        attached.close()

    def test_missing_target_keyerror_parity(self, built):
        graph, compiled = built
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        engine = ServeEngine(attached.compiled, cache_size=0)
        with pytest.raises(KeyError):
            engine.route("no-such-node", next(iter(compiled.nodes)))
        attached.close()

    def test_manifest_format_and_offsets(self, built):
        _, compiled = built
        lowered = lower_compiled(compiled)
        m = lowered.manifest
        assert m["format"] == TABLE_FORMAT
        assert m["kind"] == "graph"
        assert m["nbytes"] == len(lowered.payload)
        for name, (offset, count, code) in m["arrays"].items():
            assert offset % 8 == 0
            assert code in ("q", "d")
            assert offset + 8 * count <= m["nbytes"]


class TestSharedMemory:
    def test_seal_attach_by_name(self, built):
        graph, compiled = built
        pairs = make_workload("uniform", graph, compiled.nodes, 200, 4)
        with seal_to_buffers(compiled) as sealed:
            # Attach from the manifest alone, like a worker does.
            attached = from_buffers(sealed.manifest)
            _same_routes(_routes(compiled, graph, pairs),
                         _routes(attached.compiled, graph, pairs))
            attached.close()

    def test_double_close_and_double_unlink_safe(self, built):
        _, compiled = built
        sealed = seal_to_buffers(compiled)
        attached = from_buffers(sealed.manifest)
        attached.close()
        attached.close()
        sealed.close()
        sealed.close()
        sealed.unlink()
        sealed.unlink()

    def test_no_leaked_segment(self, built):
        _, compiled = built
        sealed = seal_to_buffers(compiled)
        name = sealed.name.lstrip("/")
        assert glob.glob(f"/dev/shm/*{name}*")
        sealed.close()
        sealed.unlink()
        assert not glob.glob(f"/dev/shm/*{name}*")

    def test_attach_without_name_or_buffer_raises(self, built):
        _, compiled = built
        lowered = lower_compiled(compiled)
        manifest = dict(lowered.manifest)
        manifest.pop("shm", None)
        with pytest.raises(InputError):
            from_buffers(manifest)


class TestBackendParity:
    def test_weird_node_ids_roundtrip(self):
        """String/tuple/bool/float ids survive interning distinctly."""
        import networkx as nx

        graph = nx.Graph()
        nodes = ["a", ("b", 1), 1, 1.5, True, "1"]
        for i in range(len(nodes) - 1):
            graph.add_edge(nodes[i], nodes[i + 1], weight=1.0 + i)
        scheme = build_centralized_scheme(graph, 2, seed=3)
        compiled = compile_scheme(scheme, graph)
        lowered = lower_compiled(compiled)
        attached = AttachedTables(lowered.manifest, lowered.payload)
        assert attached.compiled.nodes == compiled.nodes
        pairs = [(u, v) for u in nodes for v in nodes]
        _same_routes(_routes(compiled, graph, pairs),
                     _routes(attached.compiled, graph, pairs))
        attached.close()

    def test_no_id_sentinel_is_negative(self):
        assert NO_ID < 0
