"""Property-based tests (hypothesis) for the indexed shortest-path kernels.

The routines of :mod:`repro.graphs.paths` run on a
:class:`~repro.graphs.csr.CSRGraph` snapshot.  The reference oracle below is
the dict-walking form they had on ``nx.Graph``: heap entries carry
``repr(v)`` as the tie-break and every relaxation reads the networkx
adjacency.  On random graphs the kernels must return the same ``dist`` and
``parent`` dicts, with the same key order, and the same Bellman-Ford
iteration count.

The graphs mix int, str and tuple labels (so ``repr`` order differs from
insertion order), use small integer weights or none at all (so distance
ties are common), and may be disconnected.  Bellman-Ford parent ties follow
the iteration order of a set of node objects, which for str labels depends
on the hash seed; CI runs this file under two values of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import heapq
import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.graphs import (
    CSRGraph,
    bounded_bellman_ford,
    dijkstra,
    distances_to_set,
    grid_graph,
    hop_counts,
    nearest_in_set,
)

INF = math.inf


# ---------------------------------------------------------------------------
# Reference oracle: the kernels' dict-walking form
# ---------------------------------------------------------------------------

def ref_dijkstra(graph, sources, *, predicate=None):
    dist = {}
    parent = {}
    heap = []
    for s in sources:
        dist[s] = 0.0
        parent[s] = None
        heapq.heappush(heap, (0.0, repr(s), s))
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, INF):
            continue
        if predicate is not None and not predicate(u, d):
            continue
        for v in graph.neighbors(u):
            nd = d + float(graph[u][v].get("weight", 1.0))
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, repr(v), v))
    return dist, parent


def ref_distances_to_set(graph, targets):
    targets = list(targets)
    if not targets:
        return {v: INF for v in graph.nodes}
    dist, _ = ref_dijkstra(graph, targets)
    return {v: dist.get(v, INF) for v in graph.nodes}


def ref_nearest_in_set(graph, targets):
    targets = list(targets)
    dist = {}
    owner = {}
    heap = []
    for s in targets:
        dist[s] = 0.0
        owner[s] = s
        heapq.heappush(heap, (0.0, repr(s), s, s))
    while heap:
        d, _, u, src = heapq.heappop(heap)
        if d > dist.get(u, INF) or owner.get(u) != src:
            continue
        for v in graph.neighbors(u):
            nd = d + float(graph[u][v].get("weight", 1.0))
            if nd < dist.get(v, INF):
                dist[v] = nd
                owner[v] = src
                heapq.heappush(heap, (nd, repr(v), v, src))
    full_dist = {v: dist.get(v, INF) for v in graph.nodes}
    full_owner = {v: owner.get(v) for v in graph.nodes}
    return full_dist, full_owner


def ref_bounded_bellman_ford(graph, sources, hops, *, forward_if=None):
    if hops < 0:
        raise InputError("hops must be non-negative")
    dist = dict(sources)
    parent = {s: None for s in sources}
    frontier = set(sources)
    iterations = 0
    for _ in range(hops):
        if not frontier:
            break
        iterations += 1
        updates = {}
        for u in frontier:
            du = dist[u]
            if forward_if is not None and not forward_if(u, du):
                continue
            for v in graph.neighbors(u):
                nd = du + float(graph[u][v].get("weight", 1.0))
                if nd < dist.get(v, INF) and nd < updates.get(v, (INF, None))[0]:
                    updates[v] = (nd, u)
        frontier = set()
        for v, (nd, via) in updates.items():
            if nd < dist.get(v, INF):
                dist[v] = nd
                parent[v] = via
                frontier.add(v)
    return dist, parent, iterations


def ref_hop_counts(graph, source):
    dist = {source: (0.0, 0)}
    heap = [(0.0, 0, repr(source), source)]
    while heap:
        d, h, _, u = heapq.heappop(heap)
        if (d, h) > dist.get(u, (INF, 0)):
            continue
        for v in graph.neighbors(u):
            cand = (d + float(graph[u][v].get("weight", 1.0)), h + 1)
            if cand < dist.get(v, (INF, 0)):
                dist[v] = cand
                heapq.heappush(heap, (cand[0], cand[1], repr(v), v))
    return {v: dh[1] for v, dh in dist.items()}


# ---------------------------------------------------------------------------
# Graphs and comparison
# ---------------------------------------------------------------------------

def label(i, kind):
    return (i, f"v{i}", (i % 3, f"t{i}"))[kind]


@st.composite
def graphs(draw, max_size=24):
    """A random weighted graph with mixed labels; possibly disconnected."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    kinds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    names = [label(i, kinds[i]) for i in range(n)]
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(names)))
    connected = draw(st.booleans())
    for i in range(1, n):
        if connected or draw(st.booleans()):
            graph.add_edge(names[i], names[draw(st.integers(0, i - 1))])
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u = names[draw(st.integers(0, n - 1))]
        v = names[draw(st.integers(0, n - 1))]
        if u != v:
            graph.add_edge(u, v)
    weights = draw(st.sampled_from(["none", "unit", "small", "float"]))
    for u, v in graph.edges:
        if weights == "unit":
            graph[u][v]["weight"] = 1.0
        elif weights == "small":
            graph[u][v]["weight"] = draw(st.integers(1, 3))
        elif weights == "float":
            graph[u][v]["weight"] = draw(st.floats(
                min_value=0.5, max_value=50.0,
                allow_nan=False, allow_infinity=False))
    return graph


def same(got, want):
    """Equal values and, for dicts, equal key order."""
    assert got == want
    if isinstance(want, dict):
        assert list(got) == list(want)
    elif isinstance(want, tuple):
        for g, w in zip(got, want):
            same(g, w)


def gate(seed):
    """A deterministic vertex/distance gate that admits about 2/3 of the
    vertices and stops at a radius."""
    radius = 1.0 + seed % 7

    def admit(v, d):
        return d <= radius and (seed + len(repr(v))) % 3 != 0
    return admit


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_dijkstra_matches_reference(graph, data):
    nodes = list(graph.nodes)
    sources = data.draw(st.lists(st.sampled_from(nodes), min_size=1,
                                 max_size=3))
    snapshot = CSRGraph(graph)
    for g in (graph, snapshot):
        same(dijkstra(g, sources), ref_dijkstra(graph, sources))
    admit = gate(data.draw(st.integers(0, 50)))
    same(dijkstra(snapshot, sources, predicate=admit),
         ref_dijkstra(graph, sources, predicate=admit))


@given(graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_nearest_and_distances_to_set_match_reference(graph, data):
    nodes = list(graph.nodes)
    targets = data.draw(st.lists(st.sampled_from(nodes), max_size=4))
    snapshot = CSRGraph(graph)
    for g in (graph, snapshot):
        same(nearest_in_set(g, targets), ref_nearest_in_set(graph, targets))
        same(distances_to_set(g, targets),
             ref_distances_to_set(graph, targets))


@given(graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_bounded_bellman_ford_matches_reference(graph, data):
    nodes = list(graph.nodes)
    chosen = data.draw(st.lists(st.sampled_from(nodes), min_size=1,
                                max_size=3, unique=True))
    # Seeded estimates: 0 for a true source (an int 0 must stay an int),
    # nonzero for the intermediate estimates the distributed code seeds.
    estimates = st.sampled_from([0, 0.0, 0.5, 1.0, 2.0, 3.5])
    sources = {s: data.draw(estimates) for s in chosen}
    hops = data.draw(st.integers(min_value=0, max_value=len(nodes) + 1))
    snapshot = CSRGraph(graph)
    for g in (graph, snapshot):
        same(bounded_bellman_ford(g, sources, hops),
             ref_bounded_bellman_ford(graph, sources, hops))
    admit = gate(data.draw(st.integers(0, 50)))
    same(bounded_bellman_ford(snapshot, sources, hops, forward_if=admit),
         ref_bounded_bellman_ford(graph, sources, hops, forward_if=admit))


@given(graphs(), st.data())
@settings(max_examples=120, deadline=None)
def test_hop_counts_match_reference(graph, data):
    source = data.draw(st.sampled_from(list(graph.nodes)))
    snapshot = CSRGraph(graph)
    for g in (graph, snapshot):
        same(hop_counts(g, source), ref_hop_counts(graph, source))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unit_weight_grid_matches_reference(seed):
    """Every distance on a unit grid is tied with many others."""
    graph = grid_graph(6, 7, weight_range=(1.0, 1.0), seed=seed)
    snapshot = CSRGraph(graph)
    nodes = sorted(graph.nodes)
    for s in nodes[seed::9]:
        same(dijkstra(snapshot, [s]), ref_dijkstra(graph, [s]))
        same(hop_counts(snapshot, s), ref_hop_counts(graph, s))
        for hops in (0, 1, 4, 20):
            same(bounded_bellman_ford(snapshot, {s: 0.0, nodes[-1]: 2.0}, hops),
                 ref_bounded_bellman_ford(graph, {s: 0.0, nodes[-1]: 2.0}, hops))
    same(nearest_in_set(snapshot, nodes[::11]),
         ref_nearest_in_set(graph, nodes[::11]))


def test_negative_hops_rejected():
    graph = grid_graph(2, 2)
    for g in (graph, CSRGraph(graph)):
        with pytest.raises(InputError):
            bounded_bellman_ford(g, {0: 0.0}, -1)


def test_unknown_source_rejected():
    graph = grid_graph(2, 2)
    with pytest.raises(InputError):
        dijkstra(graph, ["absent"])
