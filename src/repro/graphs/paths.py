"""Centralized shortest-path reference algorithms.

These are the ground-truth oracles against which the distributed algorithms
are validated, plus the *hop-bounded* Bellman-Ford that both the paper's
definitions (t-bounded distances ``d^{(t)}``, Section 2) and the distributed
explorations rely on.

Every routine runs on a :class:`~repro.graphs.csr.CSRGraph`, the
integer-indexed snapshot of the graph.  Each accepts an ``nx.Graph`` too
and then takes the snapshot on entry, which costs O(m): a caller that runs
the routines in a loop (one Dijkstra per source, one limited exploration
per cluster root) takes the snapshot once and passes it in.  Results are
keyed by the node objects and do not depend on which form was passed.

Notation from the paper:

* ``d_G(u, v)``        -- weighted shortest-path distance;
* ``d^{(t)}_G(u, v)``  -- the length of the shortest path with at most ``t``
  edges ("hops"); note this is *not* a metric;
* ``h(u, v)``          -- the number of edges of the (minimum-hop) shortest
  path realizing ``d_G(u, v)`` (Appendix B uses vertices-on-path; we use
  edge count and adjust constants accordingly).

Ties resolve by ``repr`` order of the vertices (the snapshot numbers them
in that order), so every output is deterministic.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple

import networkx as nx

from ..errors import InputError
from .csr import CSRGraph, GraphLike

NodeId = Hashable
INF = math.inf


def dijkstra(
    graph: GraphLike,
    sources: Iterable[NodeId],
    *,
    predicate: Optional[Callable[[NodeId, float], bool]] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """Multi-source Dijkstra with an optional expansion predicate.

    ``predicate(v, dist)`` decides whether ``v`` *continues the exploration*
    (the "limited Dijkstra exploration" used to grow clusters in Appendix B:
    vertices that fail the predicate still receive a distance but do not
    relax their neighbours).  Returns ``(dist, parent)``; unreached vertices
    are absent.
    """
    csr = CSRGraph.of(graph)
    nodes, rows = csr.nodes, csr.rows
    dist: Dict[int, float] = {}
    parent: Dict[int, Optional[NodeId]] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for s in sources:
        i = csr.id_of(s)
        dist[i] = 0.0
        parent[i] = None
        push(heap, (0.0, i))
    get = dist.get
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        node = nodes[u]
        if predicate is not None and not predicate(node, d):
            continue
        for v, w in rows[u]:
            nd = d + w
            if nd < get(v, INF):
                dist[v] = nd
                parent[v] = node
                push(heap, (nd, v))
    return ({nodes[i]: d for i, d in dist.items()},
            {nodes[i]: p for i, p in parent.items()})


def distances_to_set(graph: GraphLike, targets: Iterable[NodeId]) -> Dict[NodeId, float]:
    """``d_G(v, S)`` for every vertex ``v`` (used for pivot distances)."""
    return nearest_in_set(graph, targets)[0]


def nearest_in_set(
    graph: GraphLike, targets: Iterable[NodeId]
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]]]:
    """For every vertex: distance to the nearest target and *which* target.

    Implemented as multi-source Dijkstra that propagates the source identity
    along shortest-path trees (the classical "Voronoi" construction).
    """
    csr = CSRGraph.of(graph)
    nodes, rows = csr.nodes, csr.rows
    dist: Dict[int, float] = {}
    owner: Dict[int, int] = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for s in targets:
        i = csr.id_of(s)
        dist[i] = 0.0
        owner[i] = i
        push(heap, (0.0, i, i))
    get = dist.get
    while heap:
        d, u, src = pop(heap)
        if d > dist[u] or owner[u] != src:
            continue
        for v, w in rows[u]:
            nd = d + w
            if nd < get(v, INF):
                dist[v] = nd
                owner[v] = src
                push(heap, (nd, v, src))
    full_dist = {nodes[i]: get(i, INF) for i in csr.order}
    full_owner = {nodes[i]: nodes[owner[i]] if i in owner else None
                  for i in csr.order}
    return full_dist, full_owner


def bounded_bellman_ford(
    graph: GraphLike,
    sources: Mapping[NodeId, float],
    hops: int,
    *,
    forward_if: Optional[Callable[[NodeId, float], bool]] = None,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Optional[NodeId]], int]:
    """Hop-bounded multi-source Bellman-Ford: ``d^{(hops)}`` from ``sources``.

    ``sources`` maps each source to its initial estimate (0 for true sources;
    the distributed algorithms seed intermediate estimates).  ``forward_if``
    is the *limited exploration* rule of Appendix B: a vertex relaxes its
    neighbours in an iteration only when ``forward_if(v, estimate)`` holds
    (applied uniformly, sources included; in the paper's uses the exploration
    root trivially satisfies the rule).

    Returns ``(dist, parent, iterations_used)``; iterations stop early once a
    full pass changes nothing (then ``d^{(t)} = d^{(hops)}`` for all larger
    ``t``), which the caller may *not* use to reduce charged rounds -- the
    exploration still occupies ``hops`` rounds in the distributed execution.

    Parent ties resolve in the iteration order of the per-pass frontier, a
    set of node objects: for string labels that order depends on the hash
    seed, exactly as the distributed relaxation order would.
    """
    if hops < 0:
        raise InputError("hops must be non-negative")
    csr = CSRGraph.of(graph)
    nodes, index, rows = csr.nodes, csr.index, csr.rows
    dist: Dict[int, float] = {csr.id_of(s): d for s, d in sources.items()}
    parent: Dict[int, Optional[NodeId]] = dict.fromkeys(dist)
    frontier = set(sources)
    iterations = 0
    get = dist.get
    for _ in range(hops):
        if not frontier:
            break
        iterations += 1
        best: Dict[int, float] = {}
        via: Dict[int, NodeId] = {}
        best_get = best.get
        for u in frontier:
            ui = index[u]
            du = dist[ui]
            if forward_if is not None and not forward_if(u, du):
                continue
            for v, w in rows[ui]:
                nd = du + w
                if nd < get(v, INF) and nd < best_get(v, INF):
                    best[v] = nd
                    via[v] = u
        frontier = set()
        for v, nd in best.items():
            dist[v] = nd
            parent[v] = via[v]
            frontier.add(nodes[v])
    return ({nodes[i]: d for i, d in dist.items()},
            {nodes[i]: p for i, p in parent.items()},
            iterations)


def hop_counts(graph: GraphLike, source: NodeId) -> Dict[NodeId, int]:
    """Minimum number of hops of a *weighted shortest* path from ``source``.

    Computed by Dijkstra on the lexicographic key (distance, hops), so ties
    in distance resolve to the fewest-hops path -- this is the quantity
    ``h(u, v)`` bounded by Claim 8.
    """
    csr = CSRGraph.of(graph)
    rows = csr.rows
    s = csr.id_of(source)
    dist: Dict[int, Tuple[float, int]] = {s: (0.0, 0)}
    heap = [(0.0, 0, s)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, h, u = pop(heap)
        if (d, h) > dist[u]:
            continue
        for v, w in rows[u]:
            cand = (d + w, h + 1)
            if cand < dist.get(v, (INF, 0)):
                dist[v] = cand
                push(heap, (cand[0], cand[1], v))
    return {csr.nodes[i]: dh[1] for i, dh in dist.items()}


def shortest_path_diameter(graph: nx.Graph) -> int:
    """``S``: the maximum, over all pairs, of the hops of a shortest path.

    Exact and O(n * m log n); only call on small graphs (tests, reporting).
    """
    csr = CSRGraph(graph)
    worst = 0
    for source in graph.nodes:
        hops = hop_counts(csr, source)
        worst = max(worst, max(hops.values()))
    return worst


def eccentricity_hops(graph: nx.Graph, source: NodeId) -> int:
    """Unweighted eccentricity of ``source`` (for hop-diameter estimates)."""
    lengths = nx.single_source_shortest_path_length(graph, source)
    return max(lengths.values())


def hop_diameter(graph: nx.Graph) -> int:
    """Exact hop-diameter ``D`` of the underlying unweighted graph."""
    return nx.diameter(graph)
