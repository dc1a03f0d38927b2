"""An immutable, integer-indexed snapshot of a graph for the path kernels.

Every routine of :mod:`repro.graphs.paths` runs on a :class:`CSRGraph`:
vertices are the integers ``0 .. n-1`` and each vertex's row lists its
neighbours with their float weights, so the inner relaxation loop touches
no networkx dict and computes no ``repr``.

Vertex ``i`` is the ``i``-th vertex in ``repr`` order.  A heap entry
``(d, i)`` therefore pops in the same order as ``(d, repr(v), v)``, the
tie-break the kernels used on node objects, and every output stays
identical.

Lifetime rule: a snapshot is never cached on the ``nx.Graph`` it was taken
from.  Graphs are mutable, and a stale snapshot would return a silently
wrong distance.  A caller that runs the kernels in a loop takes one
snapshot for the duration of that call, or keeps it inside an object that
already treats its graph as fixed (``VirtualGraphOracle``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple, Union

import networkx as nx

from ..errors import InputError

NodeId = Hashable


class CSRGraph:
    """Adjacency rows of a graph over integer vertex ids.

    * ``nodes[i]`` -- the node object of vertex ``i`` (``repr`` order);
    * ``index[v]`` -- the vertex id of node ``v``;
    * ``rows[i]``  -- ``(j, weight)`` per neighbour, in ``graph.neighbors``
      order, with ``weight = float(data.get("weight", 1.0))``;
    * ``order``    -- vertex ids in ``graph.nodes`` order, the order of the
      outputs that cover every vertex.
    """

    __slots__ = ("nodes", "index", "rows", "order")

    def __init__(self, graph: nx.Graph) -> None:
        nodes = sorted(graph.nodes, key=repr)
        index = {v: i for i, v in enumerate(nodes)}
        adj = graph.adj
        self.nodes: Tuple[NodeId, ...] = tuple(nodes)
        self.index: Dict[NodeId, int] = index
        self.rows: List[List[Tuple[int, float]]] = [
            [(index[u], float(data.get("weight", 1.0)))
             for u, data in adj[v].items()]
            for v in nodes
        ]
        self.order: List[int] = [index[v] for v in graph.nodes]

    @classmethod
    def of(cls, graph: Union[nx.Graph, "CSRGraph"]) -> "CSRGraph":
        """``graph`` itself when it is a snapshot, else a new snapshot."""
        return graph if isinstance(graph, CSRGraph) else cls(graph)

    def id_of(self, v: NodeId) -> int:
        """The vertex id of ``v``; :class:`InputError` when absent."""
        try:
            return self.index[v]
        except KeyError:
            raise InputError(f"{v!r} is not a vertex of the graph") from None


#: What the path routines accept: a graph, or a snapshot of one.
GraphLike = Union[nx.Graph, CSRGraph]
