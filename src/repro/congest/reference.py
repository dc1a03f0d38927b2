"""The reference CONGEST round engine (executable specification).

:class:`ReferenceNetwork` preserves, line for line, the original
dictionary-based simulator that :class:`~repro.congest.network.Network`
shipped with before the fast-path engine landed: per-call
``sorted(..., key=repr)`` port numbering, ``defaultdict`` edge-load
accounting keyed by ``(src, dst)`` tuples, and per-message word counting
through :class:`~repro.congest.message.Message.__post_init__`.

It exists so the fast path can be *proved* equivalent rather than trusted:
the differential harness under ``tests/differential/`` replays randomized
protocols on both engines and asserts identical round counts, per-edge
message totals, :class:`~repro.congest.metrics.RunMetrics`, per-vertex
memory high-waters, and trace timelines — including byte-identical
:class:`~repro.errors.CongestModelViolation` messages under ``strict``.

The class mirrors the full public ``Network`` surface (duck-typed — every
algorithm in the library runs unmodified on either engine), including the
batched :meth:`send_many` / :meth:`deliver_batch` entry points, which here
degrade to the per-message slow path so batching changes *performance
only*, never semantics.

Do not optimise this module.  Its value is being obviously correct and
frozen; speed belongs in :mod:`repro.congest.network`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from ..errors import CongestModelViolation, InputError
from ..telemetry import events as _tele
from ..telemetry import flight as _flight
from ..wordsize import words_of
from .memory import MemoryMeter
from .message import Message

NodeId = Hashable


class ReferenceNetwork:
    """The seed CONGEST simulator, kept as the differential-test oracle."""

    def __init__(
        self,
        graph: nx.Graph,
        *,
        message_word_limit: int = 4,
        edge_capacity: int = 1,
        strict: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        import random

        from .metrics import RunMetrics

        if graph.number_of_nodes() == 0:
            raise InputError("network requires a non-empty graph")
        if graph.is_directed():
            raise InputError("network requires an undirected graph")
        if not nx.is_connected(graph):
            raise InputError("network requires a connected graph")
        self.graph = graph
        self.message_word_limit = message_word_limit
        self.edge_capacity = edge_capacity
        self.strict = strict
        self.rng = random.Random(seed)
        self.metrics = RunMetrics()
        self._meters: Dict[NodeId, MemoryMeter] = {v: MemoryMeter() for v in graph}
        self._outbox: List[Message] = []
        self._edge_load: Dict[Tuple[NodeId, NodeId], int] = defaultdict(int)
        self._round_observers: List[Any] = []
        if _flight._SESSIONS:
            _flight._SESSIONS[-1].attach(self)

    # -- topology ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.graph.number_of_nodes()

    def nodes(self) -> Iterator[NodeId]:
        return iter(self.graph.nodes)

    def neighbors(self, v: NodeId) -> Iterator[NodeId]:
        return iter(self.graph.neighbors(v))

    def degree(self, v: NodeId) -> int:
        return self.graph.degree(v)

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of the edge ``{u, v}`` (1.0 when the graph is unweighted)."""
        return float(self.graph[u][v].get("weight", 1.0))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return self.graph.has_edge(u, v)

    def ports(self, v: NodeId) -> List[NodeId]:
        """Deterministically ordered neighbor list ("port numbering").

        The reference engine re-sorts on every call — the exact cost the
        fast path's precomputed port tables eliminate.
        """
        return sorted(self.graph.neighbors(v), key=repr)

    # -- memory ----------------------------------------------------------------

    def mem(self, v: NodeId) -> MemoryMeter:
        """The memory meter of vertex ``v``."""
        return self._meters[v]

    def memory_high_water(self) -> Dict[NodeId, int]:
        """Per-vertex memory high-water marks, in words."""
        return {v: meter.high_water for v, meter in self._meters.items()}

    def max_memory(self) -> int:
        """Worst per-vertex memory high-water over the run, in words."""
        return max(meter.high_water for meter in self._meters.values())

    def free_all(self, prefix: str) -> None:
        """Free the given key prefix at every vertex (stage teardown)."""
        for meter in self._meters.values():
            meter.free_prefix(prefix)

    def free_key(self, key: str) -> None:
        """Free one exact key at every vertex (O(n), no key scans)."""
        for meter in self._meters.values():
            meter.free(key)

    def store_all(self, key: str, words: int) -> None:
        """Store ``words`` under ``key`` at every vertex (stage setup)."""
        for meter in self._meters.values():
            meter.store(key, words)

    # -- observation -----------------------------------------------------------

    def add_round_observer(self, observer: Any) -> Any:
        """Register an observer notified on every ``tick``/``charge_rounds``."""
        self._round_observers.append(observer)
        return observer

    def remove_round_observer(self, observer: Any) -> None:
        """Unregister an observer (no error if absent)."""
        try:
            self._round_observers.remove(observer)
        except ValueError:
            pass

    # -- messaging -------------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, kind: str, payload: Any = None) -> None:
        """Queue a message for delivery at the next :meth:`tick`."""
        if not self.graph.has_edge(src, dst):
            raise CongestModelViolation(f"{src!r} -> {dst!r} is not an edge")
        msg = Message(src=src, dst=dst, kind=kind, payload=payload)
        slots = max(1, math.ceil(msg.words / self.message_word_limit))
        if self.strict:
            load = self._edge_load[(src, dst)] + slots
            if load > self.edge_capacity and slots == 1:
                raise CongestModelViolation(
                    f"edge {src!r}->{dst!r} over capacity in round "
                    f"{self.metrics.rounds}: {load} > {self.edge_capacity}"
                )
        self._edge_load[(src, dst)] += slots
        self._outbox.append(msg)
        # Wide payloads occupy several rounds of the edge; charge the extra.
        if slots > 1:
            self.metrics.on_charge(slots - 1)
            _tele.emit("congest.charged_rounds", slots - 1)

    def send_many(
        self, src: NodeId, dsts: Iterable[NodeId], kind: str, payload: Any = None
    ) -> int:
        """Fan ``payload`` out from ``src`` to every vertex in ``dsts``.

        API compatibility shim: the reference engine just loops over
        :meth:`send`, so the batched entry point provably changes nothing
        but speed.  Returns the number of messages queued.
        """
        # Contract shared with the fast path: the payload is sized before
        # any destination is validated.
        words_of(payload)
        count = 0
        for dst in dsts:
            self.send(src, dst, kind, payload)
            count += 1
        return count

    def send_message(self, msg: Message) -> None:
        """Queue an already-built :class:`Message` (shim: rebuilds via
        :meth:`send`, exactly what the seed's protocol driver did)."""
        self.send(msg.src, msg.dst, msg.kind, msg.payload)

    def flood_all(self, kind: str, payload: Any = None) -> int:
        """Every vertex fans ``payload`` out to all of its ports, in node
        order (API compatibility shim: a loop over :meth:`send_many`, the
        same loop the fast path runs).  Returns the number of messages
        queued."""
        count = 0
        for v in self.graph.nodes:
            count += self.send_many(v, self.ports(v), kind, payload)
        return count

    def queued_arc_loads(self) -> List[int]:
        """Per-arc queued load of the open round, indexed by arc id (arcs
        enumerate each vertex's ports in node order, matching the fast
        path's arc ids)."""
        loads: List[int] = []
        for v in self.graph.nodes:
            for w in self.ports(v):
                loads.append(self._edge_load.get((v, w), 0))
        return loads

    def tick(self) -> Dict[NodeId, List[Message]]:
        """Deliver queued messages, advance one round, return inboxes."""
        inboxes: Dict[NodeId, List[Message]] = defaultdict(list)
        words = 0
        for msg in self._outbox:
            inboxes[msg.dst].append(msg)
            words += msg.words
        self.metrics.on_round(len(self._outbox), words)
        if _tele._collectors:
            _tele.emit("congest.rounds", 1)
            if self._outbox:
                _tele.emit("congest.messages", len(self._outbox))
                _tele.emit("congest.message_words", words)
        if self._round_observers:
            for obs in self._round_observers:
                obs.on_round(self, self._outbox, words)
        self._outbox = []
        self._edge_load.clear()
        return inboxes

    def deliver_batch(self) -> List[Message]:
        """Deliver queued messages as one flat list (no per-dst inboxes).

        Same round/metrics/observer semantics as :meth:`tick`; only the
        return shape differs.
        """
        delivered = self._outbox
        words = 0
        for msg in delivered:
            words += msg.words
        self.metrics.on_round(len(delivered), words)
        if _tele._collectors:
            _tele.emit("congest.rounds", 1)
            if delivered:
                _tele.emit("congest.messages", len(delivered))
                _tele.emit("congest.message_words", words)
        if self._round_observers:
            for obs in self._round_observers:
                obs.on_round(self, delivered, words)
        self._outbox = []
        self._edge_load.clear()
        return delivered

    def idle_rounds(self, count: int) -> None:
        """Advance ``count`` rounds with no traffic (synchronization waits)."""
        for _ in range(count):
            self.tick()

    def charge_rounds(self, rounds: int, messages: int = 0, words: int = 0) -> None:
        """Account for ``rounds`` rounds computed analytically."""
        if rounds < 0:
            raise InputError("cannot charge a negative number of rounds")
        self.metrics.on_charge(int(math.ceil(rounds)))
        self.metrics.messages += messages
        self.metrics.message_words += words
        if _tele._collectors:
            _tele.emit("congest.charged_rounds", int(math.ceil(rounds)))
            if messages:
                _tele.emit("congest.messages", messages)
            if words:
                _tele.emit("congest.message_words", words)
        if self._round_observers:
            for obs in self._round_observers:
                obs.on_charge(self, int(math.ceil(rounds)), messages, words)

    # -- phases ------------------------------------------------------------------

    def begin_phase(self, name: str) -> None:
        self.metrics.begin_phase(name)

    def end_phase(self) -> None:
        self.metrics.end_phase()

    # -- convenience ---------------------------------------------------------------

    def hop_diameter_upper_bound(self) -> int:
        """2 * BFS-depth from an arbitrary vertex: a cheap upper bound on D."""
        root = next(iter(self.graph.nodes))
        depths = nx.single_source_shortest_path_length(self.graph, root)
        return 2 * max(depths.values()) if len(depths) > 1 else 0
