"""The CONGEST network simulator (fast-path round engine).

A :class:`Network` wraps a weighted undirected :mod:`networkx` graph.  Every
vertex hosts a processor with a :class:`~repro.congest.memory.MemoryMeter`;
processors communicate in synchronous rounds by exchanging
:class:`~repro.congest.message.Message` objects along edges.

Model enforcement
-----------------
* Messages may only traverse edges of the graph
  (:class:`~repro.errors.CongestModelViolation` otherwise).
* At most ``edge_capacity`` messages (default 1) traverse each edge
  *direction* per round.
* Payloads are at most ``message_word_limit`` machine words (default 4,
  covering "a vertex id, an edge weight, a distance, plus a constant number
  of tags" -- the CONGEST RAM model of Section 2).  Algorithms that
  legitimately batch wider payloads (the O(log n)-word light-edge lists of
  Section 3.2) declare the width and the simulator charges
  ``ceil(words / message_word_limit)`` rounds worth of capacity for them.

Fast path
---------
Graphs are immutable once a :class:`Network` wraps them, so ``__init__``
compiles the topology into flat structures and the per-round hot loops never
touch :mod:`networkx` again:

* **compact integer vertex ids** (``_id_of`` / ``_node_of``) with a
  **CSR-style adjacency**: ``_adj_offsets[i] .. _adj_offsets[i+1]`` indexes
  each vertex's slice of ``_adj_targets`` (neighbor ids, in port order) and
  ``_adj_weights`` (pre-``float()``-ed edge weights);
* **precomputed port tables**: :meth:`ports` returns a cached list built
  once per vertex — the seed engine re-ran ``sorted(..., key=repr)`` on
  every call;
* **array-backed edge loads**: every directed edge (arc) gets a dense
  integer id; per-round capacity accounting indexes a flat list instead of
  hashing ``(src, dst)`` tuples into a ``defaultdict``, and :meth:`tick`
  resets only the arcs actually touched;
* **batched messaging**: :meth:`send_many` fans one payload out of a vertex
  with the word-size computed once and the edge/capacity checks amortized;
  :meth:`deliver_batch` delivers a round as one flat list for callers that
  do not need per-destination inboxes.

All observable behaviour — message order, inbox ordering, metrics,
memory accounting, round observers, and byte-for-byte ``strict``
:class:`~repro.errors.CongestModelViolation` messages — is identical to the
reference engine (:class:`~repro.congest.reference.ReferenceNetwork`); the
differential harness under ``tests/differential/`` enforces this across
randomized protocols, topologies and seeds.  See ``docs/performance.md``.

Round accounting
----------------
``tick()`` delivers the queued messages and advances the round counter.
``charge_rounds(r)`` adds ``r`` analytically-derived rounds for phases that
are cost-charged instead of literally simulated (pipelined broadcast bodies,
hopset construction); see DESIGN.md.  Benchmarks report
``metrics.total_rounds``.

The simulator is deliberately *orchestrated*: algorithm code drives rounds
procedurally (send / tick loops) rather than via per-node state machines.
Information still only moves along edges, one hop per round, which is what
makes the round and memory measurements meaningful.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

from ..errors import CongestModelViolation, InputError
from ..telemetry import events as _tele
from ..telemetry import flight as _flight
from ..wordsize import words_of
from .memory import MemoryMeter
from .message import Message
from .metrics import RunMetrics

NodeId = Hashable


class Network:
    """A synchronous CONGEST network over a weighted undirected graph."""

    def __init__(
        self,
        graph: nx.Graph,
        *,
        message_word_limit: int = 4,
        edge_capacity: int = 1,
        strict: bool = True,
        seed: Optional[int] = None,
    ) -> None:
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
        #: Words queued in ``_outbox``, accumulated at send time so closing
        #: a round never re-walks the outbox to sum message widths.
        self._outbox_words = 0
        #: Round observers (flight recorders, round traces).  Empty list ==
        #: observation disabled; ``tick``/``charge_rounds`` test truthiness
        #: only, the same zero-overhead guard as the telemetry event bus.
        self._round_observers: List[Any] = []

        # -- compile the immutable topology (see module docstring) ----------
        self._node_of: List[NodeId] = list(graph.nodes)
        self._id_of: Dict[NodeId, int] = {
            v: i for i, v in enumerate(self._node_of)
        }
        id_of = self._id_of
        offsets = [0]
        targets: List[int] = []
        weights: List[float] = []
        ports_tab: List[List[NodeId]] = []
        arc_of: Dict[Tuple[NodeId, NodeId], int] = {}
        arc_ends: List[Tuple[NodeId, NodeId]] = []
        for v in self._node_of:
            port_list = sorted(graph.neighbors(v), key=repr)
            ports_tab.append(port_list)
            vdata = graph[v]
            for w in port_list:
                arc_of[(v, w)] = len(arc_ends)
                arc_ends.append((v, w))
                targets.append(id_of[w])
                weights.append(float(vdata[w].get("weight", 1.0)))
            offsets.append(len(targets))
        self._adj_offsets = offsets
        self._adj_targets = targets
        self._adj_weights = weights
        self._ports_table = ports_tab
        self._arc_of = arc_of
        self._arc_ends = arc_ends
        #: Per-arc load counters for the current round, indexed by arc id;
        #: ``_loaded_arcs`` lists the dirty entries so ``tick`` resets only
        #: what was touched instead of clearing all 2m counters.
        self._edge_load: List[int] = [0] * len(arc_ends)
        self._loaded_arcs: List[int] = []
        if _flight._SESSIONS:
            _flight._SESSIONS[-1].attach(self)

    # -- topology ------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._node_of)

    @property
    def num_arcs(self) -> int:
        """Number of directed edges (arcs): twice the edge count."""
        return len(self._arc_ends)

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._node_of)

    def neighbors(self, v: NodeId) -> Iterator[NodeId]:
        i = self._id_of[v]
        node_of = self._node_of
        return (
            node_of[t]
            for t in self._adj_targets[self._adj_offsets[i]:self._adj_offsets[i + 1]]
        )

    def degree(self, v: NodeId) -> int:
        i = self._id_of[v]
        return self._adj_offsets[i + 1] - self._adj_offsets[i]

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of the edge ``{u, v}`` (1.0 when the graph is unweighted)."""
        arc = self._arc_of.get((u, v))
        if arc is None:
            # Preserve the reference engine's error surface for non-edges.
            return float(self.graph[u][v].get("weight", 1.0))
        return self._adj_weights[arc]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return (u, v) in self._arc_of

    def ports(self, v: NodeId) -> List[NodeId]:
        """Deterministically ordered neighbor list ("port numbering").

        Computed once per vertex at construction (graphs are immutable once
        wrapped); every call returns the same cached list.  Treat it as
        read-only.
        """
        return self._ports_table[self._id_of[v]]

    # -- compact ids / edge ids (fast-path introspection) ---------------------

    def compact_id(self, v: NodeId) -> int:
        """The dense integer id of vertex ``v`` (0..n-1, node order)."""
        return self._id_of[v]

    def node_of(self, i: int) -> NodeId:
        """Inverse of :meth:`compact_id`."""
        return self._node_of[i]

    def edge_index(self, u: NodeId, v: NodeId) -> int:
        """Dense id of the directed edge (arc) ``u -> v``.

        Arc ids enumerate each vertex's ports in order, so they double as
        CSR slot indices: ``edge_index(u, ports(u)[p])`` is
        ``_adj_offsets[compact_id(u)] + p``.
        """
        arc = self._arc_of.get((u, v))
        if arc is None:
            raise CongestModelViolation(f"{u!r} -> {v!r} is not an edge")
        return arc

    def edge_endpoints(self, arc: int) -> Tuple[NodeId, NodeId]:
        """Inverse of :meth:`edge_index`: the ``(src, dst)`` of an arc id."""
        return self._arc_ends[arc]

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
        """Free the given key prefix at every vertex (stage teardown).

        Per vertex this costs O(live keys under the prefix's group) thanks
        to the meter's prefix index; when the key is exact, use
        :meth:`free_key`.
        """
        for meter in self._meters.values():
            meter.free_prefix(prefix)

    def free_key(self, key: str) -> None:
        """Free one exact key at every vertex (O(n), no key scans)."""
        for meter in self._meters.values():
            meter.free(key)

    def store_all(self, key: str, words: int) -> None:
        """Store ``words`` under ``key`` at every vertex (stage setup; the
        inverse of :meth:`free_key` for uniform per-vertex buffers)."""
        for meter in self._meters.values():
            meter.store(key, words)

    # -- observation -----------------------------------------------------------

    def add_round_observer(self, observer: Any) -> Any:
        """Register an observer notified on every ``tick``/``charge_rounds``.

        Observers implement ``on_round(net, delivered, words)`` (called
        inside :meth:`tick` after the round counter advanced, with the
        delivered messages still in hand) and
        ``on_charge(net, rounds, messages, words)``.  Returns the observer
        for chaining.
        """
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
        arc = self._arc_of.get((src, dst))
        if arc is None:
            raise CongestModelViolation(f"{src!r} -> {dst!r} is not an edge")
        words = 1 if payload is None else words_of(payload)
        limit = self.message_word_limit
        slots = 1 if words <= limit else -(-words // limit)
        edge_load = self._edge_load
        prior = edge_load[arc]
        if self.strict:
            load = prior + slots
            if load > self.edge_capacity and slots == 1:
                raise CongestModelViolation(
                    f"edge {src!r}->{dst!r} over capacity in round "
                    f"{self.metrics.rounds}: {load} > {self.edge_capacity}"
                )
        if not prior:
            self._loaded_arcs.append(arc)
        edge_load[arc] = prior + slots
        self._outbox.append(Message(src, dst, kind, payload, words))
        self._outbox_words += words
        if slots > 1:
            self.metrics.on_charge(slots - 1)
            _tele.emit("congest.charged_rounds", slots - 1)

    def send_message(self, msg: Message) -> None:
        """Queue an already-built :class:`Message` (the zero-copy send path).

        ``msg.words`` must be the payload's true word count (it is whenever
        the message came from the :class:`Message` constructor).  Semantics
        are exactly :meth:`send`; protocol drivers that already hold
        message objects skip rebuilding them.
        """
        arc = self._arc_of.get((msg.src, msg.dst))
        if arc is None:
            raise CongestModelViolation(f"{msg.src!r} -> {msg.dst!r} is not an edge")
        words = msg.words
        limit = self.message_word_limit
        slots = 1 if words <= limit else -(-words // limit)
        edge_load = self._edge_load
        prior = edge_load[arc]
        if self.strict:
            load = prior + slots
            if load > self.edge_capacity and slots == 1:
                raise CongestModelViolation(
                    f"edge {msg.src!r}->{msg.dst!r} over capacity in round "
                    f"{self.metrics.rounds}: {load} > {self.edge_capacity}"
                )
        if not prior:
            self._loaded_arcs.append(arc)
        edge_load[arc] = prior + slots
        self._outbox.append(msg)
        self._outbox_words += words
        # Wide payloads occupy several rounds of the edge; charge the extra.
        if slots > 1:
            self.metrics.on_charge(slots - 1)
            _tele.emit("congest.charged_rounds", slots - 1)

    def send_many(
        self, src: NodeId, dsts: Iterable[NodeId], kind: str, payload: Any = None
    ) -> int:
        """Fan ``payload`` out from ``src`` to every vertex in ``dsts``.

        Semantically identical to calling :meth:`send` per destination (in
        order), but the payload's word size is computed once — up front,
        before any destination is validated — and the edge-existence/
        capacity bookkeeping runs with the per-call overhead amortized.
        Returns the number of messages queued.
        """
        words = 1 if payload is None else words_of(payload)
        limit = self.message_word_limit
        slots = 1 if words <= limit else -(-words // limit)
        arc_of = self._arc_of
        edge_load = self._edge_load
        loaded = self._loaded_arcs
        outbox = self._outbox
        strict = self.strict
        capacity = self.edge_capacity
        src_id = self._id_of.get(src)
        # Full-fanout fast path: when the caller hands back the cached port
        # table itself, the arcs are exactly this vertex's contiguous CSR
        # slot range -- no per-destination hash lookups.
        if src_id is not None and dsts is self._ports_table[src_id]:
            lo = self._adj_offsets[src_id]
            pairs: Iterable[Tuple[Optional[int], NodeId]] = zip(
                range(lo, self._adj_offsets[src_id + 1]), dsts
            )
        else:
            pairs = ((arc_of.get((src, dst)), dst) for dst in dsts)
        count = 0
        for arc, dst in pairs:
            if arc is None:
                # Validation is interleaved, not up-front: a non-edge leaves
                # the earlier messages of the batch queued, exactly like a
                # loop over :meth:`send` would.
                self._outbox_words += words * count
                raise CongestModelViolation(f"{src!r} -> {dst!r} is not an edge")
            prior = edge_load[arc]
            if strict:
                load = prior + slots
                if load > capacity and slots == 1:
                    # Messages already appended this batch stay queued (the
                    # per-send reference path behaves the same); count their
                    # words before surfacing the violation.
                    self._outbox_words += words * count
                    raise CongestModelViolation(
                        f"edge {src!r}->{dst!r} over capacity in round "
                        f"{self.metrics.rounds}: {load} > {capacity}"
                    )
            if not prior:
                loaded.append(arc)
            edge_load[arc] = prior + slots
            outbox.append(Message(src, dst, kind, payload, words))
            count += 1
            if slots > 1:
                self.metrics.on_charge(slots - 1)
                _tele.emit("congest.charged_rounds", slots - 1)
        self._outbox_words += words * count
        return count

    def flood_all(self, kind: str, payload: Any = None) -> int:
        """Every vertex fans ``payload`` out to all of its ports, in node
        order (one whole-round flood): ``n`` full-fanout :meth:`send_many`
        calls, each on the cached port table's contiguous arc range.
        Returns the number of messages queued.
        """
        count = 0
        ports_tab = self._ports_table
        for i, v in enumerate(self._node_of):
            count += self.send_many(v, ports_tab[i], kind, payload)
        return count

    def queued_arc_loads(self) -> List[int]:
        """Per-arc queued load of the open round, indexed by arc id
        (audit/introspection; engines agree on this vector exactly)."""
        return list(self._edge_load)

    def _end_round(self, delivered: List[Message], words: int) -> None:
        """Shared round-close path of :meth:`tick` / :meth:`deliver_batch`."""
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
        self._outbox_words = 0
        edge_load = self._edge_load
        for arc in self._loaded_arcs:
            edge_load[arc] = 0
        self._loaded_arcs.clear()

    def tick(self) -> Dict[NodeId, List[Message]]:
        """Deliver queued messages, advance one round, return inboxes."""
        delivered = self._outbox
        words = self._outbox_words
        inboxes: Dict[NodeId, List[Message]] = defaultdict(list)
        for msg in delivered:
            inboxes[msg.dst].append(msg)
        self._end_round(delivered, words)
        return inboxes

    def deliver_batch(self) -> List[Message]:
        """Deliver queued messages as one flat list (no per-dst inboxes).

        Same round/metrics/observer semantics as :meth:`tick`, minus the
        cost of grouping by destination — for counting floods, observers-
        only runs, and callers that dispatch on ``msg.dst`` themselves.
        The word total was accumulated at send time, so closing the round
        does not touch the messages at all.
        """
        delivered = self._outbox
        words = self._outbox_words
        self._end_round(delivered, words)
        return delivered

    def idle_rounds(self, count: int) -> None:
        """Advance ``count`` rounds with no traffic (synchronization waits)."""
        for _ in range(count):
            self.tick()

    def charge_rounds(self, rounds: int, messages: int = 0, words: int = 0) -> None:
        """Account for ``rounds`` rounds computed analytically.

        Used by cost-charged phases (DESIGN.md): the state change is computed
        directly while the round/message counters advance by the formula the
        paper proves for that phase.
        """
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
