"""Seeded protocol fuzzer: random message schedules on both engines.

Unlike the replay tests (which drive real algorithm code), the fuzzer
generates adversarial *raw* schedules — including deliberate capacity
violations and non-edge sends — and asserts the engines fail identically:
same :class:`~repro.errors.CongestModelViolation` at the same operation, in
the same round, with the byte-identical message.  After a violation each
engine must also be left in the same state (the schedule keeps going), so
post-exception divergence cannot hide.  Besides outcomes and metrics, the
post-run check covers per-vertex memory high-waters *and* the
``last_prefix_scan`` pins, so bulk-free bookkeeping cannot drift either.

Schedules are generated once per seed and applied to each engine
independently; everything is derived from ``random.Random(seed)``, so a
failing case reproduces from its pytest id alone.
"""

from __future__ import annotations

import random
from typing import Any, List, Tuple

import pytest

from repro.congest import ENGINES, ReferenceNetwork
from repro.errors import CongestModelViolation

from .harness import QUICK, TOPOLOGIES, build_topology, run_fingerprint

#: The engines certified against the reference oracle.
CANDIDATES = ("fastpath",)

FUZZ_SEEDS = range(4) if QUICK else range(30)
TOPO_NAMES = sorted(TOPOLOGIES)


def make_schedule(graph: Any, seed: int, *, rounds: int = 12) -> List[Tuple]:
    """A deterministic random schedule of engine operations.

    Ops:
      ("send", src, dst, kind, payload)        -- dst may be a NON-neighbor
      ("send_many", src, dsts, kind, payload)  -- dsts may contain a non-edge
      ("flood_all", payload)                   -- whole-round fanout kernel
      ("close", "tick" | "deliver")            -- end the round either way
      ("idle", k) / ("charge", r, m, w)        -- accounting paths
      ("mem", v, key, words) / ("free", prefix) / ("free_key", key)

    Capacity violations arise naturally: several sends may pick the same
    directed edge within one round, and a ``flood_all`` after any send on a
    strict network overloads every already-loaded arc mid-fanout.  Wide
    payloads (> word limit) exercise the multi-slot charging path, which
    must never raise.
    """
    rng = random.Random(seed * 6151 + 17)
    nodes = sorted(graph.nodes, key=repr)
    neighbors = {v: sorted(graph.neighbors(v), key=repr) for v in nodes}
    schedule: List[Tuple] = []
    for _ in range(rounds):
        for _ in range(rng.randrange(0, 10)):
            roll = rng.random()
            src = rng.choice(nodes)
            if roll < 0.50:
                # Mostly-legal single sends; ~1 in 12 aims at a non-edge.
                if rng.random() < 0.08:
                    dst = rng.choice(nodes)
                else:
                    dst = rng.choice(neighbors[src])
                payload = rng.choice(
                    [None, rng.randrange(100), list(range(rng.randrange(5, 9)))]
                )
                schedule.append(("send", src, dst, "fuzz", payload))
            elif roll < 0.78:
                dsts = rng.sample(
                    neighbors[src], rng.randrange(1, len(neighbors[src]) + 1)
                )
                if rng.random() < 0.1:
                    dsts.insert(rng.randrange(len(dsts) + 1), rng.choice(nodes))
                schedule.append(("send_many", src, dsts, "fan", None))
            elif roll < 0.84:
                payload = rng.choice(
                    [None, rng.randrange(50), list(range(rng.randrange(5, 9)))]
                )
                schedule.append(("flood_all", payload))
            elif roll < 0.90:
                schedule.append(
                    ("mem", src, rng.choice(["fz/a", "fz/b", "plain"]),
                     rng.randrange(1, 5))
                )
            elif roll < 0.94:
                schedule.append(("free", rng.choice(["fz/", "fz/a", "plain"])))
            elif roll < 0.97:
                schedule.append(
                    ("free_key", rng.choice(["fz/a", "fz/b", "plain", "ghost"]))
                )
            else:
                schedule.append(
                    ("charge", rng.randrange(0, 3), rng.randrange(0, 4),
                     rng.randrange(0, 6))
                )
        schedule.append(("close", rng.choice(["tick", "deliver"])))
        if rng.random() < 0.15:
            schedule.append(("idle", rng.randrange(1, 3)))
    return schedule


def apply_schedule(net: Any, schedule: List[Tuple]) -> List[Tuple]:
    """Run a schedule, recording each op's observable outcome."""
    outcomes: List[Tuple] = []
    for op in schedule:
        tag = op[0]
        try:
            if tag == "send":
                net.send(op[1], op[2], op[3], op[4])
                outcomes.append(("ok",))
            elif tag == "send_many":
                outcomes.append(("ok", net.send_many(op[1], op[2], op[3], op[4])))
            elif tag == "flood_all":
                outcomes.append(("ok", net.flood_all("flood", op[1])))
            elif tag == "close":
                if op[1] == "tick":
                    inboxes = net.tick()
                    outcomes.append((
                        "round",
                        sorted(
                            (repr(v), [(repr(m.src), m.kind, m.words) for m in box])
                            for v, box in inboxes.items()
                        ),
                    ))
                else:
                    delivered = net.deliver_batch()
                    outcomes.append((
                        "round",
                        [(repr(m.src), repr(m.dst), m.kind, m.words)
                         for m in delivered],
                    ))
            elif tag == "idle":
                net.idle_rounds(op[1])
                outcomes.append(("ok",))
            elif tag == "charge":
                net.charge_rounds(op[1], messages=op[2], words=op[3])
                outcomes.append(("ok",))
            elif tag == "mem":
                net.mem(op[1]).store(op[2], op[3])
                outcomes.append(("ok",))
            elif tag == "free":
                net.free_all(op[1])
                outcomes.append(("ok",))
            elif tag == "free_key":
                net.free_key(op[1])
                outcomes.append(("ok",))
        except CongestModelViolation as exc:
            outcomes.append(("violation", str(exc)))
    return outcomes


def _run_fuzz(topo: str, seed: int, *, strict: bool) -> None:
    graph = build_topology(topo, seed)
    schedule = make_schedule(graph, seed)

    ref = ReferenceNetwork(graph, strict=strict)
    ref_outcomes = apply_schedule(ref, schedule)
    ref_waters = {repr(v): hw for v, hw in ref.memory_high_water().items()}
    ref_pins = {repr(v): ref.mem(v).last_prefix_scan for v in ref.nodes()}

    for name in CANDIDATES:
        net = ENGINES[name](build_topology(topo, seed), strict=strict)
        outcomes = apply_schedule(net, schedule)
        for i, (op, a, b) in enumerate(zip(schedule, ref_outcomes, outcomes)):
            assert a == b, f"op {i} {op[0]!r}: reference {a!r} != {name} {b!r}"
        assert net.metrics.fingerprint() == ref.metrics.fingerprint(), name
        assert net.metrics.to_dict() == ref.metrics.to_dict(), name
        assert (
            {repr(v): hw for v, hw in net.memory_high_water().items()}
            == ref_waters
        ), name
        assert (
            {repr(v): net.mem(v).last_prefix_scan for v in net.nodes()}
            == ref_pins
        ), name


@pytest.mark.parametrize(
    "topo,seed",
    [
        pytest.param(TOPO_NAMES[s % len(TOPO_NAMES)], s, id=f"strict-s{s}")
        for s in FUZZ_SEEDS
    ],
)
def test_fuzz_strict_parity(topo, seed):
    """Strict mode: identical violations (op index, round, edge, text)."""
    _run_fuzz(topo, seed, strict=True)


@pytest.mark.parametrize(
    "topo,seed",
    [
        pytest.param(TOPO_NAMES[(s + 3) % len(TOPO_NAMES)], s, id=f"lax-s{s}")
        for s in (range(2) if QUICK else range(12))
    ],
)
def test_fuzz_non_strict_parity(topo, seed):
    """Non-strict mode: overloads pass through; traffic still matches."""
    _run_fuzz(topo, seed, strict=False)


def test_fuzz_schedules_do_violate():
    """Meta-check: the strict matrix actually exercises both violation
    kinds (capacity overload and non-edge send) — guards against a fuzzer
    regression that silently stops generating adversarial ops."""
    kinds = set()
    for s in FUZZ_SEEDS:
        graph = build_topology(TOPO_NAMES[s % len(TOPO_NAMES)], s)
        net = ReferenceNetwork(graph, strict=True)
        for outcome in apply_schedule(net, make_schedule(graph, s)):
            if outcome[0] == "violation":
                kinds.add(
                    "capacity" if "over capacity" in outcome[1] else "non-edge"
                )
    assert kinds == {"capacity", "non-edge"}


def test_fingerprint_helper_covers_timeline():
    """The replay fingerprint includes the trace timeline on both engines."""
    graph = build_topology("gnp", 1)
    fp = run_fingerprint(
        ReferenceNetwork, graph, lambda net, s: net.idle_rounds(3), 0
    )
    assert "rounds 1..3" in fp["timeline"]
