"""Engine microbenchmark: fast path vs reference wall-clock.

Times identical communication kernels on the two round engines —
:class:`repro.congest.ReferenceNetwork` (the frozen seed oracle) and
:class:`repro.congest.Network` (the eager fast path) — over the F7 graph
family (``random_connected_graph(800, avg_degree=6.0, seed=3)`` — the
largest size of ``bench_fig_graph_rounds``):

* ``fig7_flood``    — full-neighborhood exchanges (``send_many`` over the
  cached port tables + ``deliver_batch``): the pure engine round-trip.
  Pinned to the gate: fast path >= 3x over the reference;
* ``fig7_bfs``      — repeated BFS-tree floods (mixed algorithm/engine);
* ``fig7_floodmax`` — event-driven leader election via ``run_protocol``
  (per-message ``send_message`` path, dict-shaped ``tick`` delivery).

Every workload first replays on both engines and asserts the
deterministic outputs are identical (``RunMetrics.fingerprint()`` and the
memory high-water) — a benchmark that compared engines computing different
things would be meaningless.  Deterministic columns (rounds, messages,
words, memory) are hard-gated by the perf-trajectory regression checker;
the ``*_wall_s`` / ``speedup_*`` columns are soft (report-only) like every
wall-clock metric (see ``repro.telemetry.regress``).

Runs standalone (``python benchmarks/sim_micro.py``) or through the
``bench_sim_micro`` pytest/run_all entry; both emit ``BENCH_sim_micro.json``
via the shared trajectory writer.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

if __package__ in (None, ""):  # standalone: make src/ + benchmarks/ importable
    _HERE = pathlib.Path(__file__).resolve().parent
    for p in (str(_HERE), str(_HERE.parent / "src")):
        if p not in sys.path:
            sys.path.insert(0, p)

from repro.congest import Network, ReferenceNetwork
from repro.congest.bfs import build_bfs_tree
from repro.congest.protocol import FloodMax, run_protocol
from repro.graphs import random_connected_graph

#: The F7 family parameters (largest size of ``bench_fig_graph_rounds``).
FIG7_N = 800
FIG7_SEED = 3

#: The acceptance gate, pinned to ``fig7_flood``: the eager fast path
#: must beat the reference by >= 3x (measured ~3.5x on the development
#: machine).
FIG7_MIN_SPEEDUP = 3.0

#: Timing repetitions per engine (best-of, to shed scheduler noise).
BEST_OF = 3


def _fig7_graph():
    return random_connected_graph(FIG7_N, avg_degree=6.0, seed=FIG7_SEED)


def _flood(net: Any) -> None:
    nodes = list(net.nodes())
    for _ in range(25):
        for v in nodes:
            net.send_many(v, net.ports(v), "flood")
        net.deliver_batch()


def _bfs(net: Any) -> None:
    for _ in range(12):
        build_bfs_tree(net)


def _floodmax(net: Any) -> None:
    bound = net.hop_diameter_upper_bound()
    run_protocol(net, lambda v: FloodMax(bound + 1), max_rounds=10_000)


#: name -> (graph factory, workload, vertex count).  The graph is built
#: once per workload and shared by every engine/repetition: the engines
#: are certified (tests/differential) not to mutate it.
WORKLOADS: Dict[str, Tuple[Callable[[], Any], Callable[[Any], None], int]] = {
    "fig7_flood": (_fig7_graph, _flood, FIG7_N),
    "fig7_bfs": (_fig7_graph, _bfs, FIG7_N),
    "fig7_floodmax": (_fig7_graph, _floodmax, FIG7_N),
}


def _time_engine(
    engine_cls, graph, workload: Callable[[Any], None]
) -> Tuple[float, Any]:
    """Best-of-``BEST_OF`` wall time; returns (seconds, last network)."""
    best = float("inf")
    net = None
    for _ in range(BEST_OF):
        net = engine_cls(graph)
        started = time.perf_counter()
        workload(net)
        best = min(best, time.perf_counter() - started)
    return best, net


def run_sim_micro() -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Measure every workload on both engines; return (records, meta).

    Raises ``AssertionError`` if the engines' deterministic outputs ever
    diverge — equality is a precondition of the comparison, enforced here
    and (exhaustively) by ``tests/differential/``.
    """
    records: List[Dict[str, Any]] = []
    for name, (graph_of, workload, n) in WORKLOADS.items():
        graph = graph_of()
        ref_s, ref_net = _time_engine(ReferenceNetwork, graph, workload)
        fast_s, fast_net = _time_engine(Network, graph, workload)
        assert fast_net.metrics.fingerprint() == ref_net.metrics.fingerprint(), (
            f"{name}: fast engine metrics diverged"
        )
        assert fast_net.max_memory() == ref_net.max_memory(), (
            f"{name}: fast engine memory accounting diverged"
        )
        m = fast_net.metrics
        records.append({
            "workload": name,
            "n": n,
            "rounds": m.rounds,
            "messages": m.messages,
            "message_words": m.message_words,
            "max_memory": fast_net.max_memory(),
            "ref_wall_s": round(ref_s, 4),
            "fast_wall_s": round(fast_s, 4),
            "speedup_wall": round(ref_s / fast_s, 2),
        })
    by_name = {r["workload"]: r for r in records}
    meta = {
        "family": f"random_connected_graph(n={FIG7_N}, seed={FIG7_SEED})",
        "best_of": BEST_OF,
        "engines_equal": True,
        "fig7_flood_speedup_wall": by_name["fig7_flood"]["speedup_wall"],
        "min_speedup_gate": FIG7_MIN_SPEEDUP,
    }
    return records, meta


def render(records: List[Dict[str, Any]]) -> str:
    header = (
        f"{'workload':<16}{'n':>7}{'rounds':>8}{'messages':>10}{'words':>10}"
        f"{'ref s':>9}{'fast s':>9}{'fast x':>9}"
    )
    lines = ["engine microbenchmark: fast path vs reference (fig7 family)",
             header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r['workload']:<16}{r['n']:>7}{r['rounds']:>8}{r['messages']:>10}"
            f"{r['message_words']:>10}{r['ref_wall_s']:>9.3f}"
            f"{r['fast_wall_s']:>9.3f}{r['speedup_wall']:>8.2f}x"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    from _util import emit

    recs, meta = run_sim_micro()
    emit("sim_micro", render(recs), data=recs, meta=meta)
    flood = meta["fig7_flood_speedup_wall"]
    if flood < FIG7_MIN_SPEEDUP:
        raise SystemExit(
            f"fig7_flood speedup {flood}x below the {FIG7_MIN_SPEEDUP}x gate"
        )
