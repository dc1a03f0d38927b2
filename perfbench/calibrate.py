"""A fixed reference workload that measures how fast this host runs now.

The benchmark's hosts share memory bandwidth and caches with other
tenants, and dict-heavy Python slows down by a third or more for seconds
at a time.  Every timed step of a run is bracketed by runs of
:func:`reference_s`, pure Python built like the program's own hot paths (a
weighted dict-of-dicts graph and heap-based Dijkstra), independent of the
program.  Times are reported scaled by the host speed the reference saw
around the step, relative to :data:`NOMINAL_S`, its time on a quiet 2-CPU
host, so a slow phase of the host moves the reference and the step
together and mostly cancels out.
"""

from __future__ import annotations

import heapq
import multiprocessing
import random
import time
from typing import Any

#: seconds :func:`reference_s` takes on a quiet 2-CPU x86-64 host (Python 3.11)
NOMINAL_S = 0.1
#: how much of a reference slowdown the workloads feel, as a power of it:
#: chosen on such a host, where of the powers 0.5, 0.75 and 1 it gave the
#: smallest ten-seed spread of ``call_s`` over the four workloads together
SENSITIVITY = 0.75


def scale(seconds: float, host_speed: float) -> float:
    """``seconds`` measured at ``host_speed``, as on the nominal host."""
    return seconds * host_speed ** SENSITIVITY


def speed(before: float, cpus: int = 1) -> float:
    """Host speed over a step that ``before`` (a :func:`reference` time
    taken just before it) and a fresh reference run just after bracket:
    nominal time over their mean, so above 1 on a fast host."""
    return NOMINAL_S / ((before + reference(cpus)) / 2)


def reference(cpus: int = 1) -> float:
    """Mean :func:`reference_s` time with ``cpus`` copies running at once.

    A step that keeps several CPUs busy (a worker pool) meets the host's
    contention on all of them, so it is bracketed by references that do
    the same; the extra copies run in forked children.
    """
    if cpus == 1:
        return reference_s()
    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    try:
        for _ in range(cpus - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_report, args=(sender,))
            proc.start()
            sender.close()
            pipes.append(receiver)
            procs.append(proc)
        times = [reference_s()] + [pipe.recv() for pipe in pipes]
    finally:
        for proc in procs:
            proc.join()
        for pipe in pipes:
            pipe.close()
    return sum(times) / len(times)


def _report(sender: Any) -> None:
    sender.send(reference_s())
    sender.close()


def reference_s() -> float:
    """Run the reference workload once; return its wall time in seconds."""
    started = time.perf_counter()
    rng = random.Random(12345)
    n = 6000
    adj = {v: {} for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u][v] = adj[v][u] = {"weight": rng.uniform(1.0, 10.0)}
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u][v] = adj[v][u] = {"weight": rng.uniform(1.0, 10.0)}
    total = 0.0
    for source in range(0, n, n // 4):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, attrs in adj[u].items():
                nd = d + attrs["weight"]
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    if not total > 0:
        raise RuntimeError("reference workload computed nothing")
    return time.perf_counter() - started
