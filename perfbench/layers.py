"""Per-layer timing for the traced benchmark run.

The traced run replaces selected public functions of ``repro`` with timing
wrappers, runs one instance of a workload, and puts the originals back.
Nothing under ``src/`` is changed: every wrapper is installed on the name
the *caller* resolves, because modules bind imported names at import time
(``repro.core.build`` calls its own ``build_hopset`` binding, not
``repro.hopsets.build_hopset``).

Each wrapped call records

* inclusive time and a call count under its metric, counted only for the
  outermost call of that metric (``flood_all`` calling ``send_many`` is one
  send);
* self time (its duration minus the wrapped calls nested inside it) under
  its layer, so layer self times plus the uncovered rest add up to the wall
  time of the call that contains them.

``MemoryMeter`` work is counted through the ``Network``-level calls only:
the per-vertex meter methods run millions of times per build and wrapping
them would measure the wrapper.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

import repro
import repro.core.assembly
import repro.core.build
import repro.serve
import repro.serve.harness
import repro.shard.pool
import repro.treerouting.scheme
from repro.congest.network import Network
from repro.serve.harness import ServeReport

LAYERS = ("graphs", "congest", "tz", "hopsets", "core", "treerouting",
          "serve", "shard")

_MARK = "__perfbench_metric__"

#: (owner, attribute, metric).  The metric's layer is its first component.
TARGETS: List[Tuple[Any, str, str]] = [
    (repro, "random_connected_graph", "graphs.generate"),
    (repro, "spanning_tree_of", "graphs.generate"),
    (repro.serve.harness, "dijkstra", "graphs.dijkstra"),
    (Network, "store_all", "congest.meter"),
    (Network, "free_key", "congest.meter"),
    (Network, "free_all", "congest.meter"),
    (Network, "send", "congest.send"),
    (Network, "send_message", "congest.send"),
    (Network, "send_many", "congest.send"),
    (Network, "flood_all", "congest.send"),
    (Network, "tick", "congest.deliver"),
    (Network, "deliver_batch", "congest.deliver"),
    (repro.core.build, "build_bfs_tree", "congest.bfs"),
    (repro.treerouting.scheme, "build_bfs_tree", "congest.bfs"),
    (repro.core.build, "sample_hierarchy", "tz.hierarchy"),
    (repro.core.build, "compute_pivots", "tz.pivots"),
    (repro, "build_centralized_scheme", "tz.centralized_build"),
    (repro.core.build, "build_hopset", "hopsets.build"),
    (repro.core.build, "build_exact_low_level_clusters", "core.low_levels"),
    (repro.core.build, "build_high_level_clusters", "core.high_levels"),
    (repro.core.build, "build_tree_schemes", "core.tree_routing"),
    (repro.core.build, "assemble_tables", "core.assembly"),
    (repro.core.build, "assemble_labels", "core.assembly"),
    (repro.core.assembly, "build_distributed_tree_scheme", "treerouting.tree"),
    (repro, "build_distributed_tree_scheme", "treerouting.tree"),
    (repro.treerouting.scheme, "partition_tree", "treerouting.partition"),
    (repro.treerouting.scheme, "run_stage0", "treerouting.stage0"),
    (repro.treerouting.scheme, "run_stage1", "treerouting.stage1"),
    (repro.treerouting.scheme, "run_stage2", "treerouting.stage2"),
    (repro.treerouting.scheme, "run_stage3", "treerouting.stage3"),
    (repro.serve, "serve_pairs", "serve.pairs"),
    (repro.serve, "compile_scheme", "serve.compile"),
    (repro.serve, "make_workload", "serve.workload"),
    (repro.shard.pool.ShardPool, "serve", "shard.pool"),
    (repro.shard.pool, "seal_to_buffers", "shard.seal"),
    (repro.shard.pool, "partition_pairs", "shard.partition"),
    (ServeReport, "merge", "shard.merge"),
]


def unwrapped() -> bool:
    """True when no target currently holds a timing wrapper."""
    return not any(_is_wrapper(owner.__dict__[attr])
                   for owner, attr, _ in TARGETS)


def _is_wrapper(obj: Any) -> bool:
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return hasattr(obj, _MARK)


class Tracer:
    """Inclusive time, call counts and layer self time of wrapped calls."""

    def __init__(self) -> None:
        self.incl: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: sum of every self time recorded; the difference across an outer
        #: call is the part of that call covered by a named layer.
        self.covered = 0.0
        self._depth: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, metric in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(original.__func__, metric))
            else:
                wrapped = self._wrap(original, metric)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], metric: str) -> Callable[..., Any]:
        layer = metric.split(".", 1)[0]
        depth = self._depth
        stack = self._stack
        incl = self.incl
        calls = self.calls
        layer_self = self.self_s
        clock = time.perf_counter
        depth.setdefault(metric, 0)
        incl.setdefault(metric, 0.0)
        calls.setdefault(metric, 0)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]  # time of wrapped calls nested inside this one
            stack.append(frame)
            depth[metric] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                depth[metric] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                layer_self[layer] += own
                self.covered += own
                if not depth[metric]:
                    incl[metric] += elapsed
                    calls[metric] += 1

        setattr(wrapper, _MARK, metric)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper
