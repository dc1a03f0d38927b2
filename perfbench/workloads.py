"""The benchmark's workloads: what each sets up, times and checks.

Every workload has the same shape, so one measurement loop drives them all:

* ``setup(seed)`` builds the inputs of one instance (timed: ``setup_s``);
* ``prepare(state)`` makes the fresh per-call objects a user would make
  (a cold ``ServeEngine``, a new ``ShardPool``; also timed into ``setup_s``);
* ``call(state, handle)`` is the public call a user runs (timed: ``call_s``);
* ``release(handle)`` tears the per-call objects down and reports leaks;
* ``check(state, out)`` verifies the call's output and returns how many
  operations it attempted and how many failed.

The parameters below are the workload definitions; ``run.py`` prints them,
with the host facts that make numbers comparable, on every run.
"""

from __future__ import annotations

import dataclasses
import math
import signal
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any, Dict, Iterator, List

import repro
from repro.errors import ReproError
from repro.routing.router import measure_stretch
from repro.routing.validation import verify_tree_scheme
from repro.serve import ServeEngine, ServeReport
from repro.shard import ShardPool, partition_pairs


class Failed(Exception):
    """A measured call that did not produce a usable output."""


@dataclasses.dataclass
class Checked:
    """The verdict on one call's output."""

    attempted: int
    failed: int
    problems: List[str]
    facts: Dict[str, float]


class Workload:
    """Base class; subclasses fill in the five steps."""

    name = ""
    #: inputs and knobs, recorded with every run
    params: Dict[str, Any] = {}
    #: layer -> end-to-end metrics a change in that layer should move here
    moves: Dict[str, List[str]] = {}
    #: distinct inputs a run spreads its calls over, the setups timed per
    #: instance, and the fewest calls a run makes
    instances = 1
    setup_reps = 3
    min_calls = 2
    #: CPUs the measured call keeps busy
    cpus = 1
    #: per-layer name of the queries per second of the call's wall time
    qps_metric = ""

    def __init__(self, **overrides: Any) -> None:
        unknown = set(overrides) - set(type(self).params)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        self.params = {**type(self).params, **overrides}

    def setup(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self, state: Dict[str, Any]) -> Any:
        return None

    def call(self, state: Dict[str, Any], handle: Any) -> Any:
        raise NotImplementedError

    def release(self, state: Dict[str, Any], handle: Any) -> List[str]:
        return []

    def check(self, state: Dict[str, Any], out: Any) -> Checked:
        raise NotImplementedError

    def ops(self) -> int:
        """Operations in one call: a build, or the queries of a stream."""
        return 1

    def inspect(self, state: Dict[str, Any], handle: Any,
                out: Any) -> Dict[str, float]:
        """Per-layer figures read off a traced call's objects."""
        return {}


def instance_seed(seed: int, i: int) -> int:
    """Seed of a run's ``i``-th instance; instance 0 uses the run seed."""
    return seed + 100003 * i


def stretch_limit(k: int, epsilon: float) -> float:
    """Theorem 3's stretch bound, (4k-3)(1+6ε)²."""
    return (4 * k - 3) * (1 + 6 * epsilon) ** 2


#: First components of the phase paths the builds record; rounds of any
#: other phase, and rounds outside every phase, count as ``rounds.other``.
PHASE_GROUPS = ("bfs-tree", "low-levels", "clusters",
                "stage0", "stage1", "stage2", "stage3")


def round_facts(by_phase: Dict[str, int], total: int) -> Dict[str, int]:
    """``rounds.<group>`` per phase group, plus ``rounds.other``."""
    out = {f"rounds.{g}": 0 for g in PHASE_GROUPS}
    for phase, rounds in by_phase.items():
        key = f"rounds.{phase.split('/', 1)[0]}"
        if key in out:
            out[key] += rounds
    out["rounds.other"] = total - sum(out.values())
    return out


# ---------------------------------------------------------------------------
# Builds
# ---------------------------------------------------------------------------

class Table1Build(Workload):
    name = "table1_build"
    #: ``--seed`` picks the graphs.  The build's own seed stays at 7, the
    #: published Table 1 seed, because it fixes the hierarchy sizes |A_i|,
    #: which swing the build's cost by up to 60% from seed to seed.
    params = {"n": 600, "avg_degree": 6.0, "k": 3, "epsilon": 0.05,
              "build_seed": 7, "check_pairs": 200}
    moves = {
        "graphs": ["setup_s"],
        "congest": ["call_s", "peak_rss_mb"],
        "tz": ["call_s"],
        "hopsets": ["call_s"],
        "core": ["call_s"],
        "treerouting": ["call_s"],
    }
    instances = 3

    def setup(self, seed: int) -> Dict[str, Any]:
        p = self.params
        graph = repro.random_connected_graph(
            p["n"], avg_degree=p["avg_degree"], seed=seed)
        return {"seed": seed, "graph": graph}

    def call(self, state: Dict[str, Any], handle: Any) -> Any:
        p = self.params
        return repro.build_distributed_scheme(
            state["graph"], k=p["k"], epsilon=p["epsilon"],
            seed=p["build_seed"])

    def check(self, state: Dict[str, Any], out: Any) -> Checked:
        p = self.params
        limit = stretch_limit(p["k"], p["epsilon"])
        problems: List[str] = []
        stretch = math.inf
        try:
            sample = measure_stretch(out.scheme, state["graph"],
                                     p["check_pairs"], seed=state["seed"])
            stretch = sample.max_stretch
        except ReproError as exc:
            problems.append(f"route not delivered: {exc}")
        if not stretch <= limit + 1e-9:
            problems.append(f"stretch {stretch} above {limit:.4g}")
        facts = {
            "rounds": out.rounds_parallel_estimate,
            "messages": out.messages,
            "max_memory_words": out.max_memory_words,
            "table_words": out.scheme.max_table_words(),
            "label_words": out.scheme.max_label_words(),
            "stretch_max": stretch,
            "hopsets.size": out.hopset_size,
            **round_facts(out.phase_rounds, out.rounds_sequential),
        }
        return Checked(1, 1 if problems else 0, problems, facts)


class Table2Build(Workload):
    name = "table2_build"
    params = {"n": 10000, "tree_style": "dfs", "check_pairs": 100}
    moves = {
        "graphs": ["setup_s", "peak_rss_mb"],
        "congest": ["call_s", "peak_rss_mb"],
        "treerouting": ["call_s"],
    }
    instances = 3
    setup_reps = 1

    def setup(self, seed: int) -> Dict[str, Any]:
        p = self.params
        graph = repro.random_connected_graph(p["n"], seed=seed)
        tree = repro.spanning_tree_of(graph, style=p["tree_style"], seed=seed)
        return {"seed": seed, "graph": graph, "tree": tree}

    def call(self, state: Dict[str, Any], handle: Any) -> Any:
        net = repro.Network(state["graph"])
        build = repro.build_distributed_tree_scheme(
            net, state["tree"], seed=state["seed"])
        return net, build

    def check(self, state: Dict[str, Any], out: Any) -> Checked:
        net, build = out
        graph = state["graph"]
        problems: List[str] = []
        artifacts = (build.scheme.tables, build.scheme.labels)
        if state.get("verified") == artifacts:
            # the build is deterministic: an output equal to one already
            # verified is verified (routing 100 pairs down a deep tree is
            # slower than the build)
            return Checked(1, 0, [], state["verified_facts"])
        try:
            verify_tree_scheme(
                build.scheme, state["tree"],
                weight_of=lambda u, v: graph[u][v]["weight"],
                sample_pairs=self.params["check_pairs"], seed=state["seed"])
        except ReproError as exc:
            problems.append(f"tree scheme not exact: {exc}")
        facts = {
            "rounds": build.rounds,
            "messages": build.messages,
            "max_memory_words": build.max_memory_words,
            "table_words": build.scheme.max_table_words(),
            "label_words": build.scheme.max_label_words(),
            # verify_tree_scheme demands route length == tree distance
            "stretch_max": 1.0 if not problems else math.inf,
            **round_facts(net.metrics.by_phase(), net.metrics.total_rounds),
        }
        if not problems:
            state["verified"], state["verified_facts"] = artifacts, facts
        return Checked(1, 1 if problems else 0, problems, facts)


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

class ServeZipf(Workload):
    name = "serve_zipf"
    params = {"n": 500, "k": 3, "queries": 20000, "zipf_alpha": 1.1,
              "cache_size": 4096, "mode": "first"}
    moves = {
        "graphs": ["call_s"],
        "tz": ["setup_s"],
        "serve": ["call_s", "setup_s"],
    }
    qps_metric = "serve_qps"

    def setup(self, seed: int) -> Dict[str, Any]:
        p = self.params
        graph = repro.random_connected_graph(p["n"], seed=seed)
        scheme = repro.build_centralized_scheme(graph, p["k"], seed=seed)
        compiled = repro.serve.compile_scheme(scheme, graph)
        pairs = repro.serve.make_workload(
            "zipf", graph, compiled.nodes, p["queries"], seed,
            zipf_alpha=p["zipf_alpha"])
        return {"seed": seed, "graph": graph, "scheme": scheme,
                "compiled": compiled, "pairs": pairs}

    def prepare(self, state: Dict[str, Any]) -> Any:
        p = self.params
        return ServeEngine(state["compiled"], mode=p["mode"],
                           cache_size=p["cache_size"])

    def call(self, state: Dict[str, Any], handle: Any) -> ServeReport:
        report, _ = repro.serve.serve_pairs(
            handle, state["graph"], state["pairs"], workload="zipf",
            seed=state["seed"])
        return report

    def check(self, state: Dict[str, Any], out: ServeReport) -> Checked:
        return _check_served(state, out, [])

    def ops(self) -> int:
        return self.params["queries"]

    def inspect(self, state: Dict[str, Any], handle: Any,
                out: ServeReport) -> Dict[str, float]:
        return {"serve.route_s": out.serve_s}


def _check_served(state: Dict[str, Any], report: ServeReport,
                  problems: List[str]) -> Checked:
    """A served query fails when it is not delivered or misses the SLO;
    every query fails when the report as a whole is wrong (``problems``)."""
    queries = len(state["pairs"])
    if report.queries != queries:
        problems.append(f"served {report.queries} of {queries} queries")
    if problems:
        failed = queries
    else:
        failed = queries - (report.slo_within or 0)
        if failed:
            problems.append(f"{failed} queries missed the stretch SLO, "
                            f"{report.failures} of them undelivered")
    stretch = report.sketches.get("stretch")
    facts = {
        "table_words": state["scheme"].max_table_words(),
        "label_words": state["scheme"].max_label_words(),
        "stretch_max": stretch.max_value if stretch is not None else math.inf,
        "slo_fraction": report.slo_fraction or 0.0,
        "query_p50_us": report.latency_us_p50,
        "query_p99_us": report.latency_us_p99,
        "serve.cache_hit_rate": report.cache_hit_rate,
        "serve.cache_hits": report.cache_hits,
        "serve.cache_misses": report.cache_misses,
        "serve.failures": report.failures,
    }
    return Checked(queries, failed, problems, facts)


#: Cache counters a sharded run may legitimately raise: each worker keeps
#: its own LRU of ``cache_size`` entries, so once capacity binds the shards
#: evict less than one process does (docs/sharding.md, "Merge semantics").
CACHE_FIELDS = ("cache_hit_rate", "cache_hits", "cache_misses")


def report_mismatches(reference: ServeReport, merged: ServeReport) -> List[str]:
    """Compared fields on which a merged report differs from one process.

    Wall-clock columns are excluded by ``ServeReport`` equality itself.
    The cache counters must cover the same lookups, and the shards may hit
    more often but never less (an LRU serving a subsequence of the stream
    sees every reuse at most as far back as the whole-stream LRU does).
    """
    bad = [f.name for f in dataclasses.fields(ServeReport)
           if f.compare and f.name not in CACHE_FIELDS
           and getattr(reference, f.name) != getattr(merged, f.name)]
    lookups = reference.cache_hits + reference.cache_misses
    if (merged.cache_hits + merged.cache_misses != lookups
            or merged.cache_hits < reference.cache_hits):
        bad.append("cache_hits")
    return bad


class _Deadline(Exception):
    pass


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`Failed` in the main thread after ``seconds``.

    ``ShardPool.serve`` blocks on its worker pipes without a timeout, so a
    stalled worker would hang the run; the alarm turns that into a failed
    operation.  Forked workers do not inherit the timer.
    """
    def expire(signum: int, frame: Any) -> None:
        raise _Deadline()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Deadline:
        raise Failed(f"no reply from the shard workers within {seconds:.0f} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def segment_leaked(name: str) -> bool:
    """True (and the segment removed) when a shared-memory image outlived
    its pool."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    segment.unlink()
    return True


class ShardZipf(ServeZipf):
    name = "shard_zipf"
    params = {**ServeZipf.params, "workers": 2, "start": "fork",
              "reply_timeout_s": 60.0}
    moves = {
        "graphs": ["call_s"],
        "tz": ["setup_s"],
        "serve": ["call_s", "setup_s"],
        "shard": ["call_s", "setup_s", "peak_rss_mb"],
    }
    cpus = 2
    qps_metric = "shard_qps"

    def prepare(self, state: Dict[str, Any]) -> ShardPool:
        p = self.params
        return ShardPool(state["compiled"], state["graph"],
                         workers=p["workers"], start=p["start"],
                         mode=p["mode"], cache_size=p["cache_size"],
                         seed=state["seed"])

    def call(self, state: Dict[str, Any], handle: ShardPool) -> ServeReport:
        with deadline(self.params["reply_timeout_s"]):
            try:
                merged, _ = handle.serve(state["pairs"], workload="zipf",
                                         seed=state["seed"])
            except ReproError as exc:
                raise Failed(f"shard pool failed: {exc}")
        return merged

    def release(self, state: Dict[str, Any], handle: ShardPool) -> List[str]:
        problems: List[str] = []
        handle.close()
        for proc in handle._procs:
            if proc.is_alive():
                problems.append(f"worker {proc.pid} outlived close()")
                proc.kill()
                proc.join(5.0)
        if handle.manifest and segment_leaked(handle.manifest["shm"]):
            problems.append("shared-memory image leaked")
        return problems

    def inspect(self, state: Dict[str, Any], handle: ShardPool,
                out: ServeReport) -> Dict[str, float]:
        return {"shard.image_bytes": handle.manifest["nbytes"],
                "shard.worker_route_s_max": max(
                    r.serve_s for r in handle.shard_reports)}

    def reference(self, state: Dict[str, Any]) -> ServeReport:
        """The in-process report on the same stream, computed once."""
        if "reference" not in state:
            state["reference"] = ServeZipf.call(
                self, state, ServeZipf.prepare(self, state))
        return state["reference"]

    def check(self, state: Dict[str, Any], out: ServeReport) -> Checked:
        bad = report_mismatches(self.reference(state), out)
        problems = ([f"merged report differs from one process on {bad}"]
                    if bad else [])
        checked = _check_served(state, out, problems)
        slices, _ = partition_pairs(state["pairs"], self.params["workers"])
        sssp = sum(len({u for u, _ in part}) for part in slices)
        checked.facts["shard.sssp_total"] = sssp
        checked.facts["shard.sssp_amplification"] = (
            sssp / len({u for u, _ in state["pairs"]}))
        return checked


WORKLOADS = {w.name: w for w in (Table1Build, Table2Build, ServeZipf,
                                  ShardZipf)}


def host_facts() -> Dict[str, Any]:
    """What makes two hosts' numbers comparable."""
    import os
    import platform

    from repro.shard import tables

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "shard_tables": "numpy" if tables.HAVE_NUMPY else "python",
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY", ""),
    }


def describe(workload: Workload) -> Dict[str, Any]:
    return {"workload": workload.name,
            "params": workload.params, "instances": workload.instances,
            "setup_reps": workload.setup_reps,
            "min_calls": workload.min_calls, "moves": workload.moves,
            "host": host_facts()}

