"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1_build --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed
or built.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, measured on unwrapped code.  With ``--trace 1`` the run
measures the same way, then repeats one instance with the per-layer timing
wrappers of ``layers.py`` installed and reports the ``per_layer`` metrics;
``trace_overhead`` is the traced call's wall time minus the untraced one's.
Per-layer metrics a workload does not exercise read 0.

Each run sets up several times (``setup_s`` is the median) and repeats the
measured call until ``--seconds`` of call time have passed, at least twice
(``call_s`` is the median).  Build workloads spread their calls over three
instances seeded from ``--seed``, so a run's median spans several graphs
instead of one.  Every timed step is bracketed by a fixed reference
workload and scaled to a nominal host speed (``calibrate.py``); the raw
median wall time and the host speed are per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import calibrate

ROOT = Path(__file__).resolve().parent.parent

clock = time.perf_counter


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))


class Record:
    """Everything one pass over a workload measured."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        self.prepare: List[float] = []
        self.calls: List[float] = []
        #: host speed around each setup, prepare and call sample: the
        #: reference workload's nominal time over its mean time just before
        #: and just after the step (see calibrate.py)
        self.setup_speed: List[float] = []
        self.prepare_speed: List[float] = []
        self.call_speed: List[float] = []
        #: scaled call times on instance 0, the instance the traced pass
        #: repeats
        self.first_instance_calls: List[float] = []
        self.facts: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.traced: Dict[str, float] = {}

    def fail(self, wl: Any, problems: List[str]) -> bool:
        """Count every operation of one call as failed."""
        self.attempted += wl.ops()
        self.failed += wl.ops()
        self.problems.extend(problems)
        return False


def timed_call(wl: Any, state: Dict[str, Any], rec: Record,
               tracer: Any = None) -> Tuple[Any, List[str]]:
    """Prepare, call and release once: the call's output (None when it
    failed) and the problems that fail the whole call."""
    from workloads import Failed

    from repro.errors import ReproError

    t0 = clock()
    try:
        handle = wl.prepare(state)
    except (ReproError, OSError) as exc:
        return None, [f"prepare failed: {exc}"]
    rec.prepare.append(clock() - t0)
    fatal: List[str] = []
    out = None
    try:
        if tracer is not None:
            covered = tracer.covered
            self_before = dict(tracer.self_s)
        t0 = clock()
        try:
            out = wl.call(state, handle)
        except (Failed, ReproError) as exc:
            fatal.append(str(exc))
        wall = clock() - t0
        rec.calls.append(wall)
        if tracer is not None:
            rec.traced["call_s"] = wall
            rec.traced["other_s"] = wall - (tracer.covered - covered)
            for layer, own in tracer.self_s.items():
                rec.traced[f"{layer}.self_s"] = own - self_before[layer]
            if out is not None:
                rec.traced.update(wl.inspect(state, handle, out))
    finally:
        # a leaked image or a stray worker fails the call too
        fatal.extend(wl.release(state, handle))
    return out, fatal


def account(wl: Any, state: Dict[str, Any], rec: Record, out: Any,
            fatal: List[str]) -> bool:
    """Check a call's output and count its operations; False on failure.

    A call with ``fatal`` problems fails all of its operations; otherwise
    the check says how many failed.
    """
    if out is None:
        return rec.fail(wl, fatal)
    checked = wl.check(state, out)
    rec.facts.append(checked.facts)
    if fatal:
        return rec.fail(wl, fatal + checked.problems)
    rec.attempted += checked.attempted
    rec.failed += checked.failed
    rec.problems.extend(checked.problems)
    return not checked.problems


def measure(wl: Any, seed: int, seconds: float) -> Record:
    """Untraced pass over the run's instances, one after the other.

    Each instance is set up ``wl.setup_reps`` times (every setup is a
    ``setup_s`` sample; the last one is kept) and then called until its
    share of ``seconds`` is spent, at least once; the run makes at least
    ``wl.min_calls`` calls.  Garbage from the previous step is collected
    before each timed step, so no step pays for another's.
    """
    import layers
    from workloads import instance_seed

    if not layers.unwrapped():
        raise RuntimeError("untraced pass found timing wrappers installed")
    rec = Record()
    for i in range(wl.instances):
        state: Optional[Dict[str, Any]] = None
        for _ in range(wl.setup_reps):
            state = None
            gc.collect()
            before = calibrate.reference()
            t0 = clock()
            state = wl.setup(instance_seed(seed, i))
            rec.setup.append(clock() - t0)
            rec.setup_speed.append(calibrate.speed(before))
        share = seconds * (i + 1) / wl.instances
        last = i == wl.instances - 1
        made = 0
        while (not made or sum(rec.calls) < share
               or (last and len(rec.calls) < wl.min_calls)):
            gc.collect()
            before = calibrate.reference(wl.cpus)
            prepared, timed = len(rec.prepare), len(rec.calls)
            out, fatal = timed_call(wl, state, rec)
            speed = calibrate.speed(before, wl.cpus)
            rec.prepare_speed += [speed] * (len(rec.prepare) - prepared)
            rec.call_speed += [speed] * (len(rec.calls) - timed)
            made += 1
            if i == 0 and len(rec.calls) > timed:
                rec.first_instance_calls.append(
                    calibrate.scale(rec.calls[-1], speed))
            ok = account(wl, state, rec, out, fatal)
            out = None  # not alive during the next call
            if not ok:
                break
        if rec.problems:
            break
    if not layers.unwrapped():
        raise RuntimeError("timing wrappers appeared during the untraced pass")
    return rec


def traced(wl: Any, seed: int) -> Record:
    """One setup, prepare and call of instance 0 under the wrappers."""
    import layers
    from workloads import instance_seed

    rec = Record()
    tracer = layers.Tracer()
    try:
        with tracer:
            gc.collect()
            t0 = clock()
            state = wl.setup(instance_seed(seed, 0))
            rec.setup.append(clock() - t0)
            gc.collect()
            before = calibrate.reference(wl.cpus)
            out, fatal = timed_call(wl, state, rec, tracer)
            rec.call_speed.append(calibrate.speed(before, wl.cpus))
    finally:
        if not layers.unwrapped():
            raise RuntimeError("timing wrappers were not restored")
    account(wl, state, rec, out, fatal)  # outside the wrappers
    for metric, seconds in tracer.incl.items():
        rec.traced[f"{metric}_s"] = seconds
        rec.traced[f"{metric}_calls"] = tracer.calls[metric]
    rec.traced["congest.ticks"] = rec.traced.pop("congest.deliver_calls")
    rec.traced["treerouting.trees"] = rec.traced.pop("treerouting.tree_calls")
    # wrapped only so their own code counts as the layer's self time; their
    # wall time is the traced call itself
    for name in ("treerouting.tree_s", "serve.pairs_s", "serve.pairs_calls",
                 "shard.pool_s", "shard.pool_calls"):
        del rec.traced[name]
    prepare = rec.prepare[0] if rec.prepare else 0.0
    if "shard.image_bytes" in rec.traced:
        rec.traced["shard.start_s"] = prepare - tracer.incl["shard.seal"]
        rec.traced["shard.wait_s"] = (
            rec.traced["call_s"] - tracer.incl["shard.partition"]
            - tracer.incl["shard.merge"])
    if "serve.route_s" in rec.traced:
        rec.traced["serve.report_s"] = (
            rec.traced["call_s"] - rec.traced["serve.route_s"]
            - tracer.incl["graphs.dijkstra"])
    return rec


def median_fact(rec: Record, name: str) -> Optional[float]:
    values = [f[name] for f in rec.facts if name in f]
    return statistics.median(values) if values else None


def scaled_median(times: List[float], speeds: List[float]) -> float:
    """Median of ``times`` scaled to the nominal host speed."""
    return statistics.median(calibrate.scale(t, k)
                             for t, k in zip(times, speeds))


def end_to_end(rec: Record) -> Dict[str, float]:
    setup = scaled_median(rec.setup, rec.setup_speed)
    if rec.prepare:
        setup += scaled_median(rec.prepare, rec.prepare_speed)
    return {
        "setup_s": setup,
        "call_s": scaled_median(rec.calls, rec.call_speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - rec.failed / rec.attempted,
    }


def per_layer(wl: Any, untraced: Record, tr: Record) -> Dict[str, float]:
    values: Dict[str, float] = {}
    if tr.facts:
        values.update(tr.facts[0])
    for name in ("query_p50_us", "query_p99_us"):
        value = median_fact(untraced, name)
        if value is not None:
            values[name] = value
    values.update({k: v for k, v in tr.traced.items() if k != "call_s"})
    call = statistics.median(untraced.calls)
    if wl.qps_metric:
        values[wl.qps_metric] = wl.ops() / call
    values["host_speed"] = statistics.median(untraced.call_speed)
    values["call_wall_s"] = call
    if untraced.first_instance_calls and tr.calls:
        values["trace_overhead"] = (
            scaled_median(tr.calls, tr.call_speed)
            - statistics.median(untraced.first_instance_calls))
    return values


def stop_resource_tracker() -> None:
    """Wait for the shared-memory resource tracker a ``ShardPool`` started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run(name: str, seed: int, seconds: float, trace: bool,
        spec: Dict[str, Any], **overrides: Any) -> Dict[str, Any]:
    """Measure one workload; return the result object the CLI prints."""
    from workloads import WORKLOADS, describe

    wl = WORKLOADS[name](**overrides)
    print(json.dumps({"describe": describe(wl)}, sort_keys=True), flush=True)
    try:
        untraced = measure(wl, seed, seconds)
        tr = traced(wl, seed) if trace else None
    finally:
        stop_resource_tracker()
    print(json.dumps({"samples": {"setup_s": untraced.setup,
                                  "prepare_s": untraced.prepare,
                                  "call_s": untraced.calls,
                                  "setup_speed": untraced.setup_speed,
                                  "prepare_speed": untraced.prepare_speed,
                                  "call_speed": untraced.call_speed}}),
          flush=True)
    measured = (per_layer(wl, untraced, tr) if tr is not None
                else end_to_end(untraced))
    catalog = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in catalog}
    stray = sorted(set(measured) - known)
    if stray:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {stray}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in catalog}
    problems = untraced.problems + (tr.problems if tr is not None else [])
    attempted = untraced.attempted + (tr.attempted if tr is not None else 0)
    failed = untraced.failed + (tr.failed if tr is not None else 0)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spec)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
