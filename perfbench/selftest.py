"""Quick self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and fails unless

* ``BENCHMARK.json`` has the expected keys, names, units and bounds;
* every catalogued metric is printed with its unit, end-to-end values are
  positive, and each per-layer metric is exercised by some workload;
* the traced call's layer self times plus ``other_s`` add up to its wall
  time, and the timing wrappers are gone after the traced pass;
* each correctness check fires on a deliberately corrupted output, a leaked
  shared-memory image is found, and a stalled reply hits the deadline.
"""

from __future__ import annotations

import copy
import dataclasses
import re
import sys
import time
from multiprocessing import shared_memory
from typing import Any, Dict, List

import run

TOY: Dict[str, Dict[str, Any]] = {
    "table1_build": {"n": 60},
    "table2_build": {"n": 200, "check_pairs": 20},
    "serve_zipf": {"n": 60, "queries": 500},
    "shard_zipf": {"n": 60, "queries": 500},
}
SEED = 3
#: per-layer metrics that read 0 on every correct toy run
ZERO_WHEN_CORRECT = {"serve.failures"}

#: the headline figures of a build or a serve run; wall time and failures
#: are the end-to-end ``call_s`` and ``ok_share`` on every workload
HEADLINE = ("setup_s", "call_s", "ok_share", "peak_rss_mb", "serve_qps",
            "shard_qps", "query_p50_us", "query_p99_us", "rounds", "messages",
            "max_memory_words", "table_words", "label_words", "stretch_max",
            "slo_fraction")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def check_spec(spec: Dict[str, Any]) -> None:
    from workloads import WORKLOADS

    require(set(spec) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    require(list(TOY) == list(WORKLOADS), "a workload has no toy size")
    names: List[str] = []
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200
                and "\n" not in w["why"], f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        require(set(m) == {"name", "unit", "better", "bound"}
                and 0 < m["bound"] <= 0.25, f"end-to-end entry {m}")
    for m in spec["per_layer"]:
        require(set(m) == {"name", "unit", "better"}, f"per-layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        require(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"]))
                and m["better"] in ("lower", "higher"), f"metric {m}")
        names.append(m["name"])
    require(len(names) == len(set(names)), "a name is used twice")
    missing = set(HEADLINE) - set(names)
    require(not missing, f"headline figures missing: {sorted(missing)}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(bool(setup) and setup[0]["unit"] == "s"
            and setup[0]["better"] == "lower"
            and setup[0]["bound"] == max(m["bound"]
                                         for m in spec["end_to_end"]),
            "setup_s must be in seconds, lower-better, with the largest bound")


def check_runs(spec: Dict[str, Any]) -> None:
    import layers
    from workloads import WORKLOADS

    exercised = set()
    for name, toy in TOY.items():
        for trace in (False, True):
            result = run.run(name, SEED, 0.05, trace, spec, **toy)
            require(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1, f"{name} trace={trace} failed")
            catalog = spec["per_layer" if trace else "end_to_end"]
            require(list(result["metrics"]) == [m["name"] for m in catalog],
                    f"{name} trace={trace} does not print every metric")
            for m in catalog:
                got = result["metrics"][m["name"]]
                require(got["unit"] == m["unit"], f"unit of {m['name']}")
                if got["value"]:
                    exercised.add(m["name"])
                elif not trace:
                    require(False, f"{name}: {m['name']} reads 0")
        require(layers.unwrapped(), "timing wrappers left installed")

        wl = WORKLOADS[name](**toy)
        rec = run.traced(wl, SEED)
        parts = sum(v for k, v in rec.traced.items() if k.endswith(".self_s"))
        require(abs(parts + rec.traced["other_s"] - rec.traced["call_s"]) < 1e-6,
                f"{name}: layer self times and other_s do not add up")
    unused = {m["name"] for m in spec["per_layer"]} - exercised
    require(unused <= ZERO_WHEN_CORRECT, f"never exercised: {sorted(unused)}")


def check_corruption() -> None:
    from workloads import (Failed, ServeZipf, ShardZipf, Table1Build,
                           Table2Build, deadline, report_mismatches,
                           segment_leaked)

    wl1 = Table1Build(**TOY["table1_build"])
    state = wl1.setup(SEED)
    report = wl1.call(state, None)
    labels = report.scheme.labels
    first, last = min(labels), max(labels)
    labels[first], labels[last] = labels[last], labels[first]
    require(wl1.check(state, report).failed == 1, "table1 check missed a "
            "scheme with two labels swapped")

    wl2 = Table2Build(**TOY["table2_build"])
    state = wl2.setup(SEED)
    net, build = wl2.call(state, None)
    tables = build.scheme.tables
    a, b = sorted(tables, key=lambda v: tables[v].enter)[1:3]
    tables[a], tables[b] = (dataclasses.replace(tables[a], enter=tables[b].enter),
                            dataclasses.replace(tables[b], enter=tables[a].enter))
    require(wl2.check(state, (net, build)).failed == 1,
            "table2 check missed two swapped DFS entry times")

    wl3 = ServeZipf(**TOY["serve_zipf"])
    state = wl3.setup(SEED)
    served = wl3.call(state, wl3.prepare(state))
    require(wl3.check(state, served).failed == 0, "clean serve report failed")
    bad = copy.copy(served)
    bad.failures, bad.slo_within = 1, served.queries - 1
    checked = wl3.check(state, bad)
    require(checked.failed == 1 and checked.problems,
            "serve check missed an undelivered query")

    wl4 = ShardZipf(**TOY["shard_zipf"])
    require(not report_mismatches(served, copy.copy(served)), "self-mismatch")
    for field, value in (("hops_p50", served.hops_p50 + 1),
                         ("slo_within", (served.slo_within or 0) - 1),
                         ("cache_hits", served.cache_hits - 1)):
        bad = dataclasses.replace(served, **{field: value})
        require(bool(report_mismatches(served, bad)),
                f"shard check missed a merged report with {field} changed")
        require(wl4.check(dict(state, reference=served), bad).failed
                == len(state["pairs"]), f"{field} mismatch not counted")

    segment = shared_memory.SharedMemory(create=True, size=8)
    segment.close()
    require(segment_leaked(segment.name), "leaked segment not found")
    require(not segment_leaked(segment.name), "segment_leaked did not clean up")

    started = time.perf_counter()
    try:
        with deadline(0.1):
            time.sleep(5)
        require(False, "deadline did not fire")
    except Failed:
        require(time.perf_counter() - started < 2, "deadline fired late")


def main() -> int:
    spec = run.load_spec()
    run.import_program()
    check_spec(spec)
    check_corruption()
    check_runs(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
