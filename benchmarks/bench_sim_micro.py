"""Engine microbenchmark entry (see ``sim_micro.py`` for the workloads).

Differentially certified timing: both engines replay identical kernels on
the fig7 graph family; deterministic outputs must match exactly and the
fast path must clear :data:`sim_micro.FIG7_MIN_SPEEDUP`.
"""

from _util import emit, once
from sim_micro import FIG7_MIN_SPEEDUP, render, run_sim_micro


def bench_sim_micro(benchmark):
    records, meta = once(benchmark, run_sim_micro)
    emit("sim_micro", render(records), data=records, meta=meta)
    assert meta["engines_equal"]
    assert meta["fig7_flood_speedup_wall"] >= FIG7_MIN_SPEEDUP, (
        f"fast engine regressed: fig7_flood only "
        f"{meta['fig7_flood_speedup_wall']}x faster than the reference"
    )
