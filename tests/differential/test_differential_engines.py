"""Randomized replay: the fast-path engine vs the reference.

Every case builds one graph, runs one workload on both engines, and
asserts the full observable fingerprint matches the reference oracle —
metrics (with phases), per-directed-edge message totals, charge events,
per-vertex memory high-waters, and the round-trace timeline.

The full matrix is |TOPOLOGIES| x |PROTOCOLS| x |SEEDS| = 7 x 4 x 9 = 252
replays (>= the 200 the acceptance bar asks for), each certifying the
candidate engine; ``REPRO_DIFF_QUICK=1`` shrinks the seed axis for CI
smoke runs.
"""

from __future__ import annotations

import pytest

from repro.congest import ENGINES, ReferenceNetwork

from .harness import (
    PROTOCOLS,
    QUICK,
    TOPOLOGIES,
    build_topology,
    run_fingerprint,
)

SEEDS = range(2) if QUICK else range(9)

#: The engines certified against the reference oracle.
CANDIDATES = ("fastpath",)

CASES = [
    pytest.param(topo, proto, seed, id=f"{topo}-{proto}-s{seed}")
    for topo in TOPOLOGIES
    for proto in PROTOCOLS
    for seed in SEEDS
]


@pytest.mark.parametrize("topo,proto,seed", CASES)
def test_engines_agree(topo, proto, seed):
    graph = build_topology(topo, seed)
    workload = PROTOCOLS[proto]
    ref = run_fingerprint(
        ReferenceNetwork, graph, workload, seed, edge_capacity=1, seed=seed
    )
    for name in CANDIDATES:
        # Fresh graph objects per engine: engines must not depend on (or
        # mutate) shared graph state.
        candidate = run_fingerprint(
            ENGINES[name], build_topology(topo, seed), workload, seed,
            edge_capacity=1, seed=seed,
        )
        for key in ref:
            assert candidate[key] == ref[key], (
                f"{name} disagrees with reference on {key!r}"
            )


def test_case_matrix_is_large_enough():
    """The acceptance bar: >= 200 replays, >= 5 topologies, >= 3 protocols,
    certifying the fast path against the reference."""
    if QUICK:
        pytest.skip("quick mode runs a reduced matrix")
    assert len(TOPOLOGIES) >= 5
    assert len(PROTOCOLS) >= 3
    assert len(CASES) >= 200
    assert len(CANDIDATES) == 1
