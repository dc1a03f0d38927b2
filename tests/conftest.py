"""Shared fixtures: deterministic small/medium workloads.

Fixtures are function-scoped by default but the expensive builds are cached
module-wide via ``pytest`` caching-by-fixture-scope where safe (the schemes
are immutable once built).
"""

from __future__ import annotations

import pytest

from repro.congest import ENGINES, Network
from repro.graphs import (
    grid_graph,
    random_connected_graph,
    ring_of_cliques,
    spanning_tree_of,
)

SEED = 1234


@pytest.fixture(scope="session")
def small_graph():
    """60 vertices, connected, weighted; fast enough for every test."""
    return random_connected_graph(60, seed=SEED)


@pytest.fixture(scope="session")
def medium_graph():
    """250 vertices for the heavier integration tests."""
    return random_connected_graph(250, seed=SEED + 1)


@pytest.fixture(scope="session")
def grid():
    return grid_graph(10, 10, seed=SEED)


@pytest.fixture(scope="session")
def cliquey():
    return ring_of_cliques(6, 8, seed=SEED)


@pytest.fixture(params=["reference", "fastpath"])
def engine(request):
    """Round-engine class, parametrized over both engines.

    Tests taking this fixture run twice — against the frozen reference
    oracle and the fast path — so every behavioral assertion in the
    congest suite holds on both.
    """
    return ENGINES[request.param]


@pytest.fixture()
def small_net(small_graph):
    return Network(small_graph)


@pytest.fixture()
def medium_net(medium_graph):
    return Network(medium_graph)


@pytest.fixture(scope="session")
def deep_tree(small_graph):
    """A DFS spanning tree: deep relative to the network's hop-diameter."""
    return spanning_tree_of(small_graph, style="dfs", seed=SEED)


@pytest.fixture(scope="session")
def spt_tree(small_graph):
    return spanning_tree_of(small_graph, style="shortest-path", seed=SEED)


@pytest.fixture(scope="session")
def medium_deep_tree(medium_graph):
    return spanning_tree_of(medium_graph, style="dfs", seed=SEED)


def weight_fn(graph):
    return lambda u, v: graph[u][v]["weight"]
