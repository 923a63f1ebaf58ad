"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from typing import Tuple

import pytest
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    connected_gnp_graph,
    gnp_random_graph,
    random_connected_graph,
)

# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def small_graph() -> Graph:
    """A hand-checkable 6-vertex graph with a cycle and a pendant."""
    #    0 - 1 - 2
    #    |   |   |
    #    3 - 4 - 5     plus pendant nothing; 0-3,1-4,2-5,3-4,4-5
    return Graph(6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5)])


@pytest.fixture
def diamond() -> Graph:
    """The 4-cycle with a chord: classic two-shortest-paths instance."""
    return Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])


@pytest.fixture
def medium_random() -> Graph:
    return connected_gnp_graph(40, 0.15, seed=11)


@pytest.fixture(params=[0, 1, 2])
def seeded_random_graph(request) -> Graph:
    return random_connected_graph(30, 20, seed=request.param)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def random_connected_instance(seed: int, n_min: int = 6, n_max: int = 36) -> Tuple[Graph, int]:
    """A deterministic random connected (graph, source) pair."""
    rng = random.Random(seed)
    n = rng.randrange(n_min, n_max)
    extra = rng.randrange(0, 2 * n)
    g = random_connected_graph(n, extra, seed=seed)
    return g, rng.randrange(n)


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def graph_strategy(
    draw, min_vertices: int = 2, max_vertices: int = 16, connected: bool = True
):
    """Random small graphs for property tests (connected by default)."""
    n = draw(st.integers(min_vertices, max_vertices))
    seed = draw(st.integers(0, 2**32 - 1))
    if connected:
        extra = draw(st.integers(0, 2 * n))
        return random_connected_graph(n, extra, seed=seed)
    p = draw(st.floats(0.0, 0.6))
    return gnp_random_graph(n, p, seed=seed)


@st.composite
def graph_with_source(draw, **kwargs):
    """(graph, source) pairs for property tests."""
    g = draw(graph_strategy(**kwargs))
    source = draw(st.integers(0, g.num_vertices - 1))
    return g, source
