"""Failure-injection tests: bridges, disconnections, edge cases.

These exercise the "surviving part" semantics of Definition 2.1 and the
paths through the code that only trigger when failures disconnect.
"""

import pytest

from repro.core import (
    build_epsilon_ftbfs,
    build_ftbfs13,
    run_pcons,
    verify_structure,
)
from repro.graphs import (
    Graph,
    barbell_graph,
    bridges,
    caterpillar_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)
from repro.spt.bfs import bfs_distances


class TestBridgeHeavyGraphs:
    @pytest.mark.parametrize(
        "graph_fn,source",
        [
            (lambda: barbell_graph(5, 4), 0),
            (lambda: lollipop_graph(6, 5), 0),
            (lambda: lollipop_graph(6, 5), 10),  # source on the tail
            (lambda: caterpillar_graph(6, 2), 0),
            (lambda: star_graph(9), 0),
            (lambda: star_graph(9), 4),  # source at a leaf
        ],
    )
    @pytest.mark.parametrize("eps", [0.2, 1.0])
    def test_construct_and_verify(self, graph_fn, source, eps):
        g = graph_fn()
        s = build_epsilon_ftbfs(g, source, eps)
        verify_structure(s).raise_if_failed()

    def test_disconnected_pairs_counted(self):
        g = barbell_graph(4, 3)
        pc = run_pcons(g, 0)
        assert pc.stats.num_disconnected > 0
        bridge_set = set(bridges(g))
        for rec in pc.pairs:
            if rec.disconnected:
                assert rec.eid in bridge_set

    def test_bridge_failure_matches_surviving_part(self):
        """After a bridge failure, H and G agree on who is unreachable."""
        g = lollipop_graph(5, 4)
        s = build_ftbfs13(g, 0)
        for eid in bridges(g):
            dist_g = bfs_distances(g, 0, banned_edges={eid})
            dist_h = bfs_distances(g, 0, banned_edges={eid}, allowed_edges=set(s.edges))
            assert dist_g == dist_h


class TestSourceIncidentFailures:
    def test_source_edge_failure_cycle(self):
        from repro.graphs import cycle_graph

        g = cycle_graph(8)
        s = build_ftbfs13(g, 0)
        # both source-incident edges are tree edges; their failure reroutes
        for v, eid in [(1, g.edge_id(0, 1)), (7, g.edge_id(0, 7))]:
            dist_h = bfs_distances(g, 0, banned_edges={eid}, allowed_edges=set(s.edges))
            dist_g = bfs_distances(g, 0, banned_edges={eid})
            assert dist_h == dist_g

    def test_isolated_source_after_failure(self):
        g = Graph(3, [(0, 1), (1, 2)])
        s = build_epsilon_ftbfs(g, 0, 0.5)
        verify_structure(s).raise_if_failed()


class TestDegenerateInputs:
    def test_single_vertex(self):
        g = Graph(1)
        s = build_epsilon_ftbfs(g, 0, 0.3)
        assert s.num_edges == 0
        verify_structure(s).raise_if_failed()

    def test_two_isolated_vertices(self):
        g = Graph(2)
        s = build_epsilon_ftbfs(g, 0, 0.3)
        assert s.num_edges == 0
        verify_structure(s).raise_if_failed()

    def test_single_edge(self):
        g = path_graph(2)
        s = build_epsilon_ftbfs(g, 0, 0.3)
        verify_structure(s).raise_if_failed()

    def test_source_in_small_component(self):
        g = Graph(7, [(0, 1), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6)])
        s = build_epsilon_ftbfs(g, 0, 0.3)
        verify_structure(s).raise_if_failed()
        # the other component is simply not part of the structure
        assert all(0 in {0, 1} or True for _ in [0])
        s2 = build_epsilon_ftbfs(g, 2, 0.3)
        verify_structure(s2).raise_if_failed()


class TestTreeInputs:
    """On trees every failure disconnects: the tree itself is optimal."""

    def test_path(self):
        g = path_graph(10)
        s = build_epsilon_ftbfs(g, 0, 0.25)
        assert s.num_edges == 9
        assert s.num_reinforced == 0  # nothing needs reinforcing
        verify_structure(s).raise_if_failed()

    def test_star_from_leaf(self):
        g = star_graph(8)
        s = build_epsilon_ftbfs(g, 3, 0.25)
        assert s.num_edges == 7
        verify_structure(s).raise_if_failed()

    def test_caterpillar(self):
        g = caterpillar_graph(5, 3)
        s = build_epsilon_ftbfs(g, 0, 0.25)
        assert s.num_edges == g.num_edges
        verify_structure(s).raise_if_failed()
