"""Tests for plain BFS (the verification oracle's workhorse)."""

import networkx as nx
import pytest

from repro.graphs import Graph, cycle_graph, gnp_random_graph, path_graph, to_networkx
from repro.spt.bfs import UNREACHABLE, bfs_distances, bfs_tree


class TestBfsDistances:
    def test_path(self):
        assert bfs_distances(path_graph(4), 0) == [0, 1, 2, 3]

    def test_unreachable_marker(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, UNREACHABLE]

    def test_banned_edge(self):
        g = cycle_graph(5)
        d = bfs_distances(g, 0, banned_edges={g.edge_id(0, 1)})
        assert d[1] == 4

    def test_banned_edges(self):
        g = cycle_graph(5)
        d = bfs_distances(
            g, 0, banned_edges={g.edge_id(0, 1), g.edge_id(0, 4)}
        )
        assert d[1] == UNREACHABLE

    def test_allowed_edges_restricts(self):
        g = cycle_graph(4)
        keep = {g.edge_id(0, 1), g.edge_id(1, 2)}
        d = bfs_distances(g, 0, allowed_edges=keep)
        assert d == [0, 1, 2, UNREACHABLE]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx(self, seed):
        g = gnp_random_graph(35, 0.1, seed=seed)
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v in range(35):
            expect = theirs.get(v, UNREACHABLE)
            assert ours[v] == expect


class TestBfsTree:
    def test_parents_consistent(self):
        g = gnp_random_graph(20, 0.3, seed=2)
        parent = bfs_tree(g, 0)
        dist = bfs_distances(g, 0)
        for v, p in parent.items():
            if v == 0:
                assert p == 0
            else:
                assert dist[v] == dist[p] + 1
                assert g.has_edge(v, p)


class TestEngineKeyword:
    @pytest.mark.parametrize("engine", ["python", "csr"])
    def test_explicit_engine_pins_backend(self, engine):
        from repro.engine import available_engines

        if engine not in available_engines():
            pytest.skip(f"{engine} engine unavailable (no numpy)")
        g = gnp_random_graph(20, 0.25, seed=1)
        assert bfs_distances(g, 0, engine=engine) == bfs_distances(g, 0)
        assert bfs_tree(g, 0, engine=engine) == bfs_tree(g, 0)
