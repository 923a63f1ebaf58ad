"""Tests for the single-source distance sensitivity oracle."""

import networkx as nx
import pytest

from repro.engine import get_engine
from repro.errors import GraphError
from repro.graphs import (
    Graph,
    barbell_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    to_networkx,
    watts_strogatz_graph,
)
from repro.spt import DistanceSensitivityOracle


@pytest.fixture(scope="module")
def oracle_and_graph():
    g = connected_gnp_graph(35, 0.12, seed=4)
    return DistanceSensitivityOracle(g, 0), g


class TestDistanceQueries:
    def test_no_failure_matches_bfs(self, oracle_and_graph):
        dso, g = oracle_and_graph
        lengths = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v in g.vertices():
            assert dso.distance(v) == lengths.get(v)
            assert dso.base_distance(v) == lengths.get(v)

    def test_all_failures_match_networkx(self, oracle_and_graph):
        dso, g = oracle_and_graph
        nx_g = to_networkx(g)
        for eid, u, v in g.edges():
            sub = nx_g.copy()
            sub.remove_edge(u, v)
            lengths = nx.single_source_shortest_path_length(sub, 0)
            for t in range(0, g.num_vertices, 3):
                assert dso.distance(t, eid) == lengths.get(t), (eid, t)

    def test_non_tree_edge_failure_is_free(self, oracle_and_graph):
        dso, g = oracle_and_graph
        non_tree = [
            eid for eid, _, _ in g.edges() if not dso.tree.is_tree_edge(eid)
        ]
        assert non_tree
        for v in range(5):
            assert dso.distance(v, non_tree[0]) == dso.base_distance(v)

    def test_bad_edge_id(self, oracle_and_graph):
        dso, g = oracle_and_graph
        with pytest.raises(GraphError):
            dso.distance(0, g.num_edges + 5)

    def test_query_counter(self):
        g = cycle_graph(6)
        dso = DistanceSensitivityOracle(g, 0)
        dso.distance(3)
        dso.distance(3, 0)
        assert dso.queries_served == 2


class TestReplacementPaths:
    def test_paths_are_valid_and_shortest(self, oracle_and_graph):
        dso, g = oracle_and_graph
        for eid, u, v in list(g.edges())[:40]:
            for t in range(0, g.num_vertices, 4):
                d = dso.distance(t, eid)
                path = dso.replacement_path(t, eid)
                if d is None:
                    assert path is None
                    continue
                assert path[0] == 0 and path[-1] == t
                assert len(path) - 1 == d
                for a, b in zip(path, path[1:]):
                    assert g.has_edge(a, b)
                    assert {a, b} != {u, v}, "path uses the failed edge"
                assert len(set(path)) == len(path), "path not simple"

    def test_unaffected_target_gets_tree_path(self, oracle_and_graph):
        dso, g = oracle_and_graph
        tree = dso.tree
        eid = tree.tree_edges()[0]
        child = tree.edge_child(eid)
        for v in g.vertices():
            if tree.is_reachable(v) and not tree.in_subtree(child, v):
                assert dso.replacement_path(v, eid) == tree.path_vertices(v)
                break

    def test_disconnecting_failure_returns_none(self):
        g = path_graph(5)
        dso = DistanceSensitivityOracle(g, 0)
        assert dso.replacement_path(4, g.edge_id(1, 2)) is None

    def test_unreachable_vertex_raises(self):
        g = Graph(3, [(0, 1)])
        dso = DistanceSensitivityOracle(g, 0)
        with pytest.raises(GraphError):
            dso.replacement_path(2, 0)


class TestPrecompute:
    def test_precompute_then_query(self):
        """Construction is the preprocessing: every tree-edge failure
        has its replacement row, so each query reads it and none falls
        back to a traversal."""
        g = grid_graph(4, 4)
        dso = DistanceSensitivityOracle(g, 0)
        tree_edges = dso.tree.tree_edges()
        for eid in tree_edges:
            assert dso.distance(15, eid) is not None
        stats = dso._oracle.stats
        assert stats.row_answers == len(tree_edges)
        assert stats.fallback_traversals == 0


_QUERIES = {
    "distance": lambda dso, v: dso.distance(v),
    "distance_failed": lambda dso, v: dso.distance(v, 0),
    "base_distance": lambda dso, v: dso.base_distance(v),
    "replacement_path": lambda dso, v: dso.replacement_path(v, 0),
}


@pytest.mark.parametrize("query", sorted(_QUERIES))
@pytest.mark.parametrize("v", [-1, -35, 35, 10**6])
def test_out_of_range_vertex_raises(oracle_and_graph, query, v):
    """Negative ids must not index from the end (-1 would answer as
    vertex 34), and ids past n raise the typed error, not IndexError."""
    dso, g = oracle_and_graph
    assert g.num_vertices == 35
    with pytest.raises(GraphError, match="out of range"):
        _QUERIES[query](dso, v)


def _isolated_and_pendant():
    # Triangle 0-1-2, bridge 2-3 into triangle 3-4-5, pendant bridge 5-6;
    # vertex 7 is isolated.
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)]
    return Graph(8, edges)


@pytest.mark.parametrize(
    "graph",
    [
        gnp_random_graph(40, 0.12, seed=1),
        grid_graph(5, 6),
        watts_strogatz_graph(40, 4, 0.2, seed=2),
        barbell_graph(6, 3),
        _isolated_and_pendant(),
    ],
    ids=["gnp", "grid", "watts_strogatz", "barbell", "isolated_pendant"],
)
def test_random_scheme_matches_banned_edge_traversal(graph):
    """Under random weights the rows come from the engine's array
    sweep (the exact scheme only ever runs the reference): every
    (edge, vertex) answer equals the python engine's banned-edge run."""
    dso = DistanceSensitivityOracle(graph, 0, weight_scheme="random")
    weights, source = dso.weights, dso.source
    python = get_engine("python")
    for eid in range(graph.num_edges):
        sp = python.shortest_paths(graph, weights, source, banned_edge=eid)
        for v in graph.vertices():
            d = sp.dist[v]
            assert dso.distance(v, eid) == (
                None if d is None else weights.hops(d)
            ), (eid, v)
            if not dso.tree.is_reachable(v):
                with pytest.raises(GraphError):
                    dso.replacement_path(v, eid)
                continue
            if d is None:
                assert dso.replacement_path(v, eid) is None, (eid, v)
                continue
            chain = [v]
            while chain[-1] != source:
                chain.append(sp.parent[chain[-1]])
            assert dso.replacement_path(v, eid) == chain[::-1], (eid, v)
