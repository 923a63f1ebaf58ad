"""Tests for the replacement-distance engine (dist(s, v, G \\ e)).

Under the random scheme the rows come from the default engine's array
sweep (the C kernel when one is built), under the exact scheme from the
reference per-edge recompute; both are read back through
``dist_after_failure``.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, TieBreakError
from repro.graphs import (
    Graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    to_networkx,
)
from repro.spt.replacement import ReplacementEngine
from repro.spt.spt_tree import build_spt
from repro.spt.weights import EXACT, RANDOM, make_weights

from tests.conftest import graph_with_source


def make_engine(graph, source=0, scheme=EXACT):
    """``(tree, engine)``; random weights reseed on a tie (the exact
    scheme cannot tie)."""
    for seed in range(4):
        try:
            tree = build_spt(graph, make_weights(graph, scheme, seed), source)
            return tree, ReplacementEngine(tree)
        except TieBreakError:
            if scheme == EXACT or seed == 3:
                raise


class TestBasics:
    def test_cycle_reroute(self):
        g = cycle_graph(6)
        tree, engine = make_engine(g)
        eid = tree.parent_eid[1] if tree.depth[1] == 1 else None
        # the tree edge to vertex 1 is (0,1); failure forces the long way
        eid = g.edge_id(0, 1)
        assert tree.weights.hops(engine.dist_after_failure(eid, 1)) == 5

    def test_path_disconnects(self):
        g = path_graph(5)
        tree, engine = make_engine(g)
        eid = g.edge_id(1, 2)
        assert engine.dist_after_failure(eid, 2) is None
        assert engine.dist_after_failure(eid, 4) is None

    def test_outside_subtree_unchanged(self):
        g = grid_graph(3, 3)
        tree, engine = make_engine(g)
        for eid in tree.tree_edges():
            child = tree.edge_child(eid)
            for v in g.vertices():
                if not tree.in_subtree(child, v):
                    assert engine.dist_after_failure(eid, v) == tree.dist[v]

    def test_rows_complete_at_construction(self, monkeypatch):
        """The constructor sweeps every tree edge: with the traversal
        engine gone afterwards, every row still answers and exports."""
        g = grid_graph(3, 3)
        tree, engine = make_engine(g)

        def no_engine(*args, **kwargs):
            raise AssertionError("traversal after construction")

        monkeypatch.setattr("repro.spt.replacement.get_engine", no_engine)
        for eid in tree.tree_edges():
            child = tree.edge_child(eid)
            assert engine.dist_after_failure(eid, child) > tree.dist[child]
        assert engine.export_arrays()["repl_eids"] == tree.tree_edges()

    def test_non_tree_edge_ids_raise(self):
        """-1 (the source's ``parent_eid`` sentinel) raises like any other
        non-tree id; read as the last edge it would report every vertex,
        the source included, as disconnected."""
        g = Graph(4, [(1, 2), (2, 3), (3, 0), (0, 1)])
        tree, engine = make_engine(g)
        non_tree = next(
            eid for eid in range(g.num_edges) if not tree.is_tree_edge(eid)
        )
        for eid in (-1, non_tree, g.num_edges):
            for v in g.vertices():
                with pytest.raises(GraphError):
                    engine.dist_after_failure(eid, v)


class TestAgainstNetworkx:
    @pytest.mark.parametrize(
        "scheme, seed",
        [pytest.param(EXACT, seed, id=str(seed)) for seed in range(8)]
        + [pytest.param(RANDOM, seed, id=f"random-{seed}") for seed in range(8)],
    )
    def test_all_failures_all_vertices(self, scheme, seed):
        g = gnp_random_graph(22, 0.18, seed=seed)
        tree, engine = make_engine(g, scheme=scheme)
        nx_g = to_networkx(g)
        w = tree.weights
        for eid in tree.tree_edges():
            u, v = g.endpoints(eid)
            nx_sub = nx_g.copy()
            nx_sub.remove_edge(u, v)
            theirs = nx.single_source_shortest_path_length(nx_sub, 0)
            for vertex in g.vertices():
                d = engine.dist_after_failure(eid, vertex)
                ours = None if d is None else w.hops(d)
                assert ours == theirs.get(vertex), (eid, vertex)


class TestWeightedConsistency:
    def test_replacement_at_least_original(self):
        g = gnp_random_graph(25, 0.2, seed=3)
        tree, engine = make_engine(g)
        for eid in tree.tree_edges():
            child = tree.edge_child(eid)
            for v in tree.subtree_vertices(child):
                d = engine.dist_after_failure(eid, v)
                if d is not None:
                    assert d >= tree.dist[v]

    def test_child_distance_increases(self):
        """The failed edge is the child's parent edge: distance must grow
        strictly in weighted terms (the old unique path is gone)."""
        g = gnp_random_graph(25, 0.25, seed=5)
        tree, engine = make_engine(g)
        for eid in tree.tree_edges():
            child = tree.edge_child(eid)
            d = engine.dist_after_failure(eid, child)
            if d is not None:
                assert d > tree.dist[child]


@settings(max_examples=15, deadline=None)
@given(graph_with_source(max_vertices=14), st.sampled_from([EXACT, RANDOM]))
def test_replacement_matches_full_dijkstra(pair, scheme):
    """Subtree-restricted recompute equals a from-scratch banned-edge run."""
    from repro.engine import get_engine

    dijkstra = get_engine("python").shortest_paths

    g, source = pair
    tree, engine = make_engine(g, source, scheme)
    for eid in tree.tree_edges():
        full = dijkstra(g, tree.weights, source, banned_edge=eid)
        for v in g.vertices():
            if not tree.is_reachable(v):
                continue
            assert engine.dist_after_failure(eid, v) == full.dist[v]
