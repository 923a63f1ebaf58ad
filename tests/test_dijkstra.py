"""Tests for the composite-weight Dijkstra, cross-validated with networkx.

The reference implementation is exercised through the python engine's
dispatch point (the engine layer is the only importer of
:mod:`repro.spt.dijkstra`); every registered backend must match it
bit for bit (``test_weighted_parity.py``).
"""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.engine import get_engine
from repro.errors import GraphError, TieBreakError
from repro.graphs import (
    Graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    to_networkx,
)
from repro.spt.weights import EXACT, RANDOM, WeightAssignment, make_weights

from tests.conftest import graph_with_source

_PY = get_engine("python")


def dijkstra(graph, weights, source, **kwargs):
    return _PY.shortest_paths(graph, weights, source, **kwargs)


def seeded_dijkstra(graph, weights, seeds, **kwargs):
    return _PY.seeded_shortest_paths(graph, weights, seeds, **kwargs)


def hop_dists(graph, source, **kwargs):
    w = make_weights(graph, EXACT)
    sp = dijkstra(graph, w, source, **kwargs)
    return [None if d is None else w.hops(d) for d in sp.dist]


class TestBasics:
    def test_path_distances(self):
        assert hop_dists(path_graph(5), 0) == [0, 1, 2, 3, 4]

    def test_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert hop_dists(g, 0) == [0, 1, None, None]

    def test_source_out_of_range(self):
        g = path_graph(3)
        w = make_weights(g, EXACT)
        with pytest.raises(GraphError):
            dijkstra(g, w, 5)

    def test_path_extraction(self):
        g = cycle_graph(6)
        w = make_weights(g, EXACT)
        sp = dijkstra(g, w, 0)
        path = sp.path_vertices(2)
        assert path[0] == 0 and path[-1] == 2
        assert len(path) == 3

    def test_path_edges_consistent(self):
        g = gnp_random_graph(20, 0.3, seed=1)
        w = make_weights(g, EXACT)
        sp = dijkstra(g, w, 0)
        for v in range(20):
            if sp.dist[v] is None or v == 0:
                continue
            vertices = sp.path_vertices(v)
            edges = sp.path_edges(v)
            assert len(edges) == len(vertices) - 1
            for (a, b), eid in zip(zip(vertices, vertices[1:]), edges):
                assert set(g.endpoints(eid)) == {a, b}

    def test_unreachable_path_raises(self):
        g = Graph(3, [(0, 1)])
        w = make_weights(g, EXACT)
        sp = dijkstra(g, w, 0)
        with pytest.raises(GraphError):
            sp.path_vertices(2)


class TestFailureSimulation:
    def test_banned_edge(self):
        g = cycle_graph(5)
        eid = g.edge_id(0, 1)
        d = hop_dists(g, 0, banned_edges={eid})
        assert d[1] == 4  # must go the long way round

    def test_banned_edges_set(self):
        g = cycle_graph(5)
        d = hop_dists(g, 0, banned_edges={g.edge_id(0, 1), g.edge_id(0, 4)})
        assert d[1] is None and d[2] is None

    def test_banned_vertices(self):
        g = path_graph(5)
        d = hop_dists(g, 0, banned_vertices={2})
        assert d == [0, 1, None, None, None]

    def test_banned_source_raises(self):
        g = path_graph(3)
        w = make_weights(g, EXACT)
        with pytest.raises(GraphError):
            dijkstra(g, w, 0, banned_vertices={0})



class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(10))
    def test_hop_distances_match_bfs(self, seed):
        g = gnp_random_graph(30, 0.15, seed=seed)
        ours = hop_dists(g, 0)
        theirs = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v in range(30):
            assert ours[v] == theirs.get(v)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_scheme_matches_exact_hops(self, seed):
        g = gnp_random_graph(25, 0.2, seed=seed)
        we = make_weights(g, EXACT)
        wr = make_weights(g, RANDOM, seed=seed)
        de = dijkstra(g, we, 0)
        dr = dijkstra(g, wr, 0)
        for v in range(25):
            he = None if de.dist[v] is None else we.hops(de.dist[v])
            hr = None if dr.dist[v] is None else wr.hops(dr.dist[v])
            assert he == hr


class TestTieDetection:
    def test_forced_tie_raises(self):
        """Equal integer weights on a 4-cycle create a genuine tie."""
        g = cycle_graph(4)
        w = WeightAssignment(
            weights=[1 << 20] * 4, shift=20, scheme=RANDOM, seed=0
        )
        with pytest.raises(TieBreakError):
            dijkstra(g, w, 0)

    def test_exact_scheme_never_ties(self):
        for seed in range(10):
            g = gnp_random_graph(20, 0.4, seed=seed)
            w = make_weights(g, EXACT)
            dijkstra(g, w, 0)  # must not raise


class TestSeededDijkstra:
    def test_seeded_matches_manual(self):
        """Restricted recompute inside {2,3,4} of a path equals full run."""
        g = path_graph(5)
        w = make_weights(g, EXACT)
        full = dijkstra(g, w, 0)
        # failure of edge (1,2): seed vertex 2 unreachable, but seed via
        # nothing -> run with boundary crossing edges only
        allowed = {2, 3, 4}
        seeds = []  # no crossing edge except the failed one: disconnected
        sp = seeded_dijkstra(g, w, seeds, allowed_vertices=allowed)
        assert sp.dist[2] is None and sp.dist[3] is None

    def test_seeded_cycle(self):
        g = cycle_graph(6)
        w = make_weights(g, EXACT)
        full = dijkstra(g, w, 0)
        # fail (0, 1): the recompute is restricted to {1, 2, 3}, and the
        # one surviving crossing edge is (4, 3)
        allowed = {1, 2, 3}
        seeds = [(full.dist[4] + w[g.edge_id(3, 4)], 3, 4, g.edge_id(3, 4))]
        sp = seeded_dijkstra(g, w, seeds, allowed_vertices=allowed)
        assert w.hops(sp.dist[1]) == 5
        assert w.hops(sp.dist[3]) == 3

    def test_seed_outside_allowed_raises(self):
        g = path_graph(4)
        w = make_weights(g, EXACT)
        with pytest.raises(GraphError):
            seeded_dijkstra(g, w, [(0, 0, -1, -1)], allowed_vertices={1, 2})


@settings(max_examples=25, deadline=None)
@given(graph_with_source())
def test_dijkstra_tree_is_shortest_path_tree(pair):
    """Every parent edge is tight: dist[v] = dist[parent] + W(edge)."""
    g, source = pair
    w = make_weights(g, EXACT)
    sp = dijkstra(g, w, source)
    for v in range(g.num_vertices):
        if v == source or sp.dist[v] is None:
            continue
        p, eid = sp.parent[v], sp.parent_eid[v]
        assert sp.dist[v] == sp.dist[p] + w[eid]
