"""Tests for structural graph properties, cross-validated with networkx."""

import networkx as nx
import pytest

from repro.graphs import (
    Graph,
    barbell_graph,
    bridges,
    connected_components,
    cycle_graph,
    gnp_random_graph,
    is_connected,
    is_tree,
    path_graph,
    to_networkx,
)


class TestComponents:
    def test_single_component(self):
        assert len(connected_components(path_graph(5))) == 1

    def test_isolated_vertices(self):
        g = Graph(4, [(0, 1)])
        comps = connected_components(g)
        assert len(comps) == 3

    def test_is_connected_trivial(self):
        assert is_connected(Graph(1))
        assert is_connected(Graph(0))
        assert not is_connected(Graph(2))


class TestBridges:
    def test_path_all_bridges(self):
        g = path_graph(6)
        assert len(bridges(g)) == 5

    def test_cycle_no_bridges(self):
        assert bridges(cycle_graph(6)) == []

    def test_barbell_bridge(self):
        g = barbell_graph(4, 1)
        assert len(bridges(g)) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = gnp_random_graph(25, 0.12, seed=seed)
        ours = {frozenset(g.endpoints(e)) for e in bridges(g)}
        theirs = {frozenset(e) for e in nx.bridges(to_networkx(g))}
        assert ours == theirs


class TestMisc:
    def test_is_tree(self):
        assert is_tree(path_graph(4))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(Graph(3, [(0, 1)]))  # disconnected
