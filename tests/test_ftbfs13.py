"""Tests for the ESA'13 baseline FT-BFS structure (eps = 1 endpoint)."""

import pytest

from repro.core import build_ftbfs13, run_pcons, verify_structure
from repro.graphs import (
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from repro.lower_bounds import build_theorem51
from repro.util.stats import fit_loglog


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        g = connected_gnp_graph(40, 0.12, seed=seed)
        s = build_ftbfs13(g, 0)
        verify_structure(s).raise_if_failed()

    def test_no_reinforcement(self):
        g = connected_gnp_graph(30, 0.2, seed=9)
        s = build_ftbfs13(g, 0)
        assert s.num_reinforced == 0
        assert s.epsilon == 1.0

    def test_gadget_family(self):
        lb = build_theorem51(260, 0.5)
        s = build_ftbfs13(lb.graph, lb.source)
        verify_structure(s).raise_if_failed()

    def test_pcons_reuse(self):
        g = connected_gnp_graph(30, 0.2, seed=9)
        pc = run_pcons(g, 0)
        a = build_ftbfs13(g, 0, pcons=pc)
        b = build_ftbfs13(g, 0)
        assert a.edges == b.edges


class TestSizes:
    def test_tree_always_included(self):
        g = grid_graph(5, 5)
        s = build_ftbfs13(g, 0)
        assert s.tree_edges <= s.edges

    def test_path_graph_tree_only(self):
        g = path_graph(8)
        s = build_ftbfs13(g, 0)
        assert s.num_edges == 7  # no replacement paths exist

    def test_cycle_adds_closing_edge(self):
        g = cycle_graph(7)
        s = build_ftbfs13(g, 0)
        assert s.num_edges == 7  # tree + the one non-tree edge

    def test_complete_graph_linear(self):
        """On K_n all pairs are covered: the structure stays near-linear."""
        g = complete_graph(12)
        s = build_ftbfs13(g, 0)
        assert s.num_edges <= 3 * 12

    @pytest.mark.parametrize("seed", range(3))
    def test_size_bound_random(self, seed):
        g = connected_gnp_graph(70, 0.1, seed=seed)
        n = g.num_vertices
        s = build_ftbfs13(g, 0)
        assert s.num_edges <= 2 * n**1.5

    @pytest.mark.slow
    def test_gadget_scaling_exponent(self):
        """Size grows like ~ n^(3/2) on the eps=1/2 lower-bound family."""
        xs, ys = [], []
        for n_target in (150, 300, 600):
            lb = build_theorem51(n_target, 0.5)
            s = build_ftbfs13(lb.graph, lb.source)
            xs.append(lb.graph.num_vertices)
            ys.append(s.num_edges)
        fit = fit_loglog(xs, ys)
        assert 1.25 <= fit.exponent <= 1.75, fit
