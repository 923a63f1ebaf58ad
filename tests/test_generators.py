"""Tests for the random graph generators (determinism + basic stats)."""

import pytest

from repro.errors import ParameterError
from repro.graphs import (
    barabasi_albert_graph,
    connected_gnp_graph,
    gnp_random_graph,
    is_connected,
    is_tree,
    random_connected_graph,
    random_geometric_graph,
    random_regular_graph,
    random_tree,
    watts_strogatz_graph,
)


class TestGnp:
    def test_deterministic(self):
        a = gnp_random_graph(50, 0.2, seed=3)
        b = gnp_random_graph(50, 0.2, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(50, 0.2, seed=3)
        b = gnp_random_graph(50, 0.2, seed=4)
        assert a != b

    def test_p_zero(self):
        assert gnp_random_graph(20, 0.0, seed=0).num_edges == 0

    def test_p_one(self):
        g = gnp_random_graph(10, 1.0, seed=0)
        assert g.num_edges == 45

    def test_edge_count_concentrates(self):
        n, p = 120, 0.3
        g = gnp_random_graph(n, p, seed=9)
        expected = p * n * (n - 1) / 2
        assert 0.75 * expected < g.num_edges < 1.25 * expected

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            gnp_random_graph(10, 1.5)

    def test_matches_networkx_statistics(self):
        """Mean edge count within 3 sigma of the binomial expectation."""
        import math

        n, p, trials = 40, 0.25, 20
        total = sum(
            gnp_random_graph(n, p, seed=s).num_edges for s in range(trials)
        )
        mean = total / trials
        pairs = n * (n - 1) / 2
        sigma = math.sqrt(pairs * p * (1 - p) / trials)
        assert abs(mean - pairs * p) < 4 * sigma


class TestConnectedVariants:
    def test_connected_gnp_is_connected(self):
        for seed in range(5):
            g = connected_gnp_graph(40, 0.08, seed=seed)
            assert is_connected(g)

    def test_random_connected_graph(self):
        g = random_connected_graph(25, 10, seed=2)
        assert is_connected(g)
        assert g.num_edges == 24 + 10

    def test_random_connected_graph_caps_extra(self):
        g = random_connected_graph(5, 1000, seed=2)
        assert g.num_edges == 10  # complete graph


class TestRegular:
    def test_degrees(self):
        g = random_regular_graph(20, 4, seed=5)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_parity_check(self):
        with pytest.raises(ParameterError):
            random_regular_graph(9, 3)

    def test_degree_too_large(self):
        with pytest.raises(ParameterError):
            random_regular_graph(5, 5)


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert_graph(60, 3, seed=1)
        assert g.num_vertices == 60
        assert g.num_edges == (60 - 3) * 3

    def test_connected(self):
        g = barabasi_albert_graph(60, 2, seed=1)
        assert is_connected(g)

    def test_hub_emerges(self):
        g = barabasi_albert_graph(200, 2, seed=7)
        assert max(g.degrees()) > 10

    def test_bad_m(self):
        with pytest.raises(ParameterError):
            barabasi_albert_graph(5, 0)


class TestWattsStrogatz:
    def test_edge_count_beta_zero(self):
        g = watts_strogatz_graph(20, 4, 0.0, seed=1)
        assert g.num_edges == 40
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_rewiring_preserves_count_roughly(self):
        g = watts_strogatz_graph(40, 4, 0.5, seed=1)
        assert 70 <= g.num_edges <= 80

    def test_odd_k_rejected(self):
        with pytest.raises(ParameterError):
            watts_strogatz_graph(20, 3, 0.1)


class TestGeometric:
    def test_radius_zero(self):
        g = random_geometric_graph(30, 0.0, seed=1)
        assert g.num_edges == 0

    def test_radius_large(self):
        g = random_geometric_graph(15, 2.0, seed=1)
        assert g.num_edges == 15 * 14 // 2

    def test_deterministic(self):
        assert random_geometric_graph(40, 0.3, seed=5) == random_geometric_graph(
            40, 0.3, seed=5
        )


class TestRandomTree:
    def test_is_tree(self):
        for seed in range(5):
            assert is_tree(random_tree(30, seed=seed))

    def test_tiny(self):
        assert random_tree(1).num_edges == 0
        assert random_tree(2).num_edges == 1

    def test_matches_prufer_degree_theory(self):
        """Average leaf fraction of a uniform labeled tree tends to 1/e."""
        import math

        n, trials = 60, 30
        leaves = 0
        for seed in range(trials):
            t = random_tree(n, seed=seed)
            leaves += sum(1 for v in t.vertices() if t.degree(v) == 1)
        frac = leaves / (n * trials)
        assert abs(frac - 1 / math.e) < 0.05
