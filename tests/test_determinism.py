"""Determinism guarantees: identical inputs -> bit-identical outputs.

Reproducibility is a first-class requirement for a reproduction package:
every stochastic component is seeded, and the construction itself is
deterministic given the weight assignment.  These tests pin that down.
"""

import pytest

from repro.core import (
    ConstructOptions,
    build_epsilon_ftbfs,
    build_ft_mbfs,
    build_ftbfs13,
    greedy_reinforcement,
    run_pcons,
)
from repro.graphs import connected_gnp_graph
from repro.harness import run_experiment
from repro.lower_bounds import build_theorem51, build_theorem54


@pytest.fixture(scope="module")
def graph():
    return connected_gnp_graph(45, 0.12, seed=17)


class TestConstructionDeterminism:
    def test_epsilon_structure(self, graph):
        a = build_epsilon_ftbfs(graph, 0, 0.25)
        b = build_epsilon_ftbfs(graph, 0, 0.25)
        assert a.edges == b.edges
        assert a.reinforced == b.reinforced

    def test_random_scheme_deterministic_given_seed(self, graph):
        opts = ConstructOptions(weight_scheme="random", seed=5)
        a = build_epsilon_ftbfs(graph, 0, 0.25, options=opts)
        b = build_epsilon_ftbfs(graph, 0, 0.25, options=opts)
        assert a.edges == b.edges

    def test_ftbfs13(self, graph):
        assert build_ftbfs13(graph, 0).edges == build_ftbfs13(graph, 0).edges

    def test_mbfs(self, graph):
        a = build_ft_mbfs(graph, [0, 7], 0.3)
        b = build_ft_mbfs(graph, [0, 7], 0.3)
        assert a.edges == b.edges and a.reinforced == b.reinforced

    def test_greedy(self, graph):
        a = greedy_reinforcement(graph, 0, 6)
        b = greedy_reinforcement(graph, 0, 6)
        assert a.reinforced == b.reinforced

    def test_edge_sets_stable(self, graph):
        a = build_epsilon_ftbfs(graph, 0, 0.3)
        b = build_epsilon_ftbfs(graph, 0, 0.3)
        assert (a.edges, a.reinforced, a.tree_edges) == (
            b.edges,
            b.reinforced,
            b.tree_edges,
        )


class TestPconsDeterminism:
    def test_pair_records_identical(self, graph):
        a = run_pcons(graph, 0)
        b = run_pcons(graph, 0)
        assert len(a.pairs) == len(b.pairs)
        for ra, rb in zip(a.pairs, b.pairs):
            assert ra.key() == rb.key()
            assert ra.covered == rb.covered
            assert ra.last_eid == rb.last_eid
            assert ra.detour == rb.detour


class TestGadgetDeterminism:
    def test_theorem51(self):
        a = build_theorem51(300, 0.3)
        b = build_theorem51(300, 0.3)
        assert a.graph == b.graph
        assert a.pi_edges() == b.pi_edges()

    def test_theorem54(self):
        a = build_theorem54(300, 0.3, 2)
        b = build_theorem54(300, 0.3, 2)
        assert a.graph == b.graph


class TestExperimentDeterminism:
    def test_experiment_rows_reproducible(self):
        a = run_experiment("E2", quick=True, seed=3)
        b = run_experiment("E2", quick=True, seed=3)
        assert a.rows == b.rows

    def test_seed_changes_workload(self):
        a = run_experiment("E13", quick=True, seed=0)
        b = run_experiment("E13", quick=True, seed=1)
        # different seeds -> different random graphs -> different m column
        m_col = a.columns.index("m")
        assert [r[m_col] for r in a.rows] != [r[m_col] for r in b.rows]
