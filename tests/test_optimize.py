"""Tests for the instance-adaptive greedy heuristics (Discussion section)."""

import pytest

from repro.core import (
    build_ftbfs13,
    edge_costs,
    greedy_reinforcement,
    run_pcons,
    verify_structure,
)
from repro.errors import ParameterError
from repro.graphs import connected_gnp_graph
from repro.lower_bounds import build_theorem51


@pytest.fixture(scope="module")
def gadget():
    lb = build_theorem51(120, 0.2, d=12, k=2, x_size=4)
    pc = run_pcons(lb.graph, lb.source)
    return lb, pc


class TestEdgeCosts:
    def test_costs_cover_uncovered_pairs(self, gadget):
        lb, pc = gadget
        needs = edge_costs(pc)
        uncovered = pc.pairs.uncovered()
        assert sum(len(s) for s in needs.values()) >= len(
            {(r.eid, r.last_eid) for r in uncovered}
        ) - 1
        for eid, last_set in needs.items():
            assert pc.tree.is_tree_edge(eid)
            for le in last_set:
                assert not pc.tree.is_tree_edge(le)

    def test_gadget_pi_edges_expensive(self, gadget):
        """On the gadget, pi edges force ~|X| last edges each."""
        lb, pc = gadget
        needs = edge_costs(pc)
        copy = lb.copies[0]
        deep_pi_edge = copy.pi_edge_ids[2]
        assert len(needs.get(deep_pi_edge, ())) >= lb.x_size - 1


class TestGreedyReinforcement:
    def test_budget_respected(self, gadget):
        lb, pc = gadget
        for budget in (0, 3, 10):
            s = greedy_reinforcement(lb.graph, lb.source, budget, pcons=pc)
            assert s.num_reinforced <= budget

    def test_negative_budget_rejected(self, gadget):
        lb, pc = gadget
        with pytest.raises(ParameterError):
            greedy_reinforcement(lb.graph, lb.source, -1, pcons=pc)

    def test_zero_budget_equals_ftbfs13(self, gadget):
        lb, pc = gadget
        greedy = greedy_reinforcement(lb.graph, lb.source, 0, pcons=pc)
        baseline = build_ftbfs13(lb.graph, lb.source, pcons=pc)
        assert greedy.edges == baseline.edges

    def test_valid_structure(self, gadget):
        lb, pc = gadget
        for budget in (2, 8, 20):
            s = greedy_reinforcement(lb.graph, lb.source, budget, pcons=pc)
            verify_structure(s).raise_if_failed()

    def test_monotone_backup_decrease(self, gadget):
        lb, pc = gadget
        sizes = [
            greedy_reinforcement(lb.graph, lb.source, b, pcons=pc).num_backup
            for b in (0, 4, 8, 16)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_greedy_beats_or_ties_random_choice(self, gadget):
        """Greedy saves at least as much as reinforcing arbitrary edges."""
        import random

        lb, pc = gadget
        budget = 6
        greedy = greedy_reinforcement(lb.graph, lb.source, budget, pcons=pc)
        needs = edge_costs(pc)
        rng = random.Random(0)
        tree_edges = list(pc.tree.tree_edges())
        for _ in range(5):
            chosen = set(rng.sample(tree_edges, budget))
            edges = set(tree_edges)
            for eid, last_set in needs.items():
                if eid not in chosen:
                    edges.update(last_set)
            random_backup = len(edges) - len(chosen & set(tree_edges))
            assert greedy.num_backup <= random_backup + budget

    def test_on_random_graph(self):
        g = connected_gnp_graph(30, 0.15, seed=7)
        s = greedy_reinforcement(g, 0, 5)
        verify_structure(s).raise_if_failed()
