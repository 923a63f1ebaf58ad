"""Tests for the verification oracle - including negative (sabotage) tests."""

import pytest

from repro.core import (
    build_epsilon_ftbfs,
    build_ftbfs13,
    unprotected_edges,
    verify_structure,
    verify_subgraph,
)
from repro.errors import VerificationError
from repro.graphs import (
    Graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    path_graph,
    star_graph,
)


class TestPositive:
    def test_full_graph_always_valid(self):
        g = connected_gnp_graph(25, 0.2, seed=1)
        all_edges = [eid for eid, _, _ in g.edges()]
        assert verify_subgraph(g, 0, all_edges).ok

    def test_tree_with_all_reinforced_valid(self):
        g = connected_gnp_graph(25, 0.2, seed=2)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        tree_edges = pc.tree.tree_edges()
        assert verify_subgraph(g, 0, tree_edges, tree_edges).ok

    def test_cycle_tree_plus_closing_edge(self):
        g = cycle_graph(6)
        all_edges = [eid for eid, _, _ in g.edges()]
        assert verify_subgraph(g, 0, all_edges).ok


class TestNegative:
    def test_bare_tree_fails(self):
        """A BFS tree alone cannot survive tree-edge failures on a cycle."""
        g = cycle_graph(6)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        report = verify_subgraph(g, 0, pc.tree.tree_edges())
        assert not report.ok
        assert report.violations

    def test_sabotaged_structure_detected(self):
        g = connected_gnp_graph(30, 0.15, seed=3)
        s = build_ftbfs13(g, 0)
        # remove one non-tree backup edge that some replacement needs
        non_tree = sorted(s.edges - s.tree_edges)
        assert non_tree
        for victim in non_tree:
            report = verify_subgraph(g, 0, s.edges - {victim})
            if not report.ok:
                break
        else:
            pytest.fail("removing every backup edge kept the structure valid")

    def test_raise_if_failed(self):
        g = cycle_graph(5)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        report = verify_subgraph(g, 0, pc.tree.tree_edges())
        with pytest.raises(VerificationError):
            report.raise_if_failed()

    def test_violation_str(self):
        g = cycle_graph(5)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        report = verify_subgraph(g, 0, pc.tree.tree_edges())
        text = str(report.violations[0])
        assert "vertex" in text

    def test_max_violations_cap(self):
        g = cycle_graph(12)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        report = verify_subgraph(g, 0, pc.tree.tree_edges(), max_violations=3)
        assert len(report.violations) == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_violations_below_one_rejected(self, bad):
        """A cap below 1 would stop on the no-failure case and report a
        valid H as not ok with no violation."""
        g = complete_graph(3)
        all_edges = [eid for eid, _, _ in g.edges()]
        with pytest.raises(ValueError, match="max_violations"):
            verify_subgraph(g, 0, all_edges, max_violations=bad)
        structure = build_epsilon_ftbfs(g, 0, 0.5)
        with pytest.raises(ValueError, match="max_violations"):
            verify_structure(structure, max_violations=bad)
        assert verify_subgraph(g, 0, all_edges, max_violations=1).ok

    def test_missing_no_failure_coverage(self):
        """H that does not even span G's distances fails immediately."""
        g = path_graph(4)
        report = verify_subgraph(g, 0, [g.edge_id(0, 1)])
        assert not report.ok
        assert any(v.failed_edge is None for v in report.violations)


class TestReinforcedSemantics:
    def test_reinforced_edge_failures_skipped(self):
        """Reinforcing the only cut edge makes a bare tree valid on a path."""
        g = path_graph(5)
        tree_edges = [eid for eid, _, _ in g.edges()]
        # a path graph: every edge is a bridge; reinforcing all -> valid
        assert verify_subgraph(g, 0, tree_edges, tree_edges).ok

    def test_partially_reinforced(self):
        g = cycle_graph(6)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        tree = list(pc.tree.tree_edges())
        # reinforce all tree edges: valid despite no backup
        assert verify_subgraph(g, 0, tree, tree).ok
        # reinforce all but one: invalid
        report = verify_subgraph(g, 0, tree, tree[:-1])
        assert not report.ok


class TestSurvivingPartSemantics:
    def test_bridge_failure_vacuous(self):
        """A bridge failure disconnects in G too: both sides unreachable."""
        g = path_graph(4)
        all_edges = [eid for eid, _, _ in g.edges()]
        assert verify_subgraph(g, 0, all_edges).ok

    def test_star_center_source(self):
        g = star_graph(7)
        all_edges = [eid for eid, _, _ in g.edges()]
        assert verify_subgraph(g, 0, all_edges).ok


class TestUnprotectedEdges:
    def test_ftbfs13_has_none(self):
        g = connected_gnp_graph(25, 0.2, seed=4)
        s = build_ftbfs13(g, 0)
        assert unprotected_edges(g, 0, s.edges) == set()

    def test_bare_tree_unprotected_matches_reinforced(self):
        """unprotected_edges(T0) is a valid reinforcement set for T0."""
        g = connected_gnp_graph(20, 0.25, seed=5)
        from repro.core import run_pcons

        pc = run_pcons(g, 0)
        tree = set(pc.tree.tree_edges())
        need = unprotected_edges(g, 0, tree)
        assert verify_subgraph(g, 0, tree, need).ok

    def test_construction_reinforced_superset_of_needed(self):
        """E' from the construction covers the measured E_miss(H)."""
        from repro.lower_bounds import build_theorem51

        lb = build_theorem51(100, 0.2, d=12, k=2, x_size=4)
        s = build_epsilon_ftbfs(lb.graph, lb.source, 0.2)
        measured = unprotected_edges(lb.graph, lb.source, s.edges)
        assert measured <= set(s.reinforced)

    def test_checked_failures_counted(self):
        g = cycle_graph(6)
        s = build_epsilon_ftbfs(g, 0, 1.0)
        report = verify_structure(s)
        assert report.ok
        assert report.checked_failures >= 6


class TestEngineResolution:
    def test_runs_on_the_engine_it_is_given(self):
        """No size-based upgrade: the default engine unless one is named."""
        from repro.core.verify import _resolve_engine
        from repro.engine import available_engines, get_engine

        g = connected_gnp_graph(30, 0.2, seed=3)
        assert _resolve_engine(g, None) is get_engine()
        for name in available_engines():
            assert _resolve_engine(g, name) is get_engine(name)
