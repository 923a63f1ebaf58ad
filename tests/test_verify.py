"""Tests for the verification oracle - including negative (sabotage) tests."""

import random

import pytest

from repro.core import (
    build_epsilon_ftbfs,
    build_ftbfs13,
    unprotected_edges,
    verify_structure,
    verify_subgraph,
)
from repro.engine import available_engines, get_engine
from repro.engine.base import fault_candidates
from repro.engine.cbuild import CC_ENV_VAR
from repro.errors import VerificationError
from repro.graphs import (
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from tests.test_pcons import FAMILIES

PY = get_engine("python")

_needs_csr = pytest.mark.skipif(
    "csr" not in available_engines(), reason="csr needs numpy"
)


@pytest.fixture(params=[
    pytest.param("csr", marks=_needs_csr),
    pytest.param("numpy", marks=_needs_csr),
])
def array_engine(request, monkeypatch):
    """The engine name to verify on: csr, or csr on its numpy tier."""
    if request.param == "numpy":
        monkeypatch.setenv(CC_ENV_VAR, "0")
    return "csr"


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


def _report_fields(report):
    return report.ok, report.checked_failures, report.violations


def _tree_eids(graph, allowed_edges=None):
    parents = PY.parents(graph, 0, allowed_edges=allowed_edges)
    return {graph.edge_id(v, p) for v, p in parents.items() if v != p}


def _broken_structure(family):
    """``(H, E')`` on ``FAMILIES[family]``: T0 plus a random third of
    all edges, with up to two T0 edges dropped whose loss changes the
    no-failure distances, and a random fifth of H reinforced."""
    graph = FAMILIES[family]
    rng = random.Random(family)
    tree = _tree_eids(graph)
    h_edges = tree | {
        e for e in range(graph.num_edges) if rng.random() < 1 / 3
    }
    base = PY.distances(graph, 0)
    drops = 0
    for eid in rng.sample(sorted(tree), len(tree)):
        if PY.distances(graph, 0, allowed_edges=h_edges - {eid}) != base:
            h_edges.discard(eid)
            drops += 1
            if drops == 2:
                break
    e_prime = {e for e in sorted(h_edges) if rng.random() < 0.2}
    return graph, h_edges, e_prime


class TestNoOpFailures:
    """A failure off both sides' base trees is decided by the no-failure
    verdict on the array engines; reports stay the python spec's."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_replayed_no_failure_violations(self, family, array_engine):
        """H misses T0 edges, so every no-op failure repeats the
        no-failure violations: in full, and cut by ``max_violations``
        at a no-op candidate."""
        graph, h_edges, e_prime = _broken_structure(family)
        full = verify_subgraph(
            graph, 0, h_edges, e_prime, max_violations=10**6, engine="python"
        )
        got = verify_subgraph(
            graph, 0, h_edges, e_prime, max_violations=10**6,
            engine=array_engine,
        )
        assert _report_fields(got) == _report_fields(full)
        assert unprotected_edges(
            graph, 0, h_edges, engine=array_engine
        ) == unprotected_edges(graph, 0, h_edges, engine="python")
        if graph.num_edges == 0:
            return
        assert not full.ok and full.violations[0].failed_edge is None
        base_trees = _tree_eids(graph) | _tree_eids(graph, h_edges)
        cuts = [
            i for i, viol in enumerate(full.violations)
            if viol.failed_edge is not None
            and viol.failed_edge not in base_trees
        ]
        if not cuts:  # every candidate fails a base-tree edge
            return
        # Stop at the first violation of the last no-op candidate.
        last = full.violations[cuts[-1]].failed_edge
        cut = next(i for i in cuts if full.violations[i].failed_edge == last)
        ref = verify_subgraph(
            graph, 0, h_edges, e_prime, max_violations=cut + 1,
            engine="python",
        )
        assert ref.violations == full.violations[: cut + 1]
        got = verify_subgraph(
            graph, 0, h_edges, e_prime, max_violations=cut + 1,
            engine=array_engine,
        )
        assert _report_fields(got) == _report_fields(ref)

    def test_ids_that_name_no_edge(self, array_engine):
        """Ids in H and E' that name no edge ban nothing on every path:
        ``m + 5`` and ``-3`` in H must not raise, and ``-1`` in E' must
        not wrap onto edge ``m - 1`` (one checked failure short)."""
        graph = connected_gnp_graph(30, 0.15, seed=6)
        m = graph.num_edges
        tree = _tree_eids(graph)
        for h_edges in (
            set(range(m)),
            tree | {m - 1},
            tree - {min(tree)} | {m - 1},
        ):
            h_edges |= {m + 5, -3}
            ref = verify_subgraph(
                graph, 0, h_edges, {-1}, max_violations=10**6,
                engine="python",
            )
            got = verify_subgraph(
                graph, 0, h_edges, {-1}, max_violations=10**6,
                engine=array_engine,
            )
            assert _report_fields(got) == _report_fields(ref)
            assert unprotected_edges(
                graph, 0, h_edges, engine=array_engine
            ) == unprotected_edges(graph, 0, h_edges, engine="python")
        assert ref.checked_failures > 1 and not ref.ok
        assert verify_subgraph(
            graph, 0, set(range(m)), {-1}, engine=array_engine
        ).checked_failures == m + 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_candidate_loop_and_array_pass_agree(self, family):
        np = pytest.importorskip("numpy")
        graph, h_edges, e_prime = _broken_structure(family)
        m = graph.num_edges
        dist = PY.distances(graph, 0)
        for listed, skip in (
            (h_edges, e_prime),
            (h_edges | {-3, m, m + 5, 10**30}, e_prime | {-1, m, -(10**30)}),
            (set(), set()),
        ):
            expected = fault_candidates(graph, dist, listed, skip)
            assert fault_candidates(
                graph, np.asarray(dist, dtype=np.int64), listed, skip
            ) == expected
