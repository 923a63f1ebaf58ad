"""End-to-end tests for build_epsilon_ftbfs (Theorem 3.1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstructOptions,
    build_epsilon_ftbfs,
    run_pcons,
    verify_structure,
)
from repro.errors import GraphError, ParameterError, TieBreakError
from repro.graphs import (
    Graph,
    barbell_graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.lower_bounds import build_theorem51

from tests.conftest import graph_with_source


class TestParameterValidation:
    def test_bad_epsilon(self):
        g = path_graph(4)
        with pytest.raises(ParameterError):
            build_epsilon_ftbfs(g, 0, 1.5)
        with pytest.raises(ParameterError):
            build_epsilon_ftbfs(g, 0, -0.1)

    def test_bad_source(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            build_epsilon_ftbfs(g, 9, 0.3)


class TestStructuralInvariants:
    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.4, 0.5, 1.0])
    def test_tree_contained_and_reinforced_in_tree(self, medium_random, eps):
        s = build_epsilon_ftbfs(medium_random, 0, eps)
        assert s.tree_edges <= s.edges
        assert s.reinforced <= s.tree_edges
        assert s.num_backup + s.num_reinforced == s.num_edges

    def test_edges_subset_of_graph(self, medium_random):
        s = build_epsilon_ftbfs(medium_random, 0, 0.3)
        m = medium_random.num_edges
        assert all(0 <= e < m for e in s.edges)

    def test_epsilon_recorded(self, medium_random):
        s = build_epsilon_ftbfs(medium_random, 0, 0.37)
        assert s.epsilon == 0.37


def _arm_one_tie(monkeypatch):
    """Make the next ``build_spt`` call raise one TieBreakError; returns
    a list that empties once the tie has fired."""
    import repro.core.pcons as pcons_module
    import repro.spt.spt_tree as spt_tree

    real = spt_tree.build_spt
    armed = [True]

    def build_spt(*args, **kwargs):
        if armed:
            armed.pop()
            raise TieBreakError("injected tie")
        return real(*args, **kwargs)

    monkeypatch.setattr(spt_tree, "build_spt", build_spt)
    monkeypatch.setattr(pcons_module, "build_spt", build_spt)
    return armed


class TestRegimeDispatch:
    def test_eps_zero_fully_reinforced(self, medium_random):
        s = build_epsilon_ftbfs(medium_random, 0, 0.0)
        assert s.num_backup == 0
        assert s.edges == s.reinforced == s.tree_edges

    def test_eps_zero_reseeds_past_a_tie_like_pcons(
        self, medium_random, monkeypatch
    ):
        """A tie in the SPT of an eps = 0 build without a Pcons run
        reseeds through run_pcons's loop: the build succeeds with the
        tree that run_pcons settles on after the same tie."""
        opts = ConstructOptions(weight_scheme="random")
        _arm_one_tie(monkeypatch)
        s = build_epsilon_ftbfs(medium_random, 0, 0.0, options=opts)
        armed = _arm_one_tie(monkeypatch)
        pc = run_pcons(medium_random, 0, weight_scheme="random")
        assert not armed
        assert s.reinforced == frozenset(pc.tree.tree_edges())

    def test_eps_one_no_reinforcement(self, medium_random):
        s = build_epsilon_ftbfs(medium_random, 0, 1.0)
        assert s.num_reinforced == 0

    def test_eps_half_uses_ftbfs13(self, medium_random):
        s = build_epsilon_ftbfs(medium_random, 0, 0.5)
        assert s.num_reinforced == 0

    def test_force_main_runs_phases(self, medium_random):
        opts = ConstructOptions(force_main=True)
        s = build_epsilon_ftbfs(medium_random, 0, 0.6, options=opts)
        assert verify_structure(s).ok

    def test_pcons_reuse_gives_same_structure(self, medium_random):
        pc = run_pcons(medium_random, 0)
        a = build_epsilon_ftbfs(medium_random, 0, 0.3, pcons=pc)
        b = build_epsilon_ftbfs(medium_random, 0, 0.3)
        assert a.edges == b.edges
        assert a.reinforced == b.reinforced


class TestCorrectness:
    """The headline guarantee, via the independent oracle."""

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.4, 0.6, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_graphs(self, eps, seed):
        g = connected_gnp_graph(45, 0.12, seed=seed)
        s = build_epsilon_ftbfs(g, 0, eps)
        verify_structure(s).raise_if_failed()

    @pytest.mark.parametrize(
        "graph_fn,source",
        [
            (lambda: path_graph(12), 0),
            (lambda: cycle_graph(9), 2),
            (lambda: star_graph(10), 3),
            (lambda: complete_graph(8), 0),
            (lambda: grid_graph(5, 5), 12),
            (lambda: barbell_graph(5, 3), 0),
        ],
    )
    def test_special_graphs(self, graph_fn, source):
        g = graph_fn()
        for eps in (0.0, 0.3, 1.0):
            s = build_epsilon_ftbfs(g, source, eps)
            verify_structure(s).raise_if_failed()

    def test_disconnected_graph(self):
        g = Graph(8, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)])
        s = build_epsilon_ftbfs(g, 0, 0.3)
        verify_structure(s).raise_if_failed()

    def test_gadget_with_reinforcement(self):
        lb = build_theorem51(150, 0.2, d=16, k=2, x_size=4)
        s = build_epsilon_ftbfs(lb.graph, lb.source, 0.15)
        assert s.num_reinforced > 0, "deep gadget should force reinforcement"
        verify_structure(s).raise_if_failed()


class TestSizeBounds:
    """Theorem 3.1 size bounds (generous constants, exact shape)."""

    @pytest.mark.parametrize("eps", [0.15, 0.25, 0.35])
    def test_backup_bound(self, eps):
        g = connected_gnp_graph(80, 0.08, seed=5)
        n = g.num_vertices
        s = build_epsilon_ftbfs(g, 0, eps)
        bound = min((1 / eps) * n ** (1 + eps) * math.log2(n), n**1.5)
        assert s.num_backup <= 4 * bound

    @pytest.mark.parametrize("eps", [0.15, 0.25, 0.35])
    def test_reinforcement_bound(self, eps):
        lb = build_theorem51(150, 0.2, d=20, k=2, x_size=5)
        g, src = lb.graph, lb.source
        n = g.num_vertices
        s = build_epsilon_ftbfs(g, src, eps)
        bound = (1 / eps) * n ** (1 - eps) * math.log2(n)
        assert s.num_reinforced <= 4 * bound

    def test_never_exceeds_graph(self, medium_random):
        for eps in (0.1, 0.3, 0.5):
            s = build_epsilon_ftbfs(medium_random, 0, eps)
            assert s.num_edges <= medium_random.num_edges


class TestMonotonicityTendencies:
    def test_eps_zero_vs_one_extremes(self, medium_random):
        s0 = build_epsilon_ftbfs(medium_random, 0, 0.0)
        s1 = build_epsilon_ftbfs(medium_random, 0, 1.0)
        assert s0.num_backup <= s1.num_backup
        assert s0.num_reinforced >= s1.num_reinforced


class TestStats:
    def test_stats_populated_main_regime(self):
        lb = build_theorem51(120, 0.2, d=14, k=2, x_size=4)
        s = build_epsilon_ftbfs(lb.graph, lb.source, 0.2)
        st = s.stats
        assert st.num_pairs > 0
        assert st.s1_k_bound == math.ceil(1 / 0.2) + 2
        assert st.num_sim_sets >= 1
        assert "pcons" in st.elapsed_seconds

    def test_stats_as_dict_flattens(self, medium_random):
        s = build_epsilon_ftbfs(medium_random, 0, 0.2)
        d = s.stats.as_dict()
        assert "num_pairs" in d
        assert all(not isinstance(v, dict) for v in d.values())


@settings(max_examples=12, deadline=None)
@given(
    graph_with_source(max_vertices=16),
    st.sampled_from([0.0, 0.15, 0.3, 0.5, 1.0]),
)
def test_construct_verify_roundtrip(pair, eps):
    """THE property: any graph, any source, any eps -> valid structure."""
    g, source = pair
    s = build_epsilon_ftbfs(g, source, eps)
    verify_structure(s).raise_if_failed()
