"""Integration tests: multi-module scenarios exercising the whole stack."""

import pytest

from repro.core import (
    ConstructOptions,
    CostModel,
    build_epsilon_ftbfs,
    build_ft_mbfs,
    greedy_reinforcement,
    optimize_epsilon,
    run_pcons,
    verify_structure,
    verify_subgraph,
)
from repro.graphs import (
    barabasi_albert_graph,
    connected_gnp_graph,
    grid_graph,
    random_regular_graph,
    watts_strogatz_graph,
)
from repro.lower_bounds import build_theorem51
from repro.spt.weights import RANDOM


class TestFullSweepOnOneGraph:
    """One graph, the entire epsilon range, one shared Pcons run."""

    @pytest.fixture(scope="class")
    def setting(self):
        g = connected_gnp_graph(60, 0.09, seed=13)
        pc = run_pcons(g, 0)
        return g, pc

    def test_all_eps_verify(self, setting):
        g, pc = setting
        for eps in [i / 10 for i in range(11)]:
            s = build_epsilon_ftbfs(g, 0, eps, pcons=pc)
            verify_structure(s).raise_if_failed()

    def test_tradeoff_endpoints_bracket_everything(self, setting):
        g, pc = setting
        sweep = [build_epsilon_ftbfs(g, 0, i / 10, pcons=pc) for i in range(11)]
        r_values = [s.num_reinforced for s in sweep]
        b_values = [s.num_backup for s in sweep]
        assert r_values[0] == max(r_values)
        assert b_values[0] == 0
        assert r_values[-1] == 0


class TestRandomWeightScheme:
    """The random tie-breaking scheme end to end (reseed path included)."""

    def test_construct_with_random_weights(self):
        g = connected_gnp_graph(50, 0.12, seed=3)
        opts = ConstructOptions(weight_scheme=RANDOM, seed=5)
        s = build_epsilon_ftbfs(g, 0, 0.3, options=opts)
        verify_structure(s).raise_if_failed()

    def test_random_matches_exact_sizes_roughly(self):
        g = connected_gnp_graph(50, 0.12, seed=4)
        exact = build_epsilon_ftbfs(
            g, 0, 0.3, options=ConstructOptions(weight_scheme="exact")
        )
        rand = build_epsilon_ftbfs(
            g, 0, 0.3, options=ConstructOptions(weight_scheme=RANDOM, seed=1)
        )
        # different tie-breaking -> different structures, similar sizes
        assert abs(exact.num_edges - rand.num_edges) <= 0.25 * exact.num_edges


class TestAcrossGraphFamilies:
    @pytest.mark.parametrize(
        "graph_fn",
        [
            lambda: watts_strogatz_graph(48, 4, 0.2, seed=2),
            lambda: barabasi_albert_graph(48, 2, seed=2),
            lambda: random_regular_graph(48, 4, seed=2),
            lambda: grid_graph(7, 7),
        ],
    )
    def test_families(self, graph_fn):
        g = graph_fn()
        s = build_epsilon_ftbfs(g, 0, 0.3)
        verify_structure(s).raise_if_failed()


class TestCostDrivenDesignFlow:
    """The intended user journey: model costs -> optimize -> verify."""

    def test_flow(self):
        lb = build_theorem51(120, 0.2, d=14, k=2, x_size=4)
        model = CostModel(backup=1.0, reinforce=25.0)
        best, curve = optimize_epsilon(
            lb.graph, lb.source, model, epsilons=[0.0, 0.2, 0.4, 1.0]
        )
        verify_structure(best).raise_if_failed()
        assert model.of(best) == min(p.cost for p in curve)

    def test_greedy_within_universal_budget(self):
        lb = build_theorem51(120, 0.2, d=14, k=2, x_size=4)
        pc = run_pcons(lb.graph, lb.source)
        universal = build_epsilon_ftbfs(lb.graph, lb.source, 0.2, pcons=pc)
        if universal.num_reinforced > 0:
            greedy = greedy_reinforcement(
                lb.graph, lb.source, universal.num_reinforced, pcons=pc
            )
            verify_structure(greedy).raise_if_failed()
            assert greedy.num_backup <= universal.num_backup


class TestMultiSourceFlow:
    def test_data_center_scenario(self):
        """Several 'gateway' sources on one backbone."""
        g = watts_strogatz_graph(40, 4, 0.1, seed=6)
        sources = [0, 10, 20, 30]
        s = build_ft_mbfs(g, sources, 0.3)
        for src in sources:
            verify_subgraph(g, src, s.edges, s.reinforced).raise_if_failed()
        assert s.num_edges <= sum(
            sub.num_edges for sub in s.per_source.values()
        )


class TestStructureComposition:
    def test_union_of_structures_still_valid(self):
        """FT-BFS structures are closed under union (same source)."""
        g = connected_gnp_graph(40, 0.12, seed=8)
        a = build_epsilon_ftbfs(g, 0, 0.2)
        b = build_epsilon_ftbfs(g, 0, 1.0)
        union_edges = a.edges | b.edges
        union_reinforced = a.reinforced  # reinforcing extra is always safe
        verify_subgraph(g, 0, union_edges, union_reinforced).raise_if_failed()

    def test_adding_edges_to_valid_structure_keeps_validity(self):
        g = connected_gnp_graph(40, 0.12, seed=9)
        s = build_epsilon_ftbfs(g, 0, 0.25)
        extra = [eid for eid, _, _ in g.edges() if eid not in s.edges][:10]
        verify_subgraph(
            g, 0, set(s.edges) | set(extra), s.reinforced
        ).raise_if_failed()
