"""Tests for the Theorem 5.1 / 5.4 gadgets and the intro example."""

import pytest

from repro.core import build_epsilon_ftbfs, verify_subgraph
from repro.errors import ParameterError
from repro.graphs import is_connected
from repro.lower_bounds import (
    build_clique_example,
    build_theorem51,
    build_theorem54,
    lower_bound_parameters,
    multi_source_parameters,
)
from repro.spt.bfs import UNREACHABLE, bfs_distances


class TestParameters51:
    def test_rejects_tiny_n(self):
        with pytest.raises(ParameterError):
            lower_bound_parameters(8, 0.3)

    def test_shapes(self):
        d, k, x = lower_bound_parameters(1000, 0.3)
        assert d >= 1 and k >= 1 and x >= 2

    def test_eps_half_single_copy(self):
        d, k, x = lower_bound_parameters(900, 0.5)
        assert k == 1  # n^(1-2*0.5) = 1


class TestGadget51Structure:
    @pytest.fixture(scope="class")
    def lb(self):
        return build_theorem51(300, 0.35)

    def test_connected(self, lb):
        assert is_connected(lb.graph)

    def test_copy_layout(self, lb):
        for copy in lb.copies:
            assert len(copy.pi_vertices) == lb.d + 1
            assert len(copy.z_vertices) == lb.d
            assert len(copy.x_vertices) == lb.x_size
            assert len(copy.pi_edge_ids) == lb.d
            assert len(copy.forced_sets) == lb.d

    def test_ladder_lengths_decreasing(self, lb):
        for copy in lb.copies:
            for j, ladder in enumerate(copy.ladder_paths, start=1):
                assert len(ladder) - 1 == 6 + 2 * (lb.d - j)
                assert ladder[0] == copy.pi_vertices[j - 1]
                assert ladder[-1] == copy.z_vertices[j - 1]

    def test_bipartite_complete(self, lb):
        copy = lb.copies[0]
        for x in copy.x_vertices:
            for z in copy.z_vertices:
                assert lb.graph.has_edge(x, z)

    def test_x_connected_to_terminal(self, lb):
        copy = lb.copies[0]
        for x in copy.x_vertices:
            assert lb.graph.has_edge(copy.terminal, x)

    def test_pi_edge_count(self, lb):
        assert lb.num_pi_edges == lb.d * lb.k
        assert len(lb.pi_edges()) == lb.num_pi_edges

    def test_base_distances(self, lb):
        """dist(s, x) = d + 2 for every x (Obs 5.2 arithmetic)."""
        dist = bfs_distances(lb.graph, lb.source)
        for copy in lb.copies:
            for x in copy.x_vertices:
                assert dist[x] == lb.d + 2

    def test_explicit_params_override(self):
        lb = build_theorem51(50, 0.3, d=5, k=2, x_size=3)
        assert lb.d == 5 and lb.k == 2 and lb.x_size == 3

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            build_theorem51(50, 0.3, d=0, k=1, x_size=1)


class TestClaim53:
    """The forced-edge mechanism, computationally."""

    @pytest.fixture(scope="class")
    def lb(self):
        return build_theorem51(200, 0.35)

    def test_replacement_distance_formula(self, lb):
        for copy in lb.copies[:2]:
            for j in range(1, lb.d + 1):
                eid = copy.pi_edge_ids[j - 1]
                dist = bfs_distances(lb.graph, lb.source, banned_edges={eid})
                want = lb.expected_replacement_distance(j)
                for x in copy.x_vertices[:3]:
                    assert dist[x] == want

    def test_forced_edges_are_forced(self, lb):
        """Removing (x, z_j) too strictly increases the distance."""
        copy = lb.copies[0]
        for j in (1, lb.d):
            eid = copy.pi_edge_ids[j - 1]
            want = lb.expected_replacement_distance(j)
            for x in copy.x_vertices[:3]:
                forced = lb.graph.edge_id(x, copy.z_vertices[j - 1])
                dist = bfs_distances(
                    lb.graph, lb.source, banned_edges={eid, forced}
                )
                assert dist[x] > want

    def test_forced_sets_disjoint(self, lb):
        seen = set()
        for copy in lb.copies:
            for forced in copy.forced_sets:
                for eid in forced:
                    assert eid not in seen
                    seen.add(eid)

    def test_certified_bound_arithmetic(self, lb):
        assert lb.certified_backup_lower_bound(0) == lb.num_pi_edges * lb.x_size
        assert lb.certified_backup_lower_bound(lb.num_pi_edges) == 0
        assert lb.certified_backup_lower_bound(10**9) == 0

    def test_expected_distance_range_check(self, lb):
        with pytest.raises(ParameterError):
            lb.expected_replacement_distance(0)
        with pytest.raises(ParameterError):
            lb.expected_replacement_distance(lb.d + 1)

    def test_any_valid_structure_contains_forced_edges(self, lb):
        """A structure missing a forced edge (with e_j fault-prone) fails."""
        copy = lb.copies[0]
        j = 1
        all_edges = {eid for eid, _, _ in lb.graph.edges()}
        forced = copy.forced_sets[j - 1][0]
        report = verify_subgraph(lb.graph, lb.source, all_edges - {forced}, ())
        assert not report.ok

    def test_construction_on_gadget_includes_forced_edges(self, lb):
        """Our eps structure must contain every forced set whose pi edge
        it leaves fault-prone."""
        s = build_epsilon_ftbfs(lb.graph, lb.source, lb.epsilon)
        for copy in lb.copies[:2]:
            for j in range(1, lb.d + 1):
                eid = copy.pi_edge_ids[j - 1]
                if eid in s.reinforced:
                    continue
                for forced in copy.forced_sets[j - 1]:
                    assert forced in s.edges


class TestGadget54:
    @pytest.fixture(scope="class")
    def lb(self):
        return build_theorem54(300, 0.3, 3)

    def test_connected(self, lb):
        assert is_connected(lb.graph)

    def test_sources_distinct(self, lb):
        assert len(set(lb.sources)) == lb.num_sources == 3

    def test_copies_per_source_column(self, lb):
        assert len(lb.copies) == lb.num_sources * lb.k

    def test_base_distance(self, lb):
        for (i, j), copy in list(lb.copies.items())[:4]:
            dist = bfs_distances(lb.graph, lb.sources[i])
            for x in lb.x_blocks[j][:2]:
                assert dist[x] == lb.d + 3

    def test_claim_56_distance(self, lb):
        (i, j), copy = next(iter(lb.copies.items()))
        for ell in (1, lb.d):
            eid = copy.pi_edge_ids[ell - 1]
            dist = bfs_distances(lb.graph, lb.sources[i], banned_edges={eid})
            want = lb.expected_replacement_distance(ell)
            for x in lb.x_blocks[j][:2]:
                assert dist[x] == want

    def test_claim_56_forced(self, lb):
        (i, j), copy = next(iter(lb.copies.items()))
        ell = 1
        eid = copy.pi_edge_ids[ell - 1]
        want = lb.expected_replacement_distance(ell)
        x = lb.x_blocks[j][0]
        forced = lb.graph.edge_id(x, copy.z_vertices[ell - 1])
        dist = bfs_distances(lb.graph, lb.sources[i], banned_edges={eid, forced})
        assert dist[x] > want

    def test_certified_bound(self, lb):
        assert (
            lb.certified_backup_lower_bound(0)
            == lb.num_pi_edges * lb.x_size
        )

    def test_parameters_reject_tiny(self):
        with pytest.raises(ParameterError):
            multi_source_parameters(20, 0.3, 4)

    def test_rejects_zero_sources(self):
        with pytest.raises(ParameterError):
            multi_source_parameters(100, 0.3, 0)


class TestCliqueExample:
    def test_layout(self):
        ex = build_clique_example(10)
        assert ex.graph.num_vertices == 10
        assert ex.clique_size == 9
        assert ex.graph.num_edges == 1 + 9 * 8 // 2
        assert set(ex.graph.endpoints(ex.bridge_eid)) == {0, 1}

    def test_bridge_disconnects(self):
        ex = build_clique_example(8)
        dist = bfs_distances(ex.graph, ex.source, banned_edges={ex.bridge_eid})
        assert all(
            dist[v] == UNREACHABLE for v in ex.clique_vertices
        )

    def test_rejects_tiny(self):
        with pytest.raises(ParameterError):
            build_clique_example(3)

    def test_mixed_design_protects(self):
        ex = build_clique_example(12)
        s = build_epsilon_ftbfs(ex.graph, ex.source, 0.3)
        edges = set(s.edges) | {ex.bridge_eid}
        reinforced = set(s.reinforced) | {ex.bridge_eid}
        report = verify_subgraph(ex.graph, ex.source, edges, reinforced)
        report.raise_if_failed()
