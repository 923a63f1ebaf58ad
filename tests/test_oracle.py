"""QueryOracle parity and semantics (live structures).

The acceptance bar for PR 9's query kernels: **every** oracle answer -
distance, parent chain, path - is bit-identical to a fresh engine
traversal under the same failure set, for both weight schemes, across
the classification's three branches (base tree / cached replacement row
/ engine fallback).  The snapshot file format and the serving loop have
their own suite in ``test_oracle_snapshot.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import graph_with_source
from repro.engine import get_engine
from repro.errors import GraphError, TieBreakError
from repro.graphs import Graph, connected_gnp_graph, path_graph
from repro.oracle import OracleStructure, QueryOracle
from repro.spt.spt_tree import build_spt
from repro.spt.weights import make_weights

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _tree_for(graph, scheme="random", seed=3, source=0):
    for attempt in range(8):
        try:
            weights = make_weights(graph, scheme, seed=seed + attempt)
            return build_spt(graph, weights, source)
        except TieBreakError:
            continue
    raise AssertionError("could not build a tie-free tree")


def _tree_eids(tree):
    return sorted({pe for pe in tree.parent_eid if pe >= 0})


@pytest.fixture(scope="module")
def instance():
    graph = connected_gnp_graph(40, 0.12, seed=7)
    tree = _tree_for(graph)
    return graph, tree


@pytest.fixture()
def oracle(instance):
    _, tree = instance
    return QueryOracle.from_tree(tree)


def _assert_parity(oracle, tree, failed):
    """Oracle vs fresh traversal: dist + parent for every vertex."""
    graph, weights, source = tree.graph, tree.weights, tree.source
    sp = get_engine().shortest_paths(
        graph, weights, source, banned_edges=set(failed)
    )
    for v in range(graph.num_vertices):
        assert oracle.dist(v, failed) == sp.dist[v], (failed, v)
        if sp.dist[v] is not None and v != source:
            assert oracle.parent_of(v, failed) == (
                sp.parent[v],
                sp.parent_eid[v],
            ), (failed, v)
    return sp


# ----------------------------------------------------------------------
# parity: the acceptance criterion
# ----------------------------------------------------------------------
class TestParity:
    def test_no_failures_is_base_tree(self, instance, oracle):
        _, tree = instance
        for v in range(tree.graph.num_vertices):
            assert oracle.dist(v) == tree.dist[v]
            if v != tree.source and tree.dist[v] is not None:
                assert oracle.parent_of(v) == (
                    tree.parent[v], tree.parent_eid[v],
                )

    def test_every_single_tree_edge_failure(self, instance, oracle):
        _, tree = instance
        for eid in _tree_eids(tree):
            _assert_parity(oracle, tree, [eid])

    def test_non_tree_failures_keep_base(self, instance, oracle):
        _, tree = instance
        non_tree = sorted(set(range(tree.graph.num_edges)) - set(_tree_eids(tree)))
        assert non_tree, "instance needs non-tree edges"
        _assert_parity(oracle, tree, non_tree[:4])

    def test_multi_failure_fallback(self, instance, oracle):
        _, tree = instance
        eids = _tree_eids(tree)
        non_tree = sorted(set(range(tree.graph.num_edges)) - set(eids))
        _assert_parity(oracle, tree, [eids[0], eids[1]])
        _assert_parity(oracle, tree, [eids[2], non_tree[0]])

    @pytest.mark.parametrize("scheme", ["random", "exact"])
    def test_both_weight_schemes(self, scheme):
        graph = connected_gnp_graph(24, 0.18, seed=5)
        tree = _tree_for(graph, scheme=scheme)
        oracle = QueryOracle.from_tree(tree)
        eids = _tree_eids(tree)
        for failed in ([], [eids[0]], [eids[-1]], eids[:2]):
            _assert_parity(oracle, tree, failed)

    def test_path_matches_fresh_traversal(self, instance, oracle):
        _, tree = instance
        eids = _tree_eids(tree)
        for failed in ([], [eids[1]], eids[:2]):
            sp = get_engine().shortest_paths(
                tree.graph, tree.weights, tree.source, banned_edges=set(failed)
            )
            for v in range(tree.graph.num_vertices):
                if sp.dist[v] is None:
                    with pytest.raises(GraphError):
                        oracle.path(v, failed)
                    continue
                assert oracle.path(v, failed) == sp.path_vertices(v)
                assert oracle.path_edges(v, failed) == sp.path_edges(v)

    @settings(max_examples=20, **COMMON)
    @given(graph_with_source(max_vertices=18), st.integers(0, 2**32 - 1))
    def test_property_parity(self, gs, fseed):
        import random

        graph, source = gs
        tree = _tree_for(graph, source=source)
        oracle = QueryOracle.from_tree(tree)
        rng = random.Random(fseed)
        m = graph.num_edges
        for _ in range(3):
            failed = rng.sample(range(m), min(m, rng.randrange(0, 4)))
            _assert_parity(oracle, tree, failed)


# ----------------------------------------------------------------------
# API semantics
# ----------------------------------------------------------------------
class TestSemantics:
    def test_dist_many_matches_dist(self, instance, oracle):
        _, tree = instance
        eid = _tree_eids(tree)[0]
        targets = list(range(tree.graph.num_vertices))
        assert oracle.dist_many(targets, [eid]) == [
            oracle.dist(v, [eid]) for v in targets
        ]

    def test_hops_decomposition(self, instance, oracle):
        _, tree = instance
        for v in (1, 5, 17):
            d = oracle.dist(v)
            assert oracle.hops(v) == (None if d is None else d >> tree.weights.shift)
            assert oracle.hops(v) == tree.depth[v]

    def test_unreachable_dist_none_path_raises(self):
        # Failing a pendant's only edge disconnects it.
        graph = path_graph(4)
        tree = _tree_for(graph)
        oracle = QueryOracle.from_tree(tree)
        last_edge = tree.parent_eid[3]
        assert oracle.dist(3, [last_edge]) is None
        assert oracle.parent_of(3, [last_edge]) == (-1, -1)
        with pytest.raises(GraphError):
            oracle.path(3, [last_edge])

    def test_invalid_vertex_and_edge_raise(self, oracle, instance):
        _, tree = instance
        n, m = tree.graph.num_vertices, tree.graph.num_edges
        with pytest.raises(GraphError):
            oracle.dist(n)
        with pytest.raises(GraphError):
            oracle.dist(-1)
        with pytest.raises(GraphError):
            oracle.dist(0, [m])
        with pytest.raises(GraphError):
            oracle.mark_down(m)

    def test_mark_down_merges_into_queries(self, instance):
        _, tree = instance
        oracle = QueryOracle.from_tree(tree)
        eid = _tree_eids(tree)[0]
        baseline = [
            oracle.dist(v, [eid]) for v in range(tree.graph.num_vertices)
        ]
        oracle.mark_down(eid)
        assert oracle.marked == {eid}
        assert [
            oracle.dist(v) for v in range(tree.graph.num_vertices)
        ] == baseline
        # explicit + marked merge into one effective set
        other = _tree_eids(tree)[1]
        merged = oracle.dist(5, [other])
        assert merged == oracle.__class__.from_tree(tree).dist(5, [eid, other])
        oracle.mark_up(eid)
        assert oracle.marked == frozenset()
        assert oracle.dist(5) == tree.dist[5]

    def test_source_distance_zero(self, oracle, instance):
        _, tree = instance
        assert oracle.dist(tree.source) == 0
        assert oracle.path(tree.source) == [tree.source]
        assert oracle.path_edges(tree.source) == []


# ----------------------------------------------------------------------
# stats: where answers come from
# ----------------------------------------------------------------------
class TestStats:
    def test_classification_counters(self, instance):
        _, tree = instance
        oracle = QueryOracle.from_tree(tree)
        eids = _tree_eids(tree)
        non_tree = sorted(set(range(tree.graph.num_edges)) - set(eids))[0]

        oracle.dist(3)
        oracle.dist(3, [non_tree])
        s = oracle.stats
        assert (s.queries, s.base_answers, s.row_answers) == (2, 2, 0)

        oracle.dist(3, [eids[0]])
        assert (s.row_answers, s.fallback_traversals) == (1, 0)

        oracle.dist(3, [eids[0], eids[1]])
        assert s.fallback_traversals == 1
        oracle.dist(4, [eids[0], eids[1]])  # memoized failure set
        assert (s.fallback_traversals, s.fallback_hits) == (1, 1)

    def test_fallback_lru_evicts(self, instance, monkeypatch):
        _, tree = instance
        monkeypatch.setattr("repro.oracle.query._FALLBACK_CACHE_SIZE", 1)
        oracle = QueryOracle.from_tree(tree)
        eids = _tree_eids(tree)
        a, b = [eids[0], eids[1]], [eids[1], eids[2]]
        oracle.dist(3, a)
        oracle.dist(3, b)  # evicts a
        oracle.dist(3, a)  # recomputes
        assert oracle.stats.fallback_traversals == 3
        assert oracle.stats.fallback_hits == 0


# ----------------------------------------------------------------------
# live OracleStructure
# ----------------------------------------------------------------------
class TestLiveStructure:
    def test_from_live_shares_tree_arrays(self, instance):
        _, tree = instance
        structure = OracleStructure.from_live(tree)
        assert structure.arrays["tree_parent"] is tree.parent
        assert structure.num_vertices == tree.graph.num_vertices
        assert structure.num_replacement_rows == len(_tree_eids(tree))
        structure.close()  # no-op for live structures

    def test_exact_scheme_live_oracle_works(self):
        """Big-int exact-scheme weights are fine in memory - only
        serialization restricts to int64 (see test_oracle_snapshot)."""
        graph = connected_gnp_graph(30, 0.15, seed=2)  # > 62 edges
        assert graph.num_edges > 62
        tree = _tree_for(graph, scheme="exact")
        oracle = QueryOracle.from_tree(tree)
        eid = _tree_eids(tree)[0]
        _assert_parity(oracle, tree, [eid])
