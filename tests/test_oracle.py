"""QueryOracle parity and semantics.

The acceptance bar for the query kernels: **every** oracle answer -
distance, parent chain, path - is bit-identical to a fresh engine
traversal under the same failure set, for both weight schemes, across
the classification's three branches (base tree / cached replacement row
/ per target: base planes outside the failed subtrees, the fallback
traversal inside), on live, mapped and decoded structures.  The
snapshot file format and the serving loop have their own suite in
``test_oracle_snapshot.py``.
"""

import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import graph_with_source
from repro.engine import get_engine
from repro.errors import GraphError, TieBreakError
from repro.graphs import (
    Graph,
    barbell_graph,
    connected_gnp_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    watts_strogatz_graph,
)
from repro.graphs.properties import bridges
from repro.oracle import OracleServer, OracleStructure, QueryOracle, save_structure
from repro.spt.spt_tree import build_spt
from repro.spt.weights import WeightAssignment, make_weights

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


def _fresh(tree, failed):
    return get_engine().shortest_paths(
        tree.graph, tree.weights, tree.source, banned_edges=set(failed)
    )


def _assert_parity(oracle, tree, failed, sp=None):
    """Oracle vs fresh traversal: dist, parent and route for every vertex."""
    if sp is None:
        sp = _fresh(tree, failed)
    for v in range(tree.graph.num_vertices):
        assert oracle.dist(v, failed) == sp.dist[v], (failed, v)
        if sp.dist[v] is None:
            with pytest.raises(GraphError):
                oracle.route(v, failed)
            continue
        if v != tree.source:
            assert oracle.parent_of(v, failed) == (
                sp.parent[v],
                sp.parent_eid[v],
            ), (failed, v)
        assert oracle.route(v, failed) == (
            sp.path_vertices(v), sp.path_edges(v)
        ), (failed, v)
    return sp


def _below(tree, eid):
    """The tree edges strictly inside the subtree under tree edge ``eid``."""
    child = tree.edge_child(eid)
    return [tree.parent_eid[v] for v in tree.subtree_vertices(child)[1:]]


def _outside(tree, failed):
    """Vertices outside every subtree under a failed tree edge."""
    tree_eids = set(_tree_eids(tree))
    roots = [tree.edge_child(e) for e in failed if e in tree_eids]
    return [
        v for v in range(tree.graph.num_vertices)
        if not any(tree.is_ancestor(c, v) for c in roots)
    ]


def _isolated_and_pendant():
    # Triangle 0-1-2, bridge 2-3 into triangle 3-4-5, pendant bridge 5-6;
    # vertex 7 is isolated.
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)]
    return Graph(8, edges)


def _nested_pair(tree):
    """Tree edges ``(a, b)`` with ``b`` under ``a`` and at least one
    vertex below ``b``: two targets inside, the union being ``a``'s."""
    for eid in _tree_eids(tree):
        for inner in _below(tree, eid):
            if len(_below(tree, inner)) >= 1:
                return eid, inner
    raise AssertionError("instance needs a tree path of 3+ edges")


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

    @pytest.mark.parametrize(
        "graph",
        [
            gnp_random_graph(40, 0.12, seed=1),
            grid_graph(5, 6),
            watts_strogatz_graph(40, 4, 0.2, seed=2),
            barbell_graph(6, 3),
            _isolated_and_pendant(),
        ],
        ids=["gnp", "grid", "watts_strogatz", "barbell", "isolated_pendant"],
    )
    def test_every_single_edge_failure(self, graph):
        """Every edge id, tree and non-tree, under the random scheme
        (whose rows come from the engine's array sweep): each answer is
        the python spec's banned-edge run, each hop count its BFS
        distance, and no single failure runs a traversal."""
        tree = _tree_for(graph)
        oracle = QueryOracle.from_tree(tree)
        python = get_engine("python")
        shift = tree.weights.shift
        for eid in range(graph.num_edges):
            sp = python.shortest_paths(
                graph, tree.weights, tree.source, banned_edges={eid}
            )
            _assert_parity(oracle, tree, [eid], sp)
            bfs = python.distances(graph, tree.source, banned_edges={eid})
            for v in range(graph.num_vertices):
                d = sp.dist[v]
                hops = oracle.hops(v, [eid])
                assert hops == (None if d is None else d >> shift), (eid, v)
                assert hops == (None if bfs[v] < 0 else bfs[v]), (eid, v)
        assert oracle.stats.fallback_traversals == 0

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

    @pytest.mark.parametrize("query", ["dist", "hops", "path", "route"])
    @pytest.mark.parametrize(
        "vertex",
        [lambda n: -1, lambda n: -n, lambda n: n, lambda n: 10**6],
        ids=["-1", "-n", "n", "1000000"],
    )
    def test_out_of_range_vertex_raises(self, oracle, instance, query, vertex):
        """Negative ids must not index from the end (-1 would answer as
        vertex n - 1), and ids past n raise the typed error, not
        IndexError - with and without a failure."""
        _, tree = instance
        v = vertex(tree.graph.num_vertices)
        for failed in (None, [_tree_eids(tree)[0]]):
            with pytest.raises(GraphError, match="out of range"):
                getattr(oracle, query)(v, failed)

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
# per-target answers under multi-failure sets: the property suite
# ----------------------------------------------------------------------
#: Builder families at two sizes: ``small`` keeps m <= 62, so the exact
#: scheme still fits a snapshot; the random scheme runs on the larger
#: member, whose deeper trees nest more failed subtrees.
FAMILIES = {
    "gnp": lambda small: (
        connected_gnp_graph(22, 0.2, seed=4) if small
        else connected_gnp_graph(110, 0.045, seed=2)
    ),
    "grid": lambda small: grid_graph(5, 6) if small else grid_graph(9, 12),
    "barbell": lambda small: (
        barbell_graph(5, 4) if small else barbell_graph(7, 50)
    ),
}


def _failure_sets(tree, rng, count=10):
    """Failure sets of 1-4 edges: a shallow tree edge with the largest
    subtree, nested failed subtrees, tree, non-tree and bridge edges."""
    graph = tree.graph
    tree_eids = _tree_eids(tree)
    bridge_list = sorted(bridges(graph))
    non_tree = sorted(set(range(graph.num_edges)) - set(tree_eids))
    shallow = max(
        (e for e in tree_eids if e not in set(bridge_list)),
        key=lambda e: tree.subtree_size(tree.edge_child(e)),
    )
    sets = [[shallow], [shallow, rng.choice(_below(tree, shallow))]]
    if non_tree:
        sets.append([shallow, rng.choice(non_tree)])
    if bridge_list:
        sets.append([rng.choice(bridge_list), rng.choice(tree_eids)])
    pools = [tree_eids, tree_eids, non_tree, bridge_list]
    while len(sets) < count:
        failed = []
        for _ in range(rng.randint(1, 4)):
            nested = [f for e in failed if e in tree_eids for f in _below(tree, e)]
            pool = rng.choice([p for p in pools + [nested] if p])
            failed.append(rng.choice(pool))
        sets.append(sorted(set(failed)))
    return sets


def _oracles(tree, tmp_path):
    """The live oracle, and the decoded and (with numpy) mapped oracles
    over a snapshot of the same tree."""
    path = tmp_path / "oracle.snap"
    save_structure(path, tree)
    kinds = {"live": QueryOracle.from_tree(tree)}
    kinds["decoded"] = QueryOracle.load(path, mapped=False)
    try:
        import numpy  # noqa: F401
    except ImportError:
        pass
    else:
        kinds["mapped"] = QueryOracle.load(path, mapped=True)
    return kinds


class TestPerTargetParity:
    @pytest.mark.parametrize("scheme", ["random", "exact"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_random_failure_sets(self, family, scheme, tmp_path):
        graph = FAMILIES[family](scheme == "exact")
        for attempt in range(8):
            tree = _tree_for(graph, scheme=scheme, seed=3 + attempt)
            sets = _failure_sets(tree, random.Random(attempt))
            try:
                fresh = [_fresh(tree, failed) for failed in sets]
            except TieBreakError:
                continue  # reseed: the reference itself cannot answer
            break
        else:  # pragma: no cover - eight tied assignments in a row
            raise AssertionError("no tie-free assignment")
        for kind, oracle in _oracles(tree, tmp_path).items():
            for failed, sp in zip(sets, fresh):
                _assert_parity(oracle, tree, failed, sp)
            s = oracle.stats
            assert s.queries == s.base_answers + s.row_answers + s.fallback_answers
            assert s.fallback_answers > 0, kind
            oracle.structure.close()


class TestFallbackTie:
    """Two equal-weight entries into a failed subtree.  The base tree
    and every single failure are tie-free, since a cheaper entry (edge
    (5, 2)) wins; failing it with the tree edge (0, 1) leaves the tie."""

    @staticmethod
    def _tree():
        edges = [(0, 1), (1, 2), (5, 2), (0, 3), (0, 4), (3, 2), (4, 2), (0, 5)]
        perts = [1, 1, 2, 5, 6, 10, 9, 3]  # 0-3-2 and 0-4-2 both weigh 15
        graph = Graph(6, edges)
        weights = WeightAssignment(
            weights=[(1 << 20) + p for p in perts], shift=20, scheme="random"
        )
        return build_spt(graph, weights, 0)

    def test_tie_raises_only_for_a_target_inside(self):
        tree = self._tree()
        oracle = QueryOracle.from_tree(tree)
        failed = [0, 2]  # tree edge (0, 1), non-tree edge (5, 2)
        with pytest.raises(TieBreakError):
            _fresh(tree, failed)
        with pytest.raises(TieBreakError):
            oracle.dist(2, failed)
        assert oracle.dist(3, failed) == tree.dist[3]  # outside: no traversal
        s = oracle.stats
        assert (s.queries, s.base_answers, s.fallback_traversals) == (1, 1, 0)

    def test_serve_answers_not_ok(self):
        server = OracleServer(OracleStructure.from_live(self._tree()))
        out = io.StringIO()
        server.serve(
            [json.dumps({"op": "dist", "v": v, "failed": [0, 2]}) for v in (2, 3)],
            out,
        )
        tied, outside = map(json.loads, out.getvalue().splitlines())
        assert not tied["ok"] and "equal-weight" in tied["error"]
        assert outside["ok"]


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

        outer, inner = _nested_pair(tree)
        failed = [outer, inner]
        v, w = tree.subtree_vertices(tree.edge_child(inner))[:2]
        oracle.dist(v, failed)
        assert (s.fallback_answers, s.fallback_traversals) == (1, 1)
        oracle.dist(w, failed)  # memoized failure set
        assert (s.fallback_traversals, s.fallback_hits) == (1, 1)
        oracle.dist(tree.source, failed)  # outside: a base answer
        assert (s.base_answers, s.fallback_answers) == (3, 2)
        assert s.queries == s.base_answers + s.row_answers + s.fallback_answers

    def test_fallback_lru_evicts(self, instance, monkeypatch):
        _, tree = instance
        monkeypatch.setattr("repro.oracle.query._FALLBACK_CACHE_SIZE", 1)
        oracle = QueryOracle.from_tree(tree)
        outer, inner = _nested_pair(tree)
        other = next(e for e in _tree_eids(tree) if e not in (outer, inner))
        a, b = [outer, inner], [inner, other]
        v = tree.edge_child(inner)  # inside a failed subtree of both sets
        oracle.dist(v, a)
        oracle.dist(v, b)  # evicts a
        oracle.dist(v, a)  # recomputes
        assert oracle.stats.fallback_traversals == 3
        assert oracle.stats.fallback_hits == 0
        assert oracle.stats.fallback_answers == 3

    def test_targets_outside_failed_subtrees_run_nothing(self, instance):
        """Every target outside the failed subtrees: base answers, no
        traversal, and no LRU entry touched - not even a cached one."""
        _, tree = instance
        outer, _ = _nested_pair(tree)
        other = next(
            e for e in _tree_eids(tree) if not tree.edges_similar(e, outer)
        )
        failed = [outer, other]  # two disjoint failed subtrees
        targets = _outside(tree, failed)
        assert targets
        oracle = QueryOracle.from_tree(tree)
        assert oracle.dist_many(targets, failed) == [tree.dist[v] for v in targets]
        far = max(targets, key=lambda v: tree.depth[v])
        assert oracle.path(far, failed) == tree.path_vertices(far)
        s = oracle.stats
        assert (s.fallback_traversals, s.fallback_hits) == (0, 0)
        assert s.base_answers == s.queries == len(targets) + 1
        assert len(oracle._fallback) == 0

        oracle.dist(tree.edge_child(outer), failed)  # fills the LRU
        oracle.dist_many(targets, failed)
        assert (s.fallback_traversals, s.fallback_hits) == (1, 0)


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
