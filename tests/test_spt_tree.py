"""Tests for the shortest-path tree T0: ancestry, LCA, paths, ~ relation."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.errors import GraphError
from repro.graphs import (
    Graph,
    binary_tree_graph,
    complete_graph,
    gnp_random_graph,
    grid_graph,
    path_graph,
    to_networkx,
)
from repro.spt.spt_tree import build_spt
from repro.spt.weights import EXACT, make_weights

from tests.conftest import graph_with_source


def make_tree(graph, source=0):
    return build_spt(graph, make_weights(graph, EXACT), source)


class TestTreeStructure:
    def test_depth_equals_bfs(self):
        g = gnp_random_graph(30, 0.15, seed=4)
        tree = make_tree(g)
        theirs = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v in range(30):
            expected = theirs.get(v, -1)
            assert tree.depth[v] == expected

    def test_tree_edge_count(self):
        g = gnp_random_graph(30, 0.3, seed=1)
        tree = make_tree(g)
        assert len(tree.tree_edges()) == tree.num_reachable - 1

    def test_children_partition(self):
        g = grid_graph(4, 4)
        tree = make_tree(g)
        seen = set()
        for v in g.vertices():
            for c in tree.children[v]:
                assert c not in seen
                seen.add(c)
        assert len(seen) == tree.num_reachable - 1

    def test_unreachable_vertices_excluded(self):
        g = Graph(4, [(0, 1), (2, 3)])
        tree = make_tree(g)
        assert tree.num_reachable == 2
        assert not tree.is_reachable(2)
        assert tree.depth[2] == -1


class TestAncestry:
    def test_is_ancestor_path(self):
        tree = make_tree(path_graph(5))
        assert tree.is_ancestor(0, 4)
        assert tree.is_ancestor(2, 4)
        assert tree.is_ancestor(2, 2)
        assert not tree.is_ancestor(4, 2)

    def test_subtree_vertices(self):
        tree = make_tree(binary_tree_graph(2))
        sub = set(tree.subtree_vertices(1))
        assert sub == {1, 3, 4}
        assert tree.subtree_size(1) == 3

    def test_in_subtree(self):
        tree = make_tree(binary_tree_graph(2))
        assert tree.in_subtree(1, 4)
        assert not tree.in_subtree(1, 5)

    def test_lca_binary_tree(self):
        tree = make_tree(binary_tree_graph(3))
        assert tree.lca(7, 8) == 3
        assert tree.lca(7, 4) == 1
        assert tree.lca(7, 14) == 0
        assert tree.lca(7, 7) == 7
        assert tree.lca(7, 3) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_lca_matches_naive(self, seed):
        g = gnp_random_graph(25, 0.12, seed=seed)
        tree = make_tree(g)
        reach = [v for v in g.vertices() if tree.is_reachable(v)]

        def naive_lca(u, v):
            anc = set()
            x = u
            while True:
                anc.add(x)
                if x == 0:
                    break
                x = tree.parent[x]
            x = v
            while x not in anc:
                x = tree.parent[x]
            return x

        import random

        rng = random.Random(seed)
        for _ in range(40):
            u, v = rng.choice(reach), rng.choice(reach)
            assert tree.lca(u, v) == naive_lca(u, v)

    def test_lca_unreachable_raises(self):
        g = Graph(3, [(0, 1)])
        tree = make_tree(g)
        with pytest.raises(GraphError):
            tree.lca(0, 2)


class TestPaths:
    def test_path_vertices_endpoints(self):
        g = grid_graph(4, 4)
        tree = make_tree(g)
        for v in range(1, 16):
            path = tree.path_vertices(v)
            assert path[0] == 0 and path[-1] == v
            assert len(path) == tree.depth[v] + 1

    def test_path_edges_alignment(self):
        g = gnp_random_graph(20, 0.25, seed=3)
        tree = make_tree(g)
        for v in range(1, 20):
            if not tree.is_reachable(v):
                continue
            vs = tree.path_vertices(v)
            es = tree.path_edges(v)
            for (a, b), eid in zip(zip(vs, vs[1:]), es):
                assert set(g.endpoints(eid)) == {a, b}

    def test_path_unreachable_raises(self):
        g = Graph(3, [(0, 1)])
        tree = make_tree(g)
        with pytest.raises(GraphError):
            tree.path_vertices(2)


class TestTreeEdges:
    def test_edge_child_depth(self):
        g = grid_graph(3, 3)
        tree = make_tree(g)
        for eid in tree.tree_edges():
            child = tree.edge_child(eid)
            u, v = g.endpoints(eid)
            parent = u if child == v else v
            assert tree.depth[child] == tree.depth[parent] + 1
            assert tree.edge_depth(eid) == tree.depth[child]

    def test_edge_child_non_tree_raises(self):
        g = complete_graph(4)
        tree = make_tree(g)
        non_tree = [eid for eid, _, _ in g.edges() if not tree.is_tree_edge(eid)]
        assert non_tree
        with pytest.raises(GraphError):
            tree.edge_child(non_tree[0])

    @pytest.mark.parametrize(
        "query",
        [
            lambda tree: tree.edge_child(-1),
            lambda tree: tree.is_tree_edge(-1),
            lambda tree: tree.edge_on_path(-1, 2),
        ],
        ids=["edge_child", "is_tree_edge", "edge_on_path"],
    )
    def test_negative_edge_id_raises(self, query):
        """-1 is the source's ``parent_eid`` sentinel, never a tree edge;
        indexing from the end would read it as the last edge, (0, 1)."""
        tree = make_tree(Graph(4, [(1, 2), (2, 3), (3, 0), (0, 1)]))
        assert tree.parent_eid[tree.source] == -1
        with pytest.raises(GraphError):
            query(tree)

    def test_edge_on_path(self):
        tree = make_tree(path_graph(5))
        g = tree.graph
        assert tree.edge_on_path(g.edge_id(1, 2), 4)
        assert tree.edge_on_path(g.edge_id(1, 2), 2)
        assert not tree.edge_on_path(g.edge_id(2, 3), 2)


class TestSimilarRelation:
    def test_same_root_path_similar(self):
        tree = make_tree(path_graph(6))
        g = tree.graph
        assert tree.edges_similar(g.edge_id(0, 1), g.edge_id(3, 4))
        assert tree.edges_similar(g.edge_id(2, 3), g.edge_id(2, 3))

    def test_sibling_branches_not_similar(self):
        tree = make_tree(binary_tree_graph(2))
        g = tree.graph
        left = g.edge_id(0, 1)
        right = g.edge_id(0, 2)
        assert not tree.edges_similar(left, right)

    def test_ancestor_edge_similar_to_descendant(self):
        tree = make_tree(binary_tree_graph(2))
        g = tree.graph
        top = g.edge_id(0, 1)
        below = g.edge_id(1, 3)
        assert tree.edges_similar(top, below)


@settings(max_examples=25, deadline=None)
@given(graph_with_source())
def test_euler_intervals_consistent(pair):
    """tin/tout nest properly and subtree sizes match interval widths."""
    g, source = pair
    tree = make_tree(g, source)
    for v in tree.preorder:
        assert tree.tout[v] - tree.tin[v] == tree.subtree_size(v)
        if v != source:
            p = tree.parent[v]
            assert tree.tin[p] < tree.tin[v] <= tree.tout[v] <= tree.tout[p]
