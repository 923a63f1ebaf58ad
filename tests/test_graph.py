"""Tests for the core Graph type."""

import pytest

from repro.errors import GraphError
from repro.graphs import Graph, path_graph


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_basic_counts(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_edge_ids_are_insertion_order(self):
        g = Graph(4, [(2, 3), (0, 1)])
        assert g.endpoints(0) == (2, 3)
        assert g.endpoints(1) == (0, 1)

    def test_endpoints_canonicalized(self):
        g = Graph(3, [(2, 1)])
        assert g.endpoints(0) == (1, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            Graph(-1)


class TestQueries:
    def test_neighbors(self, small_graph):
        assert sorted(small_graph.neighbors(4)) == [1, 3, 5]

    def test_degree(self, small_graph):
        assert small_graph.degree(4) == 3
        assert small_graph.degree(0) == 2

    def test_degrees_list(self, small_graph):
        degs = small_graph.degrees()
        assert len(degs) == 6
        assert sum(degs) == 2 * small_graph.num_edges

    def test_edge_id_lookup_both_orders(self, small_graph):
        eid = small_graph.edge_id(4, 1)
        assert small_graph.edge_id(1, 4) == eid
        assert set(small_graph.endpoints(eid)) == {1, 4}

    @pytest.mark.parametrize("eid", [-1, -4, -5, 4])
    def test_endpoints_out_of_range_raises(self, eid):
        """A negative id would index from the end; -1 is also the
        ``parent_eid`` sentinel.  Both sides of ``[0, m)`` raise alike."""
        g = Graph(4, [(1, 2), (2, 3), (3, 0), (0, 1)])
        with pytest.raises(GraphError, match=f"edge id {eid} out of range"):
            g.endpoints(eid)

    def test_edge_id_missing_raises(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.edge_id(0, 5)

    def test_has_edge(self, small_graph):
        assert small_graph.has_edge(0, 1)
        assert small_graph.has_edge(1, 0)
        assert not small_graph.has_edge(0, 5)

    def test_other_endpoint(self, small_graph):
        eid = small_graph.edge_id(1, 4)
        assert small_graph.other_endpoint(eid, 1) == 4
        assert small_graph.other_endpoint(eid, 4) == 1

    def test_other_endpoint_wrong_vertex(self, small_graph):
        eid = small_graph.edge_id(1, 4)
        with pytest.raises(GraphError):
            small_graph.other_endpoint(eid, 0)

    def test_incident_edges(self, small_graph):
        eids = small_graph.incident_edges(4)
        assert len(eids) == 3
        for eid in eids:
            assert 4 in small_graph.endpoints(eid)

    def test_edges_iteration(self, small_graph):
        triples = list(small_graph.edges())
        assert len(triples) == small_graph.num_edges
        assert all(u < v for _, u, v in triples)

    def test_contains(self, small_graph):
        assert (0, 1) in small_graph
        assert (5, 0) not in small_graph
        assert 5 in small_graph
        assert 6 not in small_graph


class TestDerivedGraphs:
    def test_edge_subgraph_preserves_vertices(self, small_graph):
        sub = small_graph.edge_subgraph([0, 1])
        assert sub.num_vertices == small_graph.num_vertices
        assert sub.num_edges == 2

    def test_edge_subgraph_edges(self, small_graph):
        eid = small_graph.edge_id(1, 4)
        sub = small_graph.edge_subgraph([eid])
        assert sub.has_edge(1, 4)
        assert not sub.has_edge(0, 1)

    def test_induced_subgraph(self, small_graph):
        sub = small_graph.induced_subgraph([0, 1, 4])
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 4)
        assert sub.num_edges == 2

    def test_with_edges_added_keeps_ids(self, small_graph):
        bigger = small_graph.with_edges_added([(0, 5)])
        for eid, u, v in small_graph.edges():
            assert bigger.endpoints(eid) == (u, v)
        assert bigger.has_edge(0, 5)

    def test_copy_equals(self, small_graph):
        assert small_graph.copy() == small_graph

    def test_equality_ignores_edge_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b

    def test_inequality_different_edges(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 2)])
        assert a != b

    def test_edge_list_roundtrip(self, small_graph):
        rebuilt = Graph(small_graph.num_vertices, small_graph.edge_list())
        assert rebuilt == small_graph


class TestRepr:
    def test_repr_mentions_sizes(self):
        g = path_graph(5)
        assert "n=5" in repr(g)
        assert "m=4" in repr(g)


class TestPickleHygiene:
    def test_graph_pickle_excludes_csr_cache(self):
        """The memoized CSR view stays out of pickled state."""
        import pickle

        np = pytest.importorskip("numpy")
        from repro.engine.csr import csr_view
        from repro.graphs import connected_gnp_graph

        graph = connected_gnp_graph(200, 0.05, seed=1)
        before = len(pickle.dumps(graph))
        csr_view(graph)
        assert graph._csr_cache is not None
        # The measured regression was 26KB -> 74KB on this instance.
        assert len(pickle.dumps(graph)) == before
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone._csr_cache is None
        assert [clone.adjacency(v) for v in clone.vertices()] == [
            graph.adjacency(v) for v in graph.vertices()
        ]
        # The clone rebuilds its own CSR view on demand.
        rebuilt = csr_view(clone)
        assert np.array_equal(rebuilt.indptr, csr_view(graph).indptr)
        assert np.array_equal(rebuilt.indices, csr_view(graph).indices)
