"""Compact undirected simple graph with stable integer edge ids.

This is the substrate every algorithm in the library runs on.  Design
goals (in priority order):

1. *Fast adjacency iteration from pure Python.*  The construction
   algorithms run many Dijkstra/BFS passes; adjacency is therefore stored
   as a list of per-vertex ``[(neighbor, edge_id), ...]`` lists, which is
   the fastest structure to iterate from CPython (an order of magnitude
   faster than slicing numpy CSR arrays per vertex).
2. *Cheap failure simulation.*  Removing an edge or a vertex never copies
   the graph - traversals accept ``banned`` sets instead (see
   :mod:`repro.spt.dijkstra`).  Materialized subgraphs are available when
   genuinely needed (:meth:`Graph.edge_subgraph`).
3. *Stable edge ids.*  Edge ``i`` keeps id ``i`` forever; structures
   (``H``, reinforced sets, ...) are stored as sets of edge ids, making
   set algebra between structures trivial and cheap.

Vertices are ``0..n-1``.  Edges are undirected and stored with canonical
endpoint order ``u < v``; parallel edges and self loops are rejected.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro._types import EdgeId, Endpoints, Vertex
from repro.errors import GraphError

__all__ = ["Graph"]


class Graph:
    """An immutable undirected simple graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Order defines the edge ids.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    # ``__weakref__`` keeps graphs weak-referenceable, so a per-graph
    # cache need not keep its graph alive; ``_csr_cache`` is excluded
    # from pickles below.
    __slots__ = (
        "_n", "_edge_u", "_edge_v", "_adj", "_edge_index", "name",
        "_csr_cache", "__weakref__",
    )

    #: Slots that participate in pickling.  ``_csr_cache`` is a memoized,
    #: rebuildable numpy export: shipping it would triple every payload
    #: once the CSR view exists (measured 26KB -> 74KB on G(200, 0.05)),
    #: so workers rebuild it lazily instead.
    _PICKLE_SLOTS = ("_n", "_edge_u", "_edge_v", "_adj", "_edge_index", "name")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]] = (),
        *,
        name: str = "",
    ) -> None:
        n = int(num_vertices)
        if n < 0:
            raise GraphError(f"num_vertices must be non-negative, got {num_vertices}")
        self._n = n
        self._edge_u: List[int] = []
        self._edge_v: List[int] = []
        self._adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._edge_index: Dict[Endpoints, int] = {}
        self.name = name
        # Lazily-built immutable CSR view, owned by repro.engine.csr.  The
        # graph never mutates after construction, so the cache never needs
        # invalidation; derived graphs start with a fresh (empty) cache.
        self._csr_cache = None
        for u, v in edges:
            self._add_edge(int(u), int(v))

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _add_edge(self, u: int, v: int) -> int:
        n = self._n
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        if u > v:
            u, v = v, u
        key = (u, v)
        if key in self._edge_index:
            raise GraphError(f"duplicate edge ({u}, {v})")
        eid = len(self._edge_u)
        self._edge_index[key] = eid
        self._edge_u.append(u)
        self._edge_v.append(v)
        self._adj[u].append((v, eid))
        self._adj[v].append((u, eid))
        return eid

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return len(self._edge_u)

    def vertices(self) -> range:
        """Iterate the vertex ids ``0..n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[EdgeId, Vertex, Vertex]]:
        """Iterate ``(edge_id, u, v)`` triples with ``u < v``."""
        edge_u, edge_v = self._edge_u, self._edge_v
        for eid in range(len(edge_u)):
            yield eid, edge_u[eid], edge_v[eid]

    def endpoints(self, eid: EdgeId) -> Endpoints:
        """Return the canonical ``(u, v)`` endpoints of edge ``eid``."""
        # A negative id would index from the end (and -1 is also the
        # ``parent_eid`` sentinel), so it is out of range like ``eid >= m``.
        if eid >= 0:
            try:
                return self._edge_u[eid], self._edge_v[eid]
            except IndexError:
                pass
        raise GraphError(f"edge id {eid} out of range for m={self.num_edges}")

    def other_endpoint(self, eid: EdgeId, vertex: Vertex) -> Vertex:
        """Return the endpoint of ``eid`` that is not ``vertex``."""
        u, v = self.endpoints(eid)
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise GraphError(f"vertex {vertex} is not an endpoint of edge {eid}=({u},{v})")

    def edge_id(self, u: Vertex, v: Vertex) -> EdgeId:
        """Return the id of edge ``{u, v}``; raises :class:`GraphError` if absent."""
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[key]
        except KeyError:
            raise GraphError(f"edge ({u}, {v}) not in graph") from None

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``{u, v}`` exists."""
        key = (u, v) if u < v else (v, u)
        return key in self._edge_index

    def neighbors(self, v: Vertex) -> List[Vertex]:
        """List of neighbors of ``v`` (copy)."""
        return [w for w, _ in self._adjacency_of(v)]

    def incident_edges(self, v: Vertex) -> List[EdgeId]:
        """List of edge ids incident to ``v`` (the paper's ``E(v, G)``)."""
        return [eid for _, eid in self._adjacency_of(v)]

    def adjacency(self, v: Vertex) -> Sequence[Tuple[Vertex, EdgeId]]:
        """The internal ``(neighbor, edge_id)`` adjacency list of ``v``.

        The returned list must not be mutated; it is exposed directly for
        performance (hot loops in Dijkstra iterate it).
        """
        return self._adjacency_of(v)

    def _adjacency_of(self, v: int) -> List[Tuple[int, int]]:
        try:
            return self._adj[v]
        except (IndexError, TypeError):
            raise GraphError(f"vertex {v} out of range for n={self._n}") from None

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``."""
        return len(self._adjacency_of(v))

    def degrees(self) -> List[int]:
        """Degree sequence indexed by vertex."""
        return [len(a) for a in self._adj]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def edge_subgraph(self, edge_ids: Iterable[EdgeId], *, name: str = "") -> "Graph":
        """Materialize the subgraph containing exactly ``edge_ids``.

        Vertex ids are preserved (the subgraph keeps all ``n`` vertices);
        edge ids are *re-numbered* in the order given.  Use
        :meth:`subgraph_edge_map` when the mapping matters.
        """
        pairs = [(self._edge_u[e], self._edge_v[e]) for e in sorted(set(edge_ids))]
        return Graph(self._n, pairs, name=name or f"{self.name}|edge_subgraph")

    def induced_subgraph(self, vertices: Iterable[Vertex], *, name: str = "") -> "Graph":
        """Materialize the subgraph induced by ``vertices`` (ids preserved)."""
        keep = set(vertices)
        pairs = [
            (u, v)
            for _, u, v in self.edges()
            if u in keep and v in keep
        ]
        return Graph(self._n, pairs, name=name or f"{self.name}|induced")

    def with_edges_added(
        self, new_edges: Iterable[Tuple[int, int]], *, name: str = ""
    ) -> "Graph":
        """Return a new graph with extra edges appended (ids of existing edges kept)."""
        pairs = list(zip(self._edge_u, self._edge_v))
        pairs.extend((int(u), int(v)) for u, v in new_edges)
        return Graph(self._n, pairs, name=name or self.name)

    def copy(self) -> "Graph":
        """Return a structural copy of this graph."""
        return Graph(self._n, zip(self._edge_u, self._edge_v), name=self.name)

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle everything except the memoized CSR view."""
        return {slot: getattr(self, slot) for slot in self._PICKLE_SLOTS}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._csr_cache = None

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def edge_list(self) -> List[Endpoints]:
        """All edges as ``(u, v)`` pairs in edge-id order."""
        return list(zip(self._edge_u, self._edge_v))

    def total_degree(self) -> int:
        """Sum of degrees (``2m``)."""
        return 2 * self.num_edges

    def __contains__(self, item: object) -> bool:
        """``(u, v) in graph`` tests edge membership; ``v in graph`` vertex range."""
        if isinstance(item, tuple) and len(item) == 2:
            u, v = item
            return self.has_edge(int(u), int(v))
        if isinstance(item, int):
            return 0 <= item < self._n
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and set(self._edge_index) == set(other._edge_index)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs rarely hashed
        return hash((self._n, frozenset(self._edge_index)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Graph(n={self._n}, m={self.num_edges}{label})"
