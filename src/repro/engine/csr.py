"""Immutable CSR (compressed sparse row) view of a :class:`Graph`.

The view stores the undirected adjacency as three flat int64 arrays:

``indptr``
    ``n + 1`` offsets; the neighbors of vertex ``v`` live in
    ``indices[indptr[v]:indptr[v + 1]]``.
``indices``
    ``2m`` neighbor vertex ids, *in the graph's adjacency-list order* -
    this makes every array kernel tie-break identically to the
    pure-Python reference loops.
``edge_ids``
    ``2m`` edge ids aligned with ``indices``.

``edge_u``/``edge_v`` (length ``m``) mirror the canonical endpoint
arrays so kernels can resolve an edge id without touching the Graph.

The view is built lazily on first use and cached on the graph itself
(``Graph._csr_cache``); graphs are immutable after construction, so the
cache never invalidates.  Derived graphs (subgraphs, copies) start with
an empty cache of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["CSRAdjacency", "csr_view"]


@dataclass(frozen=True)
class CSRAdjacency:
    """Flat-array adjacency; treat every array as read-only."""

    num_vertices: int
    num_edges: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    #: Optional object the arrays' memory belongs to (a loaded
    #: snapshot's mmap, see :mod:`repro.oracle.snapshot`).  Every holder
    #: of this view must (transitively) hold the owner too, so the
    #: mapping lives as long as the view does.
    owner: object = field(default=None, compare=False, repr=False)

    def degree_array(self) -> np.ndarray:
        """Degrees as an int64 array (a fresh array per call)."""
        return self.indptr[1:] - self.indptr[:-1]

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        num_edges: int,
        arrays,
        owner: object = None,
    ) -> "CSRAdjacency":
        """Rebuild a view from a mapping of its five named arrays.

        Used by the snapshot loader (:mod:`repro.oracle.snapshot`) to
        wrap mapped planes zero-copy; the caller is responsible for the
        arrays being int64 and read-only, and passes the backing
        mapping as ``owner`` so it lives as long as the view does.
        """
        return cls(
            num_vertices=num_vertices,
            num_edges=num_edges,
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            edge_ids=arrays["edge_ids"],
            edge_u=arrays["edge_u"],
            edge_v=arrays["edge_v"],
            owner=owner,
        )


def _build(graph: Graph) -> CSRAdjacency:
    n = graph.num_vertices
    m = graph.num_edges
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(2 * m, dtype=np.int64)
    edge_ids = np.empty(2 * m, dtype=np.int64)
    pos = 0
    for v in range(n):
        adj = graph.adjacency(v)
        for w, eid in adj:
            indices[pos] = w
            edge_ids[pos] = eid
            pos += 1
        indptr[v + 1] = pos
    edge_list = graph.edge_list()
    if edge_list:
        eu, ev = zip(*edge_list)
    else:
        eu, ev = (), ()
    view = CSRAdjacency(
        num_vertices=n,
        num_edges=m,
        indptr=indptr,
        indices=indices,
        edge_ids=edge_ids,
        edge_u=np.asarray(eu, dtype=np.int64),
        edge_v=np.asarray(ev, dtype=np.int64),
    )
    for arr in (view.indptr, view.indices, view.edge_ids, view.edge_u, view.edge_v):
        arr.setflags(write=False)
    return view


def csr_view(graph: Graph) -> CSRAdjacency:
    """The graph's CSR view, built on first use and cached on the graph."""
    cached = graph._csr_cache
    if cached is None:
        cached = _build(graph)
        graph._csr_cache = cached
    return cached
