"""Graph and weight façades over loaded int64 planes.

A snapshot stores the graph's CSR arrays and the per-edge weight
perturbations as flat int64 planes (:mod:`repro.oracle.snapshot`).  The
façades here give those planes the interfaces a query fallback's
traversal reads - a :class:`~repro.graphs.graph.Graph` and a
:class:`~repro.spt.weights.WeightAssignment` - without converting
anything up front: array engines read the mapped views zero-copy, and
the Python containers a reference path needs materialize lazily on
first touch.  The tree and replacement planes need no façade:
:class:`~repro.oracle.query.QueryOracle` reads them as they are.
"""

from __future__ import annotations

from typing import List, Optional

from repro.graphs.graph import Graph

__all__ = ["SharedGraph", "weights_facade"]


class SharedGraph(Graph):
    """Graph façade over a loaded CSR view.

    The loaded view *is* the ``_csr_cache``, so array engines run
    zero-copy immediately.  Python adjacency lists (and the edge index)
    materialize lazily from the mapped arrays only when a
    reference-engine path iterates them - order is the CSR order, which
    is the original graph's adjacency-list order by construction.
    """

    __slots__ = ()

    def __init__(self, csr, name: str = "") -> None:
        self._n = csr.num_vertices
        # _edge_u/_edge_v slots stay *unset*: __getattr__ materializes
        # them from the view on first touch (array engines never need
        # the Python lists).
        self._adj = None
        self._edge_index = None
        self.name = name
        self._csr_cache = csr

    def __getattr__(self, attr):
        # Only ever reached for unset slots; the edge-endpoint lists
        # materialize lazily from the loaded arrays.
        if attr in ("_edge_u", "_edge_v"):
            csr = self._csr_cache
            self._edge_u = csr.edge_u.tolist()
            self._edge_v = csr.edge_v.tolist()
            return getattr(self, attr)
        raise AttributeError(attr)

    @property
    def num_edges(self) -> int:
        csr = self._csr_cache
        # After a pickle round-trip the view is gone but the lists exist.
        return csr.num_edges if csr is not None else len(self._edge_u)

    def _materialize(self) -> None:
        if self._adj is not None:
            return
        csr = self._csr_cache
        indptr = csr.indptr.tolist()
        pairs = list(zip(csr.indices.tolist(), csr.edge_ids.tolist()))
        self._adj = [pairs[indptr[v] : indptr[v + 1]] for v in range(self._n)]
        self._edge_index = {
            (u, v): eid
            for eid, (u, v) in enumerate(zip(self._edge_u, self._edge_v))
        }

    def _adjacency_of(self, v: int):
        if self._adj is None:
            self._materialize()
        return super()._adjacency_of(v)

    def degrees(self):
        if self._adj is None:
            self._materialize()
        return super().degrees()

    def edge_id(self, u, v):
        if self._edge_index is None:
            self._materialize()
        return super().edge_id(u, v)

    def has_edge(self, u, v):
        if self._edge_index is None:
            self._materialize()
        return super().has_edge(u, v)

    def __eq__(self, other):
        if self._edge_index is None:
            self._materialize()
        if isinstance(other, SharedGraph) and other._edge_index is None:
            other._materialize()
        return super().__eq__(other)

    def __hash__(self):  # pragma: no cover - graphs rarely hashed
        if self._edge_index is None:
            self._materialize()
        return super().__hash__()

    def __getstate__(self):
        # A pickled façade must stand alone: materialize the Python
        # containers first (the mapped view itself is never shipped).
        self._materialize()
        return super().__getstate__()


def _plain(arr) -> List[int]:
    """A sequence as a plain Python int list (numpy view or list alike)."""
    tolist = getattr(arr, "tolist", None)
    return tolist() if tolist is not None else list(arr)


class _SharedWeights:
    """Lazy big-int weight sequence over a mapped perturbation array.

    ``weights[e] = BIG + pert[e]`` reconstructs the original assignment
    exactly for any exportable scheme; the full list materializes once,
    on the first reference-engine access.  ``owner`` pins the backing
    mapping (see :class:`~repro.oracle.snapshot.OracleStructure`).
    ``pert`` may also be a plain list (the snapshot loader's no-numpy
    fallback).
    """

    __slots__ = ("_pert", "_big", "_list", "_owner")

    def __init__(self, pert, big: int, owner: object = None) -> None:
        self._pert = pert
        self._big = big
        self._list: Optional[List[int]] = None
        self._owner = owner

    def _materialize(self) -> List[int]:
        if self._list is None:
            big = self._big
            self._list = [big + p for p in _plain(self._pert)]
        return self._list

    def __getitem__(self, index):
        return self._materialize()[index]

    def __len__(self) -> int:
        return len(self._pert)

    def __iter__(self):
        return iter(self._materialize())

    def __reduce__(self):
        return (list, (self._materialize(),))


def weights_facade(pert, shift: int, scheme: str, seed: int, max_pert: int,
                   owner: object = None):
    """A :class:`~repro.spt.weights.WeightAssignment` over a mapped
    (or listed) perturbation plane, big-int weights rebuilt lazily.

    The memoized ``pert_array`` export is pre-seeded with the mapped
    view when it is one, so array kernels run zero-copy and never see
    the lazy sequence; list-backed planes (no numpy) leave the memo to
    the normal export path.
    """
    from repro.spt.weights import WeightAssignment

    weights = WeightAssignment(
        weights=_SharedWeights(pert, 1 << shift, owner),
        shift=shift,
        scheme=scheme,
        seed=seed,
    )
    # setflags only exists on ndarrays - array('q') planes (the no-numpy
    # loader) must NOT seed the memo, or array kernels would fancy-index
    # a plain sequence.
    if hasattr(pert, "setflags"):
        object.__setattr__(weights, "_pert_cache", (pert, max_pert))
    return weights
