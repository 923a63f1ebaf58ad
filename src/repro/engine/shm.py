"""Shared-memory graph plane: zero-copy transport for sharded sweeps.

Before this module existed, every shard of a process-sharded sweep
re-pickled the whole graph (plus, for the weighted sweep, the weight
assignment and the tree) into its worker - an O(m) fixed cost *per
shard* that forced large minimum batch sizes and capped how finely a
sweep could be split.  The plane removes that cost: the parent publishes
the big arrays **once** into a ``multiprocessing.shared_memory`` segment
and ships only a tiny picklable handle; workers attach the segment
zero-copy and rebuild light façades around the mapped arrays.

Three kinds of segment exist, with different lifetimes:

``plane`` (:class:`SharedGraphPlane`)
    The per-*object* segment: the graph's cached CSR view (``indptr`` /
    ``indices`` / ``edge_ids`` / ``edge_u`` / ``edge_v``) and, for
    weighted sweeps, the weight assignment's ``pert_array`` export plus
    the tree's per-vertex arrays (hop/perturbation decomposition of
    ``dist``, ``parent``/``parent_eid``, Euler ``tin``/``tout``/
    ``preorder``).  Planes are cached per graph / per tree (keyed by
    object identity, with ``weakref.finalize`` unlinking the segment
    when the owner is garbage-collected), so repeated sweeps in one
    verify or pcons run publish exactly once.

``request`` (:class:`SweepRequest`)
    The per-*sweep* segment: the full list of requested edge ids plus
    the optional ``allowed_edges`` mask.  With the request published,
    a shard's submit payload shrinks to ``(plane handle, request
    handle, lo, hi)`` - O(1) in graph size.  The sharded engine unlinks
    the request when the sweep generator completes or is abandoned.

``aux`` (:class:`AuxSegment`)
    A generic named-array segment with no façade semantics: the oracle
    server (:mod:`repro.oracle.serve`) republishes a snapshot's
    replacement planes through one so query workers attach them
    zero-copy next to the tree plane.  Published from *already mapped*
    buffers via :func:`publish_aux_arrays` (the plane-from-mapped-buffer
    path: a loaded snapshot's arrays go straight back out without a
    parse step); the owner unlinks it explicitly, like a request.

``base`` (:class:`SweepBaseState`)
    The per-*sweep* base-state segment (unweighted sweeps): the parent's
    precomputed base traversal - distances, parents, parent edge ids,
    and the Euler ``tin``/``tout``/``preorder`` arrays of the base BFS
    tree (see ``FailureSweep.base_state``).  Workers rebuild their sweep
    handle from the mapped arrays in O(1) instead of re-running the
    O(n + m) base BFS per worker, which is what drops a shard's fixed
    cost to O(shard) and lets the sharded engine use its finest batch
    sizes.  Same lifetime as the request segment.

Worker side, :func:`attach_plane` maps the segment (untracked, so the
resource tracker never double-unlinks a parent-owned name) and builds:

* :class:`SharedGraph` - a :class:`~repro.graphs.graph.Graph` façade
  whose ``_csr_cache`` *is* the attached view (array engines run
  zero-copy); Python adjacency lists materialize lazily only if a
  reference-engine path asks for them.
* a :class:`~repro.spt.weights.WeightAssignment` whose big-int
  ``weights`` sequence reconstructs lazily from the mapped perturbation
  array (``weights[e] = BIG + pert[e]``, exact for any exportable
  scheme) and whose ``pert_array()`` memo is pre-seeded with the view.
* a :class:`~repro.spt.spt_tree.ShortestPathTree` façade carrying
  exactly the fields the failure sweeps consume (``dist`` big-ints are
  reassembled from the hop/pert arrays; LCA tables are *not* rebuilt -
  no sweep path touches them).

Attachments are cached per worker (keyed by segment name, small LRU),
so a persistent pool worker attaches once per plane and amortizes the
façade build over every shard it runs.  Per-sweep state is memoized the
same way for *both* sweep kinds: the unweighted worker's sweep handle
(rebuilt from the base segment, or computed once as a fallback) and the
weighted worker's :class:`~repro.engine.csr_engine.PreparedWeightedSweep`
setup are keyed on ``(plane, request, engine)``, so every shard after a
sweep's first pays only its own slice.  Everything in this module
degrades gracefully: :func:`transport_enabled` is False without numpy
or ``multiprocessing.shared_memory`` (or under ``REPRO_SHM=0``), and
publish failures (e.g. an exhausted ``/dev/shm``) return None so the
sharded engine falls back to the historical pickle transport.
"""

from __future__ import annotations

import atexit
import os
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.graphs.graph import Graph

__all__ = [
    "SHM_ENV_VAR",
    "transport_enabled",
    "PlaneHandle",
    "RequestHandle",
    "RequestView",
    "BaseStateHandle",
    "AuxHandle",
    "SharedGraphPlane",
    "SweepRequest",
    "SweepBaseState",
    "AuxSegment",
    "SharedGraph",
    "publish_graph",
    "publish_tree",
    "publish_plane_arrays",
    "publish_aux_arrays",
    "graph_plane",
    "tree_plane",
    "publish_request",
    "publish_base_state",
    "attach_plane",
    "attach_plane_arrays",
    "attach_request",
    "attach_aux_arrays",
    "weights_facade",
    "tree_facade",
    "active_segment_names",
    "release_segments",
]

#: Set to ``0``/``false``/``off`` to disable the shared-memory transport
#: (the sharded engine then uses the pickle path everywhere).
SHM_ENV_VAR = "REPRO_SHM"


def transport_enabled() -> bool:
    """Whether the shared-memory transport can run in this process."""
    if os.environ.get(SHM_ENV_VAR, "").strip().lower() in ("0", "false", "off"):
        return False
    try:
        import multiprocessing.shared_memory  # noqa: F401
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


# ----------------------------------------------------------------------
# segment plumbing (publisher side)
# ----------------------------------------------------------------------
#: Segments this process created and has not yet unlinked: name ->
#: (SharedMemory, kind).  Kind is "plane", "request" or "base"; the
#: lifecycle tests assert on this registry.
_OWNED: Dict[str, Tuple[object, str]] = {}

#: Errors a publish may legitimately hit (shm exhausted, too large, ...);
#: anything else is a bug and propagates.
_PUBLISH_ERRORS = (OSError, ValueError, MemoryError)


def _publish_arrays(arrays, kind: str):
    """Pack int64 arrays into one fresh segment; return ``(seg, fields)``.

    ``fields`` records ``(key, byte_offset, length)`` per array - all the
    attach side needs besides the segment name.
    """
    import numpy as np
    from multiprocessing import shared_memory

    flat = [
        (key, np.ascontiguousarray(np.asarray(arr, dtype=np.int64)))
        for key, arr in arrays
    ]
    total = sum(int(arr.nbytes) for _, arr in flat)
    seg = shared_memory.SharedMemory(create=True, size=max(total, 8))
    fields: List[Tuple[str, int, int]] = []
    offset = 0
    for key, arr in flat:
        if arr.size:
            view = np.ndarray(arr.shape, dtype=np.int64, buffer=seg.buf, offset=offset)
            view[:] = arr
            del view
        fields.append((key, offset, int(arr.size)))
        offset += int(arr.nbytes)
    _OWNED[seg.name] = (seg, kind)
    return seg, tuple(fields)


def _unlink_segment(name: str) -> None:
    """Unlink + close an owned segment (idempotent)."""
    entry = _OWNED.pop(name, None)
    if entry is None:
        return
    seg = entry[0]
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already removed
        pass
    try:
        seg.close()
    except BufferError:  # pragma: no cover - a view is still alive
        pass  # the mapping closes when the last view is collected


def active_segment_names(kind: Optional[str] = None) -> List[str]:
    """Names of segments this process currently owns (for tests/debug)."""
    return sorted(
        name for name, (_, k) in _OWNED.items() if kind is None or k == kind
    )


def release_segments() -> None:
    """Unlink every owned segment and drop the plane caches."""
    for name in list(_OWNED):
        _unlink_segment(name)
    _GRAPH_PLANES.clear()
    _TREE_PLANES.clear()


atexit.register(release_segments)


def _open_segment(name: str):
    """Attach an existing segment without resource-tracker ownership.

    The parent owns every segment's lifecycle, and the resource tracker
    is one process shared by the whole process tree (fork and spawn
    children inherit its fd).  An attach that *registered* would poison
    that shared state: the attacher's matching unregister (or exit)
    strips the creator's registration, so the creator's own unlink then
    trips a tracker KeyError - and the segment loses its crash
    protection.  Python 3.13 has ``track=False`` for exactly this;
    older versions suppress the registration call instead.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(res_name, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# ----------------------------------------------------------------------
# handles (the only thing a shard payload carries)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlaneHandle:
    """Picklable description of a published plane - O(1) in graph size."""

    name: str
    num_vertices: int
    num_edges: int
    fields: Tuple[Tuple[str, int, int], ...]
    graph_name: str = ""
    #: ``(shift, scheme, seed, max_pert)`` when weights are published.
    weights_meta: Optional[Tuple[int, str, int, int]] = None
    #: Tree root when tree arrays are published.
    tree_source: Optional[int] = None


@dataclass(frozen=True)
class RequestHandle:
    """Picklable description of one sweep's request segment."""

    name: str
    fields: Tuple[Tuple[str, int, int], ...]
    source: int = -1
    has_allowed: bool = False


@dataclass(frozen=True)
class BaseStateHandle:
    """Picklable description of one sweep's base-state segment."""

    name: str
    fields: Tuple[Tuple[str, int, int], ...]


@dataclass(frozen=True)
class AuxHandle:
    """Picklable description of a generic named-array (aux) segment."""

    name: str
    fields: Tuple[Tuple[str, int, int], ...]


class SharedGraphPlane:
    """A published plane segment; the parent-side owner object."""

    def __init__(self, seg, handle: PlaneHandle) -> None:
        self._seg = seg
        self.handle = handle

    @property
    def name(self) -> str:
        return self.handle.name

    def unlink(self) -> None:
        _unlink_segment(self.handle.name)


class SweepRequest:
    """A published per-sweep request segment (eids + allowed mask)."""

    def __init__(self, seg, handle: RequestHandle) -> None:
        self._seg = seg
        self.handle = handle

    @property
    def name(self) -> str:
        return self.handle.name

    def unlink(self) -> None:
        _unlink_segment(self.handle.name)


class SweepBaseState:
    """A published per-sweep base-state segment (the parent's base sweep)."""

    def __init__(self, seg, handle: BaseStateHandle) -> None:
        self._seg = seg
        self.handle = handle

    @property
    def name(self) -> str:
        return self.handle.name

    def unlink(self) -> None:
        _unlink_segment(self.handle.name)


class AuxSegment:
    """A published generic named-array segment (owner side)."""

    def __init__(self, seg, handle: AuxHandle) -> None:
        self._seg = seg
        self.handle = handle

    @property
    def name(self) -> str:
        return self.handle.name

    def unlink(self) -> None:
        _unlink_segment(self.handle.name)


# ----------------------------------------------------------------------
# publishing
# ----------------------------------------------------------------------
def publish_graph(graph: Graph) -> Optional[SharedGraphPlane]:
    """Publish the graph's CSR view; None = transport unavailable."""
    if not transport_enabled():
        return None
    from repro.engine.csr import csr_view

    try:
        csr = csr_view(graph)
        seg, fields = _publish_arrays(
            [
                ("indptr", csr.indptr),
                ("indices", csr.indices),
                ("edge_ids", csr.edge_ids),
                ("edge_u", csr.edge_u),
                ("edge_v", csr.edge_v),
            ],
            "plane",
        )
    except _PUBLISH_ERRORS:
        return None
    handle = PlaneHandle(
        name=seg.name,
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        fields=fields,
        graph_name=graph.name,
    )
    return SharedGraphPlane(seg, handle)


def publish_tree(graph: Graph, weights, tree) -> Optional[SharedGraphPlane]:
    """Publish CSR + perturbations + tree arrays for the weighted sweep.

    None when the transport is unavailable *or* the weight assignment
    has no fixed-width export (the exact scheme's big-int ``2**eid``
    perturbations) - callers fall back to the pickle transport, exactly
    like the array kernels fall back to the reference Dijkstra.
    """
    if not transport_enabled():
        return None
    export = weights.pert_array()
    if export is None:
        return None
    perts, max_pert = export
    from repro.engine.csr import csr_view

    pert0 = tree.dist_perturbations(weights)
    try:
        csr = csr_view(graph)
    except _PUBLISH_ERRORS:
        return None
    return publish_plane_arrays(
        [
            ("indptr", csr.indptr),
            ("indices", csr.indices),
            ("edge_ids", csr.edge_ids),
            ("edge_u", csr.edge_u),
            ("edge_v", csr.edge_v),
            ("pert", perts),
            ("tree_hop", tree.depth),
            ("tree_pert", pert0),
            ("tree_parent", tree.parent),
            ("tree_parent_eid", tree.parent_eid),
            ("tree_tin", tree.tin),
            ("tree_tout", tree.tout),
            ("tree_preorder", tree.preorder),
        ],
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        graph_name=graph.name,
        weights_meta=(weights.shift, weights.scheme, weights.seed, int(max_pert)),
        tree_source=tree.source,
    )


def publish_plane_arrays(
    items,
    *,
    num_vertices: int,
    num_edges: int,
    graph_name: str = "",
    weights_meta: Optional[Tuple[int, str, int, int]] = None,
    tree_source: Optional[int] = None,
) -> Optional[SharedGraphPlane]:
    """Publish a plane directly from ``(key, array)`` pairs.

    The plane-from-mapped-buffer path: callers holding already-mapped
    arrays (a loaded oracle snapshot, another plane) republish them
    without rebuilding the live objects a :func:`publish_tree` needs.
    The keys must follow the plane field conventions (``indptr`` ...
    ``tree_preorder``) for :func:`attach_plane` to build façades.  None
    when the transport is unavailable or the publish fails, like every
    other publisher.
    """
    if not transport_enabled():
        return None
    try:
        seg, fields = _publish_arrays(list(items), "plane")
    except _PUBLISH_ERRORS:
        return None
    handle = PlaneHandle(
        name=seg.name,
        num_vertices=int(num_vertices),
        num_edges=int(num_edges),
        fields=fields,
        graph_name=graph_name,
        weights_meta=weights_meta,
        tree_source=None if tree_source is None else int(tree_source),
    )
    return SharedGraphPlane(seg, handle)


def publish_aux_arrays(items) -> Optional[AuxSegment]:
    """Publish a generic named-array segment (kind ``aux``).

    ``items`` is a sequence of ``(key, array)`` pairs; the attach side
    gets the same keys back from :func:`attach_aux_arrays`.  The caller
    owns the lifetime (unlink explicitly, like a request segment).
    """
    if not transport_enabled():
        return None
    try:
        seg, fields = _publish_arrays(list(items), "aux")
    except _PUBLISH_ERRORS:
        return None
    return AuxSegment(seg, AuxHandle(name=seg.name, fields=fields))


def publish_request(
    eids: Sequence[EdgeId],
    allowed_edges: Optional[Set[EdgeId]] = None,
    source: Vertex = -1,
) -> Optional[SweepRequest]:
    """Publish one sweep's request (edge ids + optional allowed mask)."""
    if not transport_enabled():
        return None
    arrays = [("eids", list(eids))]
    if allowed_edges is not None:
        arrays.append(("allowed", sorted(allowed_edges)))
    try:
        seg, fields = _publish_arrays(arrays, "request")
    except _PUBLISH_ERRORS:
        return None
    handle = RequestHandle(
        name=seg.name,
        fields=fields,
        source=int(source),
        has_allowed=allowed_edges is not None,
    )
    return SweepRequest(seg, handle)


def publish_base_state(sweep_handle) -> Optional[SweepBaseState]:
    """Publish an unweighted sweep's precomputed base-state arrays.

    ``sweep_handle`` is the parent's :class:`SweepHandle`; only handles
    exposing ``base_state()`` (the csr :class:`FailureSweep`) can ship -
    anything else (the reference engine's lazy handle) returns None and
    workers compute (and memoize) their own base traversal, exactly the
    pre-base-state behavior.  Lifetime matches the request segment: the
    sharded engine unlinks both when the sweep completes.
    """
    if not transport_enabled():
        return None
    state = getattr(sweep_handle, "base_state", None)
    if state is None:
        return None
    try:
        seg, fields = _publish_arrays(list(state()), "base")
    except _PUBLISH_ERRORS:
        return None
    return SweepBaseState(seg, BaseStateHandle(name=seg.name, fields=fields))


# ----------------------------------------------------------------------
# plane caches (publish once, reuse across sweeps)
# ----------------------------------------------------------------------
#: id(graph) -> plane.  Entries are dropped (and segments unlinked) by a
#: ``weakref.finalize`` on the graph, so a plane lives exactly as long
#: as the graph it mirrors.
_GRAPH_PLANES: Dict[int, SharedGraphPlane] = {}

#: (id(tree), id(weights)) -> plane, same finalizer discipline (keyed on
#: the tree, which holds the graph and weights alive).
_TREE_PLANES: Dict[Tuple[int, int], SharedGraphPlane] = {}


def _drop_graph_plane(key: int) -> None:
    plane = _GRAPH_PLANES.pop(key, None)
    if plane is not None:
        plane.unlink()


def _drop_tree_plane(key: Tuple[int, int]) -> None:
    plane = _TREE_PLANES.pop(key, None)
    if plane is not None:
        plane.unlink()


def graph_plane(graph: Graph) -> Optional[SharedGraphPlane]:
    """The cached plane for ``graph``, published on first use."""
    key = id(graph)
    plane = _GRAPH_PLANES.get(key)
    if plane is not None and plane.name in _OWNED:
        return plane
    plane = publish_graph(graph)
    if plane is not None:
        _GRAPH_PLANES[key] = plane
        weakref.finalize(graph, _drop_graph_plane, key)
    return plane


def tree_plane(graph: Graph, weights, tree) -> Optional[SharedGraphPlane]:
    """The cached weighted plane for ``(graph, weights, tree)``."""
    key = (id(tree), id(weights))
    plane = _TREE_PLANES.get(key)
    if plane is not None and plane.name in _OWNED:
        return plane
    plane = publish_tree(graph, weights, tree)
    if plane is not None:
        _TREE_PLANES[key] = plane
        weakref.finalize(tree, _drop_tree_plane, key)
    return plane


# ----------------------------------------------------------------------
# worker-side façades
# ----------------------------------------------------------------------
class SharedGraph(Graph):
    """Graph façade over an attached CSR view.

    The attached view *is* the ``_csr_cache``, so array engines run
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
        # materialize lazily from the attached arrays.
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
        # containers first (the attached view itself is never shipped).
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
    segment: numpy views do not keep a ``SharedMemory`` alive on their
    own (its ``__del__`` unmaps under surviving views).  ``pert`` may
    also be a plain list (the snapshot loader's no-numpy fallback).
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


def _build_weights(handle: PlaneHandle, arrays, owner):
    shift, scheme, seed, max_pert = handle.weights_meta
    return weights_facade(arrays["pert"], shift, scheme, seed, max_pert, owner)


def tree_facade(graph: Graph, weights, source: int, arrays):
    """A :class:`~repro.spt.spt_tree.ShortestPathTree` façade over
    mapped (or listed) ``tree_*`` planes.

    Carries exactly the fields the failure sweeps and the query oracle
    consume; shared by the worker-side plane attach and the snapshot
    loader so the array decomposition never diverges.
    """
    from repro.spt.spt_tree import ShortestPathTree

    tree = ShortestPathTree.__new__(ShortestPathTree)
    tree.graph = graph
    tree.weights = weights
    tree.source = source
    hop = _plain(arrays["tree_hop"])
    pert = _plain(arrays["tree_pert"])
    shift = weights.shift
    tree.dist = [
        None if h < 0 else (h << shift) + p for h, p in zip(hop, pert)
    ]
    tree.depth = hop
    tree.parent = _plain(arrays["tree_parent"])
    tree.parent_eid = _plain(arrays["tree_parent_eid"])
    tree.tin = _plain(arrays["tree_tin"])
    tree.tout = _plain(arrays["tree_tout"])
    tree.preorder = _plain(arrays["tree_preorder"])
    # children / binary-lifting tables are deliberately not rebuilt: no
    # failure-sweep path touches them (lca() would need a full rebuild).
    # The mapped int64 decomposition, for engines that can consume it
    # directly (``CSREngine.prepared_weighted_sweep``): the attached
    # views instead of the Python lists above, so a worker's sweep setup
    # never pays the O(n) list/big-int round trips again.
    tree._base_state = {
        "hop": arrays["tree_hop"],
        "pert": arrays["tree_pert"],
        "parent_eid": arrays["tree_parent_eid"],
        "tin": arrays["tree_tin"],
        "tout": arrays["tree_tout"],
        "preorder": arrays["tree_preorder"],
    }
    return tree


def _build_tree(handle: PlaneHandle, graph: Graph, weights, arrays):
    return tree_facade(graph, weights, handle.tree_source, arrays)


# ----------------------------------------------------------------------
# worker-side attachment caches
# ----------------------------------------------------------------------
#: Attachments this process holds: segment name -> (seg, payload).
#: Bounded LRU with recency refreshed on every hit; eviction just drops
#: the cache's reference.  That is only safe because every façade pins
#: the segment (``CSRAdjacency.owner`` / ``_SharedWeights._owner``):
#: numpy's base chain does NOT keep a ``SharedMemory`` alive, and its
#: ``__del__`` unmaps the buffer under any surviving views (a
#: use-after-unmap segfault, pinned by ``tests/test_shm.py``).
_ATTACHED: "OrderedDict[str, Tuple[object, object]]" = OrderedDict()
_ATTACH_CAP = 4

#: Memoized base sweeps: (plane, request, engine) -> SweepHandle, so a
#: persistent worker computes each sweep's base BFS once, not per shard.
_SWEEP_STATE: "OrderedDict[Tuple[str, str, str], object]" = OrderedDict()
_SWEEP_CAP = 4


def _remember(cache: OrderedDict, cap: int, key, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > cap:
        cache.popitem(last=False)


def _recall(cache: OrderedDict, key):
    """Cache lookup that refreshes LRU recency on a hit."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
    return value


def _attach_arrays(name: str, fields):
    import numpy as np

    seg = _open_segment(name)
    arrays = {}
    for key, offset, length in fields:
        arr = np.ndarray((length,), dtype=np.int64, buffer=seg.buf, offset=offset)
        arr.setflags(write=False)
        arrays[key] = arr
    return seg, arrays


def attach_plane(handle: PlaneHandle):
    """Attach a plane, returning ``(graph, weights, tree)`` façades.

    ``weights``/``tree`` are None for graph-only planes.  Cached per
    segment name, so repeated shards of one sweep attach exactly once.
    """
    return attach_plane_arrays(handle)[:3]


def attach_plane_arrays(handle: PlaneHandle):
    """Attach a plane, returning ``(graph, weights, tree, arrays)``.

    Like :func:`attach_plane` plus the raw mapped field dict - consumers
    that index the planes directly (the query oracle's O(path) lookups)
    get them without a second attach.  The façades pin the segment; a
    caller holding only ``arrays`` must keep one of them (or the dict's
    graph) alive.
    """
    cached = _recall(_ATTACHED, handle.name)
    if cached is None:
        from repro.engine.csr import CSRAdjacency

        seg, arrays = _attach_arrays(handle.name, handle.fields)
        csr = CSRAdjacency.from_arrays(
            handle.num_vertices, handle.num_edges, arrays, owner=seg
        )
        graph = SharedGraph(csr, name=handle.graph_name)
        weights = tree = None
        if handle.weights_meta is not None:
            weights = _build_weights(handle, arrays, seg)
        if handle.tree_source is not None:
            tree = _build_tree(handle, graph, weights, arrays)
        cached = (seg, (graph, weights, tree, arrays))
        _remember(_ATTACHED, _ATTACH_CAP, handle.name, cached)
    return cached[1]


def attach_aux_arrays(handle: AuxHandle):
    """Attach an aux segment, returning its named-array dict (cached).

    The dict's ``"owner"`` entry pins the mapping (see the ``_ATTACHED``
    eviction note): hold the dict, not just an array pulled out of it.
    """
    cached = _recall(_ATTACHED, handle.name)
    if cached is None:
        seg, arrays = _attach_arrays(handle.name, handle.fields)
        arrays["owner"] = seg
        cached = (seg, arrays)
        _remember(_ATTACHED, _ATTACH_CAP, handle.name, cached)
    return cached[1]


@dataclass(frozen=True)
class RequestView:
    """An attached request.  ``owner`` pins the segment under ``eids``
    (see the ``_ATTACHED`` eviction note); hold the view, not just the
    array."""

    eids: object
    allowed: Optional[Set[EdgeId]]
    owner: object


def attach_request(handle: RequestHandle) -> RequestView:
    """Attach a request segment (cached per name, like planes)."""
    cached = _recall(_ATTACHED, handle.name)
    if cached is None:
        seg, arrays = _attach_arrays(handle.name, handle.fields)
        allowed = (
            set(arrays["allowed"].tolist()) if handle.has_allowed else None
        )
        cached = (seg, RequestView(arrays["eids"], allowed, seg))
        _remember(_ATTACHED, _ATTACH_CAP, handle.name, cached)
    return cached[1]


# ----------------------------------------------------------------------
# worker shard bodies (submitted by the sharded engine)
# ----------------------------------------------------------------------
def _attach_base_state(base_handle: BaseStateHandle):
    """Attach a base-state segment, returning its array dict (cached)."""
    cached = _recall(_ATTACHED, base_handle.name)
    if cached is None:
        seg, arrays = _attach_arrays(base_handle.name, base_handle.fields)
        # ``owner`` rides in the dict: the rebuilt sweep handle must pin
        # the segment (see the ``_ATTACHED`` eviction note).
        arrays["owner"] = seg
        cached = (seg, arrays)
        _remember(_ATTACHED, _ATTACH_CAP, base_handle.name, cached)
    return cached[1]


def _base_sweep_state(
    plane_handle: PlaneHandle,
    request_handle: RequestHandle,
    base_handle: Optional[BaseStateHandle],
    engine_name: str,
):
    """The memoized base sweep handle for one (plane, request, engine).

    With a base-state segment published (and an engine that can consume
    it), the handle is *rebuilt* from the mapped arrays in O(1) instead
    of re-running the base traversal - the shard fixed cost the
    base-state plane exists to eliminate.  Either way the handle is
    memoized, so at most the sweep's first shard in each worker pays
    anything at all.
    """
    key = (plane_handle.name, request_handle.name, engine_name)
    handle = _recall(_SWEEP_STATE, key)
    if handle is None:
        from repro.engine.registry import get_engine

        graph, _, _ = attach_plane(plane_handle)
        request = attach_request(request_handle)
        engine = get_engine(engine_name)
        rebuild = getattr(engine, "sweep_from_base_state", None)
        if base_handle is not None and rebuild is not None:
            arrays = dict(_attach_base_state(base_handle))
            owner = arrays.pop("owner")
            handle = rebuild(
                graph,
                request_handle.source,
                arrays,
                allowed_edges=request.allowed,
            )
            handle._segment_owner = owner  # pin the mapping (see above)
        else:
            handle = engine.sweep(
                graph, request_handle.source, allowed_edges=request.allowed
            )
        _remember(_SWEEP_STATE, _SWEEP_CAP, key, handle)
    return handle


def _shm_sweep_shard(
    plane_handle: PlaneHandle,
    request_handle: RequestHandle,
    base_handle: Optional[BaseStateHandle],
    lo: int,
    hi: int,
    engine_name: str,
) -> List[Sequence[int]]:
    """Worker body: one ``failure_sweep`` slice over attached segments."""
    request = attach_request(request_handle)
    handle = _base_sweep_state(
        plane_handle, request_handle, base_handle, engine_name
    )
    return [handle.failed(int(eid)) for eid in request.eids[lo:hi]]


def _weighted_sweep_state(
    plane_handle: PlaneHandle, request_handle: RequestHandle, engine_name: str
):
    """The memoized weighted-sweep setup for one (plane, request, engine).

    Engines exposing ``prepared_weighted_sweep`` (csr) get their whole
    per-sweep setup - plan gating, decomposition arrays (zero-copy off
    the plane via the tree façade's ``_base_state``), the edge->child
    map and chunk sizes - built once per worker and shared by every
    shard; the mapped plane arrays feed csr's C weighted kernel
    directly.  Engines without the hook (or requests the plan rejects)
    memoize None and run each shard through the engine's own sweep, the
    pre-memoization behavior.
    """
    key = (plane_handle.name, request_handle.name, engine_name, "weighted")
    state = _recall(_SWEEP_STATE, key)
    if state is None:
        from repro.engine.registry import get_engine

        graph, weights, tree = attach_plane(plane_handle)
        request = attach_request(request_handle)
        engine = get_engine(engine_name)
        prepare = getattr(engine, "prepared_weighted_sweep", None)
        prepared = None
        if prepare is not None:
            prepared = prepare(
                graph, weights, tree, request.eids.tolist()
            )
        state = (prepared,)
        _remember(_SWEEP_STATE, _SWEEP_CAP, key, state)
    return state[0]


def _shm_weighted_shard(
    plane_handle: PlaneHandle,
    request_handle: RequestHandle,
    base_handle: Optional[BaseStateHandle],  # unused: weighted state rides the plane
    lo: int,
    hi: int,
    engine_name: str,
):
    """Worker body: one ``weighted_failure_sweep`` slice, attached."""
    prepared = _weighted_sweep_state(plane_handle, request_handle, engine_name)
    if prepared is not None:
        return list(prepared.items(lo, hi))
    from repro.engine.registry import get_engine

    graph, weights, tree = attach_plane(plane_handle)
    request = attach_request(request_handle)
    shard = [int(eid) for eid in request.eids[lo:hi].tolist()]
    return list(
        get_engine(engine_name).weighted_failure_sweep(
            graph, weights, tree, eids=shard
        )
    )
