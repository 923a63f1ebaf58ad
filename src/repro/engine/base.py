"""The traversal-engine contract.

A :class:`TraversalEngine` is the single dispatch point for every
unweighted (hop) traversal in the library, plus the weighted tie-broken
Dijkstra used by the construction.  Two implementations ship by default
(see :mod:`repro.engine.registry`):

``"python"``
    The executable specification: pure-Python adjacency-list loops,
    byte-for-byte the library's historical behavior.
``"csr"``
    Frontier-based numpy kernels over a cached CSR view of the graph
    (:mod:`repro.engine.csr` / :mod:`repro.engine.kernels`).  Registered
    only when numpy is importable.
``"sharded"``
    A wrapper (:mod:`repro.engine.sharded`) that delegates everything to
    a single-process base engine but fans ``failure_sweep`` batches out
    over worker processes — the sweep is embarrassingly parallel over
    edge ids, and contiguous sharding keeps it bit-identical to the base.

Contract
--------
* ``distances`` / ``parents`` / ``distances_subset`` must be
  *bit-identical* to the python engine for every input: same distance
  lists, same parent maps (including tie-breaking, which both engines
  derive from the graph's adjacency-list order), same dict contents.
* ``failure_sweep`` yields, for each requested edge id, the hop-distance
  vector of ``G \\ {e}`` (or ``H \\ {e}`` when ``allowed_edges`` masks the
  graph down to a structure).  Backends may return any integer sequence
  type (the csr engine yields numpy arrays, possibly *shared* between
  failures whose distances coincide with the no-failure base - callers
  must treat yielded vectors as read-only); only the values are part of
  the contract.
* ``shortest_paths`` / ``seeded_shortest_paths`` run the weighted
  tie-broken Dijkstra and must be *bit-identical* to the reference in
  :mod:`repro.spt.dijkstra`: same big-int distances, same
  parent/parent-edge trees, and the same
  :class:`~repro.errors.TieBreakError` behavior (ties are detected at
  relaxation time, an order-dependent event).  A composite weight is
  the lexicographic pair ``(hops, pert_sum)``; the full composite
  ``hops << shift`` overflows ``int64``, but the two components fit
  fixed width *separately* for the random scheme, which is how the csr
  engine's array kernels (:mod:`repro.engine.weighted_kernels`)
  implement the contract.  Backends advertise how they run weighted
  traversals via :attr:`TraversalEngine.weighted_backend`; assignments
  a backend cannot represent (the exact scheme's ``2**eid``
  perturbations) must transparently fall back to the reference.
* **Batched replacement primitives** (PR 4).  ``weighted_failure_sweep``
  yields, per failed tree edge of a
  :class:`~repro.spt.spt_tree.ShortestPathTree`, the replacement
  ``dist``/``parent``/``parent_eid`` maps restricted to the failed
  subtree - the weighted analogue of ``failure_sweep``.
  ``batched_shortest_paths`` and ``batched_seeded_shortest_paths`` run
  many independent weighted traversals (the Pcons detour Dijkstras, the
  vertex-fault subtree recomputes) through one amortized path.  The
  reference implementations *are* the per-call loops below, so parity
  between the per-call and batched paths holds by construction on the
  python engine; array backends must reproduce them bit-identically
  (maps, big-int distances, tie/error *kinds* - which of several
  simultaneous ties raises first is not part of the contract, only that
  one does).  Backends advertise these paths via
  :attr:`TraversalEngine.replacement_backend` and
  :attr:`TraversalEngine.detour_backend`.

Parity between registered engines is enforced by
``tests/test_engine_parity.py`` and ``tests/test_weighted_parity.py``;
the python engine remains the spec.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro._types import EdgeId, Vertex
from repro.graphs.graph import Graph

__all__ = [
    "TraversalEngine",
    "SweepHandle",
    "UNREACHABLE",
    "distances_equal",
    "num_unreachable",
    "replacement_failure",
    "ReplacementSweepItem",
    "SeedBatch",
]

#: One item of ``weighted_failure_sweep``: ``(eid, child, dist, parent,
#: parent_eid)`` with the maps keyed by the failed subtree's vertices
#: (``dist[v] is None`` where the failure disconnects ``v``; parents of
#: boundary vertices point outside the subtree).
ReplacementSweepItem = Tuple[
    EdgeId,
    Vertex,
    Dict[Vertex, Optional[int]],
    Dict[Vertex, Vertex],
    Dict[Vertex, EdgeId],
]

#: One batch of ``batched_seeded_shortest_paths``: ``(seeds,
#: allowed_vertices, banned_edge)`` with the same semantics as a single
#: ``seeded_shortest_paths`` call.
SeedBatch = Tuple[Sequence[Tuple[int, Vertex, Vertex, EdgeId]], Set[Vertex], Optional[EdgeId]]

#: Sentinel hop distance for unreachable vertices (shared by all engines).
UNREACHABLE = -1


class SweepHandle:
    """A prepared failure sweep: one base traversal, many failures.

    Obtained from :meth:`TraversalEngine.sweep`.  ``base_distances`` is
    the no-failure distance vector (computed once and shared with every
    no-op failure); ``failed(eid)`` is the distance vector after failing
    ``eid``.  Ids that do not name an edge of the (masked) graph ban
    nothing, exactly like the reference BFS's ``banned_edge`` filter.
    Returned vectors may be shared - treat them as read-only.
    """

    def base_distances(self) -> Sequence[int]:
        raise NotImplementedError

    def failed(self, eid: EdgeId) -> Sequence[int]:
        raise NotImplementedError


class TraversalEngine:
    """Abstract traversal backend; see the module docstring for the contract."""

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Human-readable description of how this engine runs the weighted
    #: traversals (``repro engines`` and E16 report it).
    weighted_backend: str = "reference big-int Dijkstra"

    #: How the engine computes the weighted failure sweep (``repro
    #: engines`` and E16's ``replacement`` column report it).
    replacement_backend: str = "per-edge seeded recompute (reference)"

    #: How the engine runs batched multi-source traversals (``repro
    #: engines`` and E16's ``detour_batch`` column report it).
    detour_backend: str = "per-source reference Dijkstra"

    #: How the engine moves inputs to its compute (``repro engines``
    #: reports it).  In-process engines share the caller's memory; the
    #: sharded engine overrides this with its cross-process transport
    #: (shared-memory plane vs pickle, see :mod:`repro.engine.shm`).
    transport: str = "in-process"

    #: How many concurrent executors the engine's sweeps run on
    #: (``repro engines`` reports it).  Single-process engines run the
    #: caller's one thread; the sharded/threaded engines override this
    #: with their resolved worker/thread budget.
    threads: str = "1 (the calling thread)"

    #: Which shared-memory plane segments the engine publishes for its
    #: sweeps (``repro engines`` reports it; see :mod:`repro.engine.shm`
    #: for the graph / tree / base-state / request segment kinds).
    plane_segments: str = "none (in-process memory)"

    #: Which compiled toolchain backs the engine's kernels (``repro
    #: engines`` reports it).  Interpreted engines have none; the csr
    #: engine overrides this with its resolved cc, flags, and kernel
    #: cache path (see :mod:`repro.engine.cbuild`).
    compiler: str = "none (interpreted/numpy kernels)"

    #: Whether ``failure_sweep``/``weighted_failure_sweep`` fan out over
    #: parallel executors.  The verification oracle streams its two
    #: sweep sides through ``failure_sweep`` (with a ``halved()`` budget
    #: each) on such engines instead of sharing per-side sweep handles.
    parallel_sweeps: bool = False

    # -- unweighted (hop) traversals -----------------------------------
    def distances(
        self,
        graph: Graph,
        source: Vertex,
        *,
        banned_edge: Optional[EdgeId] = None,
        banned_edges: Optional[Set[EdgeId]] = None,
        banned_vertices: Optional[Set[Vertex]] = None,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> List[int]:
        """Hop distances from ``source``; ``UNREACHABLE`` where unreached."""
        raise NotImplementedError

    def parents(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Dict[Vertex, Vertex]:
        """BFS parent map ``{vertex: parent}`` (source maps to itself)."""
        raise NotImplementedError

    def distances_subset(
        self,
        graph: Graph,
        source: Vertex,
        targets: Iterable[Vertex],
        *,
        banned_edge: Optional[EdgeId] = None,
        banned_edges: Optional[Set[EdgeId]] = None,
        banned_vertices: Optional[Set[Vertex]] = None,
    ) -> Dict[Vertex, int]:
        """Hop distances to a target subset (``UNREACHABLE`` where unreached)."""
        raise NotImplementedError

    def sweep(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> SweepHandle:
        """Prepare a failure sweep over the (optionally masked) graph.

        The handle shares one base traversal between the no-failure
        vector and every failure, so callers that need both (the
        verification oracle) pay for the base exactly once per side.
        """
        raise NotImplementedError

    def failure_sweep(
        self,
        graph: Graph,
        source: Vertex,
        eids: Sequence[EdgeId],
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Iterator[Sequence[int]]:
        """Hop-distance vectors after failing each edge of ``eids`` in turn.

        Equivalent to ``distances(graph, source, banned_edge=e,
        allowed_edges=allowed_edges)`` per edge, but backends amortize
        work across the whole sweep via :meth:`sweep`.  Lazy: nothing is
        computed until the first vector is consumed, so early-exiting
        callers (verification hitting ``max_violations``) stay cheap.
        """
        handle: Optional[SweepHandle] = None
        for eid in eids:
            if handle is None:
                handle = self.sweep(graph, source, allowed_edges=allowed_edges)
            yield handle.failed(eid)

    # -- weighted tie-broken traversals --------------------------------
    def shortest_paths(
        self,
        graph: Graph,
        weights,
        source: Vertex,
        *,
        banned_vertices: Optional[Set[Vertex]] = None,
        banned_edge: Optional[EdgeId] = None,
        banned_edges: Optional[Set[EdgeId]] = None,
        allowed_edges: Optional[Set[EdgeId]] = None,
        raise_on_tie: bool = True,
    ):
        """Weighted Dijkstra under composite tie-breaking weights."""
        raise NotImplementedError

    def seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        seeds,
        *,
        allowed_vertices: Set[Vertex],
        banned_edge: Optional[EdgeId] = None,
        raise_on_tie: bool = True,
    ):
        """Boundary-seeded Dijkstra restricted to ``allowed_vertices``."""
        raise NotImplementedError

    # -- batched replacement primitives --------------------------------
    def weighted_failure_sweep(
        self,
        graph: Graph,
        weights,
        tree,
        eids: Optional[Sequence[EdgeId]] = None,
    ) -> Iterator[ReplacementSweepItem]:
        """Replacement data for every failed tree edge, amortized.

        For each tree edge of ``tree`` (or the explicit ``eids`` subset,
        in order; ids that are not tree edges raise
        :class:`~repro.errors.GraphError`) yields the weighted
        replacement ``dist``/``parent``/``parent_eid`` maps of the
        failed subtree - exactly what a per-edge
        ``seeded_shortest_paths`` recompute produces.  This reference
        implementation *is* that per-edge loop; array backends stack the
        subtree recomputes into shared level passes.  Lazy: nothing is
        computed until the first item is consumed.
        """
        if eids is None:
            eids = tree.tree_edges()
        for eid in eids:
            yield replacement_failure(self, graph, weights, tree, eid)

    def batched_shortest_paths(
        self,
        graph: Graph,
        weights,
        sources: Sequence[Vertex],
        banned_vertices_per_source: Optional[Iterable[Optional[Set[Vertex]]]] = None,
        *,
        raise_on_tie: bool = True,
    ):
        """Independent weighted Dijkstras from many sources, amortized.

        Yields one :class:`~repro.spt.result.ShortestPathResult` per
        source, in order, each bit-identical to the corresponding
        ``shortest_paths(source, banned_vertices=...)`` call.
        ``banned_vertices_per_source`` may be any iterable consumed in
        lockstep with ``sources`` (callers with large ban sets stream
        them one at a time); a length mismatch raises GraphError.
        Invalid inputs raise at or before the offending source's
        position in the stream.  Lazy - consume with
        ``zip(sources, ...)``.
        """
        for source, banned in _zip_sources_and_bans(
            sources, banned_vertices_per_source
        ):
            yield self.shortest_paths(
                graph,
                weights,
                source,
                banned_vertices=banned,
                raise_on_tie=raise_on_tie,
            )

    def batched_seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        batches: Iterable[SeedBatch],
        *,
        raise_on_tie: bool = True,
    ):
        """Independent boundary-seeded Dijkstras, amortized.

        ``batches`` holds ``(seeds, allowed_vertices, banned_edge)``
        triples; yields one result per batch, in order, each
        bit-identical to the corresponding ``seeded_shortest_paths``
        call (a batch with no seeds settles nothing).  Lazy.
        """
        for seeds, allowed_vertices, banned_edge in batches:
            yield self.seeded_shortest_paths(
                graph,
                weights,
                list(seeds),
                allowed_vertices=allowed_vertices,
                banned_edge=banned_edge,
                raise_on_tie=raise_on_tie,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _zip_sources_and_bans(
    sources: Sequence[Vertex],
    bans: Optional[Iterable[Optional[Set[Vertex]]]],
):
    """Pair each source with its ban set, failing fast on a length
    mismatch instead of silently truncating like plain ``zip``."""
    if bans is None:
        for source in sources:
            yield source, None
        return
    from itertools import zip_longest

    from repro.errors import GraphError

    sentinel = object()
    for source, banned in zip_longest(sources, bans, fillvalue=sentinel):
        if source is sentinel or banned is sentinel:
            raise GraphError(
                "sources and banned_vertices_per_source have different lengths"
            )
        yield source, banned


def replacement_failure(
    engine: TraversalEngine, graph: Graph, weights, tree, eid: EdgeId
) -> ReplacementSweepItem:
    """One failed tree edge's replacement data, the reference way.

    Seeds: for every edge ``(a, b)`` crossing into the failed subtree,
    the outer endpoint ``a`` keeps its original distance (its shortest
    path cannot enter the subtree); entering through the edge costs
    ``W(ab)``.  The recompute is a seeded traversal restricted to the
    subtree, dispatched through ``engine.seeded_shortest_paths``.  This
    is the executable spec of ``weighted_failure_sweep`` and the lazy
    single-failure path of :class:`repro.spt.replacement.ReplacementEngine`.
    """
    child = tree.edge_child(eid)
    sub = tree.subtree_vertices(child)
    sub_set = set(sub)
    tin, tout = tree.tin[child], tree.tout[child]
    tins = tree.tin
    dist0 = tree.dist
    w_arr = weights.weights

    seeds: List[Tuple[int, Vertex, Vertex, EdgeId]] = []
    for b in sub:
        for a, cross_eid in graph.adjacency(b):
            if cross_eid == eid:
                continue
            ta = tins[a]
            if tin <= ta < tout and ta != -1:
                continue  # internal edge
            da = dist0[a]
            if da is None:
                continue  # outer endpoint itself unreachable
            seeds.append((da + w_arr[cross_eid], b, a, cross_eid))

    if seeds:
        sp = engine.seeded_shortest_paths(
            graph, weights, seeds, allowed_vertices=sub_set, banned_edge=eid
        )
        dist = {v: sp.dist[v] for v in sub}
        parent = {v: sp.parent[v] for v in sub if sp.dist[v] is not None}
        parent_eid = {v: sp.parent_eid[v] for v in sub if sp.dist[v] is not None}
    else:
        dist = {v: None for v in sub}
        parent = {}
        parent_eid = {}
    return eid, child, dist, parent, parent_eid


def distances_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether two distance vectors (lists or numpy arrays) coincide."""
    if type(a) is list and type(b) is list:
        return a == b
    import numpy as np

    return bool(np.array_equal(a, b))


def num_unreachable(dist: Sequence[int]) -> int:
    """Count ``UNREACHABLE`` entries of a distance vector (list or array)."""
    if type(dist) is list:
        return sum(1 for d in dist if d == UNREACHABLE)
    import numpy as np

    return int(np.count_nonzero(np.asarray(dist) == UNREACHABLE))
