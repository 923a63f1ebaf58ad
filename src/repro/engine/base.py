"""The traversal-engine contract.

A :class:`TraversalEngine` is the single dispatch point for every
unweighted (hop) traversal in the library, plus the weighted tie-broken
Dijkstra used by the construction.  Two implementations ship by default
(see :mod:`repro.engine.registry`):

``"python"``
    The executable specification: pure-Python adjacency-list loops,
    byte-for-byte the library's historical behavior.
``"csr"``
    C kernels (:mod:`repro.engine.compiled`) with frontier-based numpy
    kernels as their fallback, over a cached CSR view of the graph
    (:mod:`repro.engine.csr` / :mod:`repro.engine.kernels`).  Registered
    only when numpy is importable.

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
  :class:`~repro.errors.TieBreakError` and
  :class:`~repro.errors.GraphError` behavior (ties are detected at
  relaxation time, an order-dependent event, and always raise).  A
  composite weight is the lexicographic pair ``(hops, pert_sum)``; the
  full composite ``hops << shift`` overflows ``int64``, but the two
  components fit fixed width *separately* for the random scheme, which
  is how the csr engine's array kernels
  (:mod:`repro.engine.weighted_kernels`) implement the contract.
  Backends advertise how they run weighted traversals via
  :attr:`TraversalEngine.weighted_backend`.  Any weighted call may be
  handed back to the reference: assignments a backend cannot represent
  (the exact scheme's ``2**eid`` perturbations), and calls whose
  kernel meets a possible tie or an invalid seed, transparently rerun
  on it, which is the only implementation of tie and seed-error
  semantics.
* **Target radius.**  ``shortest_paths(..., targets=T)`` may stop
  early: with ``R`` the largest hop count among ``T``, every vertex
  within ``R`` hops reads exactly what the full run reads, and every
  vertex beyond reads unreachable (``dist`` ``None``, parents ``-1``).
  A target that the run never labels (unreachable or banned) gives the
  full run; an empty ``T`` leaves only the source; ``targets=None`` is
  the full run.  A tie met beyond ``R`` does not raise.  A target id
  outside ``[0, n)`` raises :class:`~repro.errors.GraphError`.  Seeded
  runs take no targets: a seed can lower a label's hop count, so ``R``
  is not fixed while they run.
* **Results.**  Array backends hand back
  :meth:`~repro.spt.result.ShortestPathResult.from_levels` results,
  whose big-int ``dist`` list is built on first read;
  ``dist_at(v)`` reads one distance without building it.
* **Batched replacement primitives** (PR 4).  ``weighted_failure_sweep``
  yields, for the failed tree edges of a
  :class:`~repro.spt.spt_tree.ShortestPathTree`, the replacement rows
  over each failed subtree - the weighted analogue of ``failure_sweep``
  - in :class:`ReplacementRows` blocks; only the concatenated rows, not
  the blocking, are part of the contract.
  ``batched_shortest_paths`` and ``batched_seeded_shortest_paths`` run
  many independent weighted traversals (the Pcons detour Dijkstras, each
  with its own target set, and the vertex-fault subtree recomputes)
  through one amortized path.  The
  reference implementations *are* the per-call loops below, so parity
  between the per-call and batched paths holds by construction on the
  python engine; array backends must reproduce them bit-identically
  (rows, parent maps, big-int distances, tie/error *kinds* - which of
  several simultaneous ties raises first is not part of the contract,
  only that one does).  Backends advertise these paths via
  :attr:`TraversalEngine.replacement_backend` and
  :attr:`TraversalEngine.detour_backend`.
* **Phase S1 interference** (not a traversal, but Phase S1's hot loop).
  ``exists_live_partners`` answers, for each pair id of an
  :class:`~repro.core.interference.InterferenceIndex`, whether some
  partner in an allowed id set shares an internal detour vertex with
  it, has a different terminal, has a failing edge not
  ancestor-related to its own (the paper's ``!~``) and - when asked -
  is pi-intersected by it.  The reference implementation loops over
  :meth:`~repro.core.interference.InterferenceIndex.exists_live_partner`,
  which stays the spec; backends must return the same flags.  Backends
  advertise the path via :attr:`TraversalEngine.interference_backend`.

Parity between registered engines is enforced by
``tests/test_engine_parity.py``, ``tests/test_weighted_parity.py`` and
``tests/test_interference_parity.py``; the python engine remains the
spec.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
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
    "ReplacementRows",
    "SeedBatch",
]


class ReplacementRows(NamedTuple):
    """A block of ``weighted_failure_sweep`` rows, as plain int lists in
    the oracle snapshot's ``repl_*`` layout (:mod:`repro.oracle.snapshot`).

    One ``repl_eids``/``repl_child`` entry per failed tree edge;
    ``repl_offsets`` (from 0) delimits row ``i`` in the value planes,
    where it covers ``subtree_vertices(repl_child[i])`` in preorder.
    ``repl_hop`` is -1 where the failure disconnects the vertex (pert 0,
    parents -1); else the distance is ``(hop << shift) + pert`` (big
    ints under the exact scheme), and boundary parents lie outside.
    """

    repl_eids: List[EdgeId]
    repl_child: List[Vertex]
    repl_offsets: List[int]
    repl_hop: List[int]
    repl_pert: List[int]
    repl_parent: List[Vertex]
    repl_parent_eid: List[EdgeId]

    @classmethod
    def concat(cls, blocks: Iterable["ReplacementRows"]) -> "ReplacementRows":
        """The rows of ``blocks``, in order, as one block."""
        out = cls([], [], [0], [], [], [], [])
        for block in blocks:
            base = out.repl_offsets[-1]
            offsets = [base + o for o in block.repl_offsets[1:]]
            for plane, part in zip(out, block._replace(repl_offsets=offsets)):
                plane.extend(part)
        return out


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

    #: How the engine answers Phase S1's interference existence queries
    #: (``repro engines`` reports it).
    interference_backend: str = (
        "interpreted spec (InterferenceIndex.exists_live_partner)"
    )

    #: Which compiled toolchain backs the engine's kernels (``repro
    #: engines`` reports it).  Interpreted engines have none; the csr
    #: engine overrides this with its resolved cc, flags, and kernel
    #: cache path (see :mod:`repro.engine.cbuild`).
    compiler: str = "none (interpreted/numpy kernels)"

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
        targets: Optional[Iterable[Vertex]] = None,
    ):
        """Weighted Dijkstra under composite tie-breaking weights,
        stopped at the hop radius of ``targets`` when given."""
        raise NotImplementedError

    def seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        seeds,
        *,
        allowed_vertices: Set[Vertex],
        banned_edge: Optional[EdgeId] = None,
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
    ) -> Iterator[ReplacementRows]:
        """Replacement rows for every failed tree edge, amortized.

        Covers each tree edge of ``tree`` (or the explicit ``eids``
        subset, in order; ids that are not tree edges raise
        :class:`~repro.errors.GraphError`) with the row a per-edge
        ``seeded_shortest_paths`` recompute of the failed subtree
        produces, yielded in :class:`ReplacementRows` blocks.  This
        reference implementation *is* that per-edge loop, one block per
        edge; array backends stack the subtree recomputes into shared
        level passes and yield a block per stacked chunk.  Lazy:
        nothing is computed until the first block is consumed.
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
        banned_vertices_per_source: Optional[Iterable[Optional[Set[Vertex]]]],
        targets_per_source: Iterable[Optional[Iterable[Vertex]]],
    ):
        """Independent weighted Dijkstras from many sources, amortized.

        Yields one :class:`~repro.spt.result.ShortestPathResult` per
        source, in order, each bit-identical to the corresponding
        ``shortest_paths(source, banned_vertices=..., targets=...)``
        call.  ``banned_vertices_per_source`` (``None``: no bans) and
        ``targets_per_source`` may be any iterables consumed in
        lockstep with ``sources`` (callers with large sets stream them
        one at a time); a length mismatch raises GraphError.  Invalid
        inputs raise at or before the offending source's position in
        the stream.  Lazy - consume with ``zip(sources, ...)``.
        """
        for source, banned, targets in _zip_searches(
            sources, banned_vertices_per_source, targets_per_source
        ):
            yield self.shortest_paths(
                graph,
                weights,
                source,
                banned_vertices=banned,
                targets=targets,
            )

    def batched_seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        batches: Iterable[SeedBatch],
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
            )

    # -- Phase S1 interference -----------------------------------------
    def exists_live_partners(
        self,
        index,
        pair_ids: Sequence[int],
        allowed: Set[int],
        *,
        require_pi_intersect: bool,
    ) -> List[bool]:
        """Per id of ``pair_ids`` (pairs of ``index``): whether some
        partner in ``allowed`` passes the existence test of
        :meth:`~repro.core.interference.InterferenceIndex.exists_live_partner`.

        ``require_pi_intersect=True`` is Phase S1's type-A test; with
        ``False`` and ``allowed`` = live minus A it is the type-B test,
        and with every id allowed the ``I_1`` membership test.  This
        reference implementation *is* the per-pair loop.
        """
        by_id = index.by_id
        return [
            index.exists_live_partner(
                by_id[pid], allowed, require_pi_intersect=require_pi_intersect
            )
            for pid in pair_ids
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def _zip_searches(
    sources: Sequence[Vertex],
    bans: Optional[Iterable[Optional[Set[Vertex]]]],
    targets: Iterable[Optional[Iterable[Vertex]]],
):
    """``(source, banned, targets)`` per search of a batch, failing fast
    on a length mismatch instead of silently truncating like plain
    ``zip``; ``bans=None`` bans nothing anywhere."""
    from itertools import repeat, zip_longest

    from repro.errors import GraphError

    sentinel = object()
    for search in zip_longest(
        sources, repeat(None, len(sources)) if bans is None else bans, targets,
        fillvalue=sentinel,
    ):
        if any(part is sentinel for part in search):
            raise GraphError(
                "sources, banned_vertices_per_source and targets_per_source "
                "have different lengths"
            )
        yield search


def replacement_failure(
    engine: TraversalEngine, graph: Graph, weights, tree, eid: EdgeId
) -> ReplacementRows:
    """One failed tree edge's replacement row, the reference way.

    Seeds: for every edge ``(a, b)`` crossing into the failed subtree,
    the outer endpoint ``a`` keeps its original distance (its shortest
    path cannot enter the subtree); entering through the edge costs
    ``W(ab)``.  The recompute is a seeded traversal restricted to the
    subtree, dispatched through ``engine.seeded_shortest_paths``.  This
    is the executable spec of ``weighted_failure_sweep``, the one pass
    that fills :class:`repro.spt.replacement.ReplacementEngine`.
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

    size = len(sub)
    hop, pert = [-1] * size, [0] * size
    parent, parent_eid = [-1] * size, [-1] * size
    if seeds:
        sp = engine.seeded_shortest_paths(
            graph, weights, seeds, allowed_vertices=sub_set, banned_edge=eid
        )
        shift, mask = weights.shift, weights.big - 1
        dist = sp.dist
        for i, v in enumerate(sub):
            d = dist[v]
            if d is not None:
                hop[i], pert[i] = d >> shift, d & mask
                parent[i], parent_eid[i] = sp.parent[v], sp.parent_eid[v]
    return ReplacementRows(
        [eid], [child], [0, size], hop, pert, parent, parent_eid
    )


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
