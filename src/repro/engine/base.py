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
* ``distances`` / ``parents`` must be *bit-identical* to the python
  engine for every input: same distance lists, same parent maps
  (including tie-breaking, which both engines derive from the graph's
  adjacency-list order), same dict contents.
* ``sweep`` returns a :class:`SweepHandle` whose ``failed(e)`` is, for
  an edge id ``e``, the hop-distance vector of ``G \\ {e}`` (or
  ``H \\ {e}`` when ``allowed_edges`` masks the graph down to a
  structure), and whose ``base_distances()`` is the no-failure vector.
  Backends may return any integer sequence type (the csr engine returns
  numpy arrays, possibly *shared* between failures whose distances
  coincide with the no-failure base - callers must treat returned
  vectors as read-only); only the values are part of the contract.
* **Edge bans.**  ``banned_edges`` on hop ``distances`` and weighted
  ``shortest_paths`` is a set of edge ids the run may not cross; an id
  that names no edge bans nothing.
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
  (:mod:`repro.engine.weighted_kernels`) implement the contract.  The
  exact scheme's ``2**eid`` sums fit no fixed width; the csr engine's C
  kernels compare them by the largest edge id below two paths' common
  ancestor instead (``_ckernels.c``).  Backends advertise how they run
  weighted traversals via :attr:`TraversalEngine.weighted_backend`.
  Any weighted call may be handed back to the reference: assignments a
  backend cannot represent (the exact scheme, on csr's numpy tier), and
  calls whose kernel meets a possible tie or an invalid seed,
  transparently rerun on it, which is the only implementation of tie
  and seed-error semantics.  No backend overrides
  ``seeded_shortest_paths``: seeded runs reach array kernels only
  inside ``weighted_failure_sweep``.
* **Target radius and hop cap.**  ``shortest_paths(..., targets=T,
  max_hops=c)`` may stop early: with ``R`` the smaller of the largest
  hop count among ``T`` and ``c``, every vertex within ``R`` hops reads
  exactly what the full run reads, and every vertex beyond reads
  unreachable (``dist`` ``None``, parents ``-1``).  A target that the
  run never labels (unreachable or banned) leaves only the cap; an
  empty ``T``, like ``c = 0``, leaves only the source; ``targets=None``
  and ``max_hops=None`` each drop their bound, and with both the run is
  full.  A tie met beyond ``R`` does not raise.  A target id outside
  ``[0, n)`` and a negative ``max_hops`` raise
  :class:`~repro.errors.GraphError` before any kernel runs.  Seeded
  runs take neither: a seed can lower a label's hop count, so ``R`` is
  not fixed while they run.
* **Results.**  Array backends hand back
  :meth:`~repro.spt.result.ShortestPathResult.from_levels` results,
  whose big-int ``dist`` list is built on first read;
  ``dist_at(v)`` reads one distance without building it.  Under the
  exact scheme the perturbation sums are rebuilt from the parents before
  the result is handed back, in hop order
  (:func:`~repro.engine.weighted_kernels.exact_pert_sums`).
* **The batched replacement sweep** (PR 4).  ``weighted_failure_sweep``
  yields, for the failed tree edges of a
  :class:`~repro.spt.spt_tree.ShortestPathTree`, the replacement rows
  over each failed subtree - the weighted analogue of ``sweep`` - in
  :class:`ReplacementRows` blocks; only the concatenated rows, not
  the blocking, are part of the contract.  The reference implementation
  *is* the per-edge loop below, so parity between the per-edge and
  batched paths holds by construction on the python engine; array
  backends must reproduce it bit-identically (rows, big-int distances,
  tie/error *kinds* - which of several simultaneous ties raises first
  is not part of the contract, only that one does).  Backends
  advertise the path via :attr:`TraversalEngine.replacement_backend`.
* **The Pcons detour batch.**  ``batched_shortest_paths`` takes
  ``(path, max_hops)`` searches, ``path`` a T0 path ``[u_0, ..., u_k =
  v]``, and yields one :class:`DetourEscapes` per search, in order: the
  search from ``v`` that bans ``u_0 .. u_{k-1}`` and stops at the
  smaller of the hop radius of :func:`detour_targets` and ``max_hops``
  (None: no cap), read as an *escape table* - per ``j < k``, the
  cheapest way to leave the path at ``u_j`` (:func:`escape_table`) -
  plus the parent entries that walk a chosen detour back to ``v``.
  Pcons caps each search at the hop its own uncovered pairs need
  (:mod:`repro.core.pcons`).  The reference is
  :func:`reference_escapes` per search; array backends compute the
  tables straight from their own search state and must match it bit
  for bit, tie and error kinds included.  Backends advertise the path via
  :attr:`TraversalEngine.detour_backend`.  The method keeps its
  historical name, though it no longer yields search results, because
  the benchmark's layer trace (``perfbench/layers.py``) times it under
  that name; the rename waits for the next change to the benchmark.
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
from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "TraversalEngine",
    "SweepHandle",
    "UNREACHABLE",
    "distances_equal",
    "fault_candidates",
    "num_unreachable",
    "replacement_failure",
    "ReplacementRows",
    "DetourEscapes",
    "check_detour_path",
    "detour_targets",
    "escape_table",
    "reference_escapes",
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


class DetourEscapes(NamedTuple):
    """One search of the Pcons detour batch: the escape table of the
    T0 path ``[u_0, ..., u_k = v]`` it was given, and the search's
    parents, to walk a chosen detour back to ``v``.

    ``escapes[j]`` (``j < k``) is None or ``(hops, w, e)``: see
    :func:`escape_table`.  The search labels nothing beyond its radius,
    so an entry whose best ``w`` lies beyond it - beyond the cap, say -
    reads None.  ``parent``/``parent_eid`` are indexed by vertex, with
    vertex ids (``-1`` at ``v`` and wherever the search left a vertex
    unlabeled); array backends hand back numpy views, so read single
    entries.
    """

    escapes: List[Optional[Tuple[int, Vertex, EdgeId]]]
    parent: Sequence[int]
    parent_eid: Sequence[int]


#: Sentinel hop distance for unreachable vertices (shared by all engines).
UNREACHABLE = -1


class SweepHandle:
    """A prepared failure sweep: one base traversal, many failures.

    Obtained from :meth:`TraversalEngine.sweep`.  ``base_distances`` is
    the no-failure distance vector (computed once); ``failed(eid)`` is
    the distance vector after failing ``eid``.  Ids that do not name an
    edge of the (masked) graph ban nothing, exactly like the reference
    BFS's ``banned_edges`` filter.  Returned vectors may be shared - treat
    them as read-only.

    For a failure that changes nothing (an edge off the base tree, an
    edge the mask leaves out, an id that names no edge) the array
    handles return the ``base_distances`` object itself, while the
    reference handle returns an equal fresh list.  So ``failed(eid) is
    base_distances()`` proves the failure a no-op, but its absence
    proves nothing: callers may use identity only as a shortcut, never
    as a correctness test.
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
        banned_edges: Optional[Set[EdgeId]] = None,
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

    # -- weighted tie-broken traversals --------------------------------
    def shortest_paths(
        self,
        graph: Graph,
        weights,
        source: Vertex,
        *,
        banned_vertices: Optional[Set[Vertex]] = None,
        banned_edges: Optional[Set[EdgeId]] = None,
        targets: Optional[Iterable[Vertex]] = None,
        max_hops: Optional[int] = None,
    ):
        """Weighted Dijkstra under composite tie-breaking weights,
        stopped at the hop radius of ``targets`` or at ``max_hops``
        hops, whichever comes first, when given."""
        raise NotImplementedError

    def seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        seeds,
        *,
        allowed_vertices: Set[Vertex],
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
        edge; array backends batch the subtree recomputes and yield a
        block per batch (csr: one C pass over every failure, or stacked
        chunks on its numpy tier).  Lazy: nothing is computed until the
        first block is consumed.
        """
        if eids is None:
            eids = tree.tree_edges()
        for eid in eids:
            yield replacement_failure(self, graph, weights, tree, eid)

    def batched_shortest_paths(
        self,
        graph: Graph,
        weights,
        searches: Iterable[Tuple[Sequence[Vertex], Optional[int]]],
    ) -> Iterator[DetourEscapes]:
        """The Pcons detour batch: one :class:`DetourEscapes` per
        ``(path, max_hops)`` of ``searches`` - a T0 path ``[u_0, ...,
        u_k = v]`` and its search's hop cap (None: no cap) - in order.

        This reference implementation *is* the per-search loop of
        :func:`reference_escapes` over ``shortest_paths``.  ``searches``
        may be any iterable (callers stream them); a path with a vertex
        outside ``[0, n)``, an empty path, a ``v`` that also appears
        earlier on its path, or a negative ``max_hops`` raises
        GraphError at or before its position in the stream.  Lazy.
        """
        neighbor_sets: Dict[Vertex, Set[Vertex]] = {}
        for path, max_hops in searches:
            yield reference_escapes(
                self.shortest_paths, graph, weights, path, max_hops,
                neighbor_sets,
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


def check_detour_path(graph: Graph, path: Sequence[Vertex]) -> None:
    """Raise GraphError unless ``path`` names at least one vertex and
    only vertices in ``[0, n)``."""
    n = graph.num_vertices
    if not path or min(path) < 0 or max(path) >= n:
        raise GraphError(
            f"detour path {list(path)!r} is empty or leaves [0, {n})"
        )


def detour_targets(
    graph: Graph,
    path: Sequence[Vertex],
    neighbor_sets: Optional[Dict[Vertex, Set[Vertex]]] = None,
) -> Set[Vertex]:
    """The targets of the detour search for ``path = [u_0, ..., u_k =
    v]``: the neighbours of ``u_0 .. u_{k-1}`` that lie off the path.
    An escape table reads only these, and a chosen detour walks back
    from one of them through vertices no farther from ``v``, so the
    search may stop at their hop radius.  ``neighbor_sets`` memoizes
    each path vertex's neighbour set across calls (Pcons's paths all
    start at the source)."""
    if neighbor_sets is None:
        neighbor_sets = {}
    targets: Set[Vertex] = set()
    for u in path[:-1]:
        nbrs = neighbor_sets.get(u)
        if nbrs is None:
            nbrs = neighbor_sets[u] = set(graph.neighbors(u))
        targets |= nbrs
    targets.difference_update(path)
    return targets


def escape_table(
    graph: Graph, weights, path: Sequence[Vertex], sp
) -> List[Optional[Tuple[int, Vertex, EdgeId]]]:
    """The escape table of ``sp``, the detour search from ``v =
    path[-1]``.

    Per ``j < k``: scan ``u_j = path[j]``'s edges ``(u_j, w, e)`` in
    adjacency order, skipping the tree edge ``(u_{k-1}, v)`` and every
    ``w`` the search left unlabeled (the banned path vertices among
    them); the smallest composite ``W(e) + dist(w)`` wins, the first
    among equals.  The entry is ``(hops, w, e)`` with ``hops = hop(w) +
    1``, or None when ``u_j`` has no candidate.  ``W(e) + dist(w)`` is
    the weight of the simple path ``u_j, w, ..., v``, so its
    perturbation sum never carries into the hop bits.
    """
    w_arr, shift = weights.weights, weights.shift
    dist_at = sp.dist_at
    k = len(path) - 1
    v = path[-1]
    table: List[Optional[Tuple[int, Vertex, EdgeId]]] = [None] * k
    for j in range(k):
        best: Optional[Tuple[int, Vertex, EdgeId]] = None
        for w, eid in graph.adjacency(path[j]):
            if w == v and j == k - 1:
                continue  # the tree edge (u_{k-1}, v) is not an escape
            dw = dist_at(w)
            if dw is None:
                continue
            cand = w_arr[eid] + dw
            if best is None or cand < best[0]:
                best = (cand, w, eid)
        if best is not None:
            table[j] = (best[0] >> shift, best[1], best[2])
    return table


def reference_escapes(
    search,
    graph: Graph,
    weights,
    path: Sequence[Vertex],
    max_hops: Optional[int] = None,
    neighbor_sets: Optional[Dict[Vertex, Set[Vertex]]] = None,
) -> DetourEscapes:
    """One search of the detour batch, the reference way: ``search`` (a
    ``shortest_paths``) from ``v = path[-1]`` with ``path[:-1]`` banned,
    :func:`detour_targets` as its targets and ``max_hops`` as its cap,
    read by :func:`escape_table`."""
    check_detour_path(graph, path)
    sp = search(
        graph,
        weights,
        path[-1],
        banned_vertices=set(path[:-1]),
        targets=detour_targets(graph, path, neighbor_sets),
        max_hops=max_hops,
    )
    return DetourEscapes(
        escape_table(graph, weights, path, sp), sp.parent, sp.parent_eid
    )


def replacement_failure(
    engine: TraversalEngine, graph: Graph, weights, tree, eid: EdgeId
) -> ReplacementRows:
    """One failed tree edge's replacement row, the reference way.

    Seeds: for every edge ``(a, b)`` crossing into the failed subtree,
    the outer endpoint ``a`` keeps its original distance (its shortest
    path cannot enter the subtree); entering through the edge costs
    ``W(ab)``.  The recompute is a seeded traversal restricted to the
    subtree, dispatched through ``engine.seeded_shortest_paths``; the
    failed edge needs no ban, since its outer endpoint lies outside the
    subtree and no seed uses it.  This
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
            graph, weights, seeds, allowed_vertices=sub_set
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


def fault_candidates(
    graph: Graph,
    dist: Sequence[int],
    listed: Set[EdgeId],
    skip: Set[EdgeId],
) -> List[EdgeId]:
    """The edges a verification fails one at a time, in edge-id order:
    every edge of ``listed`` (the structure ``H``) or tight in ``dist``
    (``G``'s no-failure hop distances), minus ``skip`` (the reinforced
    edges, which never fail).  Ids in ``listed`` or ``skip`` that name
    no edge are ignored.

    An edge ``(u, v)`` is tight when ``dist(u) + 1 == dist(v)`` or vice
    versa, so it lies on some shortest path: an edge of ``G`` outside
    ``H`` that is not tight changes neither side when it fails.  A list
    ``dist`` (the python engine's) runs the per-edge loop; an array
    runs one array pass over the graph's cached CSR endpoint arrays,
    taking ``listed`` and ``skip`` through the csr engine's id filter so
    that an id naming no edge neither raises nor wraps onto an edge.
    """
    if type(dist) is not list:
        from repro.engine.csr import csr_view
        from repro.engine.csr_engine import _valid_ids

        csr = csr_view(graph)
        du, dv = dist[csr.edge_u], dist[csr.edge_v]
        keep = ((du != UNREACHABLE) & (dv == du + 1)) | (
            (dv != UNREACHABLE) & (du == dv + 1)
        )
        keep[_valid_ids(listed, csr.num_edges)] = True
        keep[_valid_ids(skip, csr.num_edges)] = False
        return keep.nonzero()[0].tolist()
    candidates: List[EdgeId] = []
    for eid, u, v in graph.edges():
        if eid in skip:
            continue
        du, dv = dist[u], dist[v]
        tight = (
            (du != UNREACHABLE and dv == du + 1)
            or (dv != UNREACHABLE and du == dv + 1)
        )
        if tight or eid in listed:
            candidates.append(eid)
    return candidates


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
