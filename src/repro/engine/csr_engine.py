"""The csr engine's numpy kernels: array kernels behind the reference contract.

:class:`CSREngine` is the numpy base of
:class:`~repro.engine.compiled.CompiledEngine`, which the registry
serves as ``csr``; its paths run whenever the C kernels are unavailable
and on their tie bails.  Hop traversals run on the cached CSR view through the kernels in
:mod:`repro.engine.kernels`; results are converted back to the plain
Python containers the contract promises (except ``failure_sweep``, which
yields numpy vectors - values-only contract).

Weighted traversals take the fast path of
:mod:`repro.engine.weighted_kernels` whenever
:func:`~repro.engine.weighted_kernels.weighted_plan` proves the
assignment array-representable (the random scheme on any graph this
library can build); the exact scheme's ``2**eid`` perturbations are
arbitrary-precision and transparently fall back to the shared big-int
reference Dijkstra.  Either way the results - distances, parents,
parent edges, tie errors - are bit-identical to the reference.

The batched primitives (``weighted_failure_sweep``,
``batched_shortest_paths``, ``batched_seeded_shortest_paths``) run many
independent traversals as *stacked* level-synchronous relaxations: each
batch occupies its own layer of a virtual ``B * n`` vertex space over
the one shared CSR view, so every hop level costs one set of numpy
invocations for the whole batch instead of one per traversal.  The
sweep additionally enumerates its crossing-edge seeds vectorized from
the tree's Euler intervals instead of via Python ``adjacency()`` loops.
Chunking bounds the stacked state (``_STACK_STATE`` entries per chunk);
plans that cannot be represented fall back to the reference loops of
:class:`~repro.engine.base.TraversalEngine`, exactly like the per-call
weighted paths.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro._types import EdgeId, Vertex
from repro.engine.base import (
    UNREACHABLE,
    ReplacementSweepItem,
    SeedBatch,
    TraversalEngine,
    _zip_sources_and_bans,
)
from repro.engine.csr import csr_view
from repro.engine.kernels import (
    FailureSweep,
    bfs_levels,
    bfs_levels_ordered,
    expand_frontier,
)
from repro.engine.python_engine import PythonEngine, _check_source
from repro.engine.weighted_kernels import (
    SeedArrays,
    assemble_result,
    decompose_seeds,
    stacked_expander,
    unstack_layer,
    weighted_levels,
    weighted_plan,
)
from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = ["CSREngine", "PreparedWeightedSweep"]

#: Cap on stacked state entries (``B * n``) per chunk; bounds the five
#: int64 state arrays of a stacked run at ~16 MB regardless of how many
#: batches a caller requests.
_STACK_STATE = 1 << 21

#: Per-chunk frontier-expansion budget (half-edge entries).  The level
#: streams are what the relaxation repeatedly passes over, so chunks are
#: sized to keep them cache-resident: full-graph batches on a large
#: graph degrade to one layer per chunk (their single-layer streams
#: already saturate the cache), while subtree-restricted batches pack
#: hundreds of layers per chunk.
_STACK_STREAM = 1 << 17


def _stream_chunks(sizes, budget: int, max_batch: int):
    """Greedy ``(lo, hi)`` ranges: pack batches until their summed
    expansion reaches ``budget`` (always at least one per chunk)."""
    lo = 0
    total = 0
    for i, size in enumerate(sizes):
        total += size
        if total >= budget or i - lo + 1 >= max_batch:
            yield lo, i + 1
            lo = i + 1
            total = 0
    if lo < len(sizes):
        yield lo, len(sizes)


def _valid_ids(ids: Iterable[int], limit: int) -> np.ndarray:
    """Ids within ``[0, limit)``; out-of-range ids name nothing and are
    dropped, matching the reference engine's set-membership filters
    (numpy would otherwise wrap negatives or raise)."""
    return np.asarray([i for i in ids if 0 <= i < limit], dtype=np.int64)


def _edge_ok_mask(
    m: int,
    *,
    banned_edge: Optional[EdgeId] = None,
    banned_edges: Optional[Set[EdgeId]] = None,
    allowed_edges: Optional[Set[EdgeId]] = None,
) -> Optional[np.ndarray]:
    """A per-edge boolean mask, or None when every edge is usable."""
    if banned_edge is None and not banned_edges and allowed_edges is None:
        return None
    if allowed_edges is not None:
        ok = np.zeros(m, dtype=bool)
        ok[_valid_ids(allowed_edges, m)] = True
    else:
        ok = np.ones(m, dtype=bool)
    if banned_edges:
        ok[_valid_ids(banned_edges, m)] = False
    if banned_edge is not None and 0 <= banned_edge < m:
        ok[banned_edge] = False
    return ok


#: Below this many allowed vertices, seeded weighted traversals stay on
#: the reference heap (array per-level overhead dominates tiny runs).
_SMALL_WEIGHTED = 48


def _vertex_ok_mask(
    n: int, banned_vertices: Optional[Set[Vertex]]
) -> Optional[np.ndarray]:
    if not banned_vertices:
        return None
    ok = np.ones(n, dtype=bool)
    ok[_valid_ids(banned_vertices, n)] = False
    return ok


class CSREngine(PythonEngine):
    """Array-kernel engine for hop *and* (random-scheme) weighted traversals."""

    name = "csr"
    weighted_backend = "array (random scheme) + reference fallback"
    replacement_backend = "stacked subtree sweep (random scheme) + reference fallback"
    detour_backend = "stacked multi-source levels (random scheme) + reference fallback"

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
        _check_source(graph, source)
        csr = csr_view(graph)
        vertex_ok = _vertex_ok_mask(csr.num_vertices, banned_vertices)
        edge_ok = _edge_ok_mask(
            csr.num_edges,
            banned_edge=banned_edge,
            banned_edges=banned_edges,
            allowed_edges=allowed_edges,
        )
        return bfs_levels(csr, source, edge_ok=edge_ok, vertex_ok=vertex_ok).tolist()

    def parents(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Dict[Vertex, Vertex]:
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(csr.num_edges, allowed_edges=allowed_edges)
        _, parent, _, level_order = bfs_levels_ordered(csr, source, edge_ok=edge_ok)
        result: Dict[Vertex, Vertex] = {}
        for level in level_order:
            for v in level.tolist():
                result[v] = int(parent[v])
        return result

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
        _check_source(graph, source)
        wanted = set(targets)
        if not wanted:
            return {}
        # A full masked BFS: the early-stopping reference optimization is
        # an implementation detail, not part of the observable contract.
        dist = self.distances(
            graph,
            source,
            banned_edge=banned_edge,
            banned_edges=banned_edges,
            banned_vertices=banned_vertices,
        )
        n = graph.num_vertices
        return {t: dist[t] if 0 <= t < n else UNREACHABLE for t in wanted}

    def sweep(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> FailureSweep:
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(csr.num_edges, allowed_edges=allowed_edges)
        return FailureSweep(csr, source, edge_ok=edge_ok)

    def sweep_from_base_state(
        self,
        graph: Graph,
        source: Vertex,
        arrays,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> FailureSweep:
        """A :meth:`sweep` handle rebuilt from published base-state arrays.

        The shm worker bodies call this instead of :meth:`sweep` when the
        parent shipped the base traversal through the base-state segment:
        construction skips the BFS + Euler walk, so a shard's fixed cost
        is O(1) in graph size.  ``arrays`` must come from a handle over
        the same ``(graph, source, allowed_edges)`` sweep.
        """
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(csr.num_edges, allowed_edges=allowed_edges)
        return FailureSweep.from_base_state(csr, source, arrays, edge_ok=edge_ok)

    # -- weighted traversals (array fast path + reference fallback) ----
    def _weighted_levels(
        self,
        csr,
        perts: np.ndarray,
        seeds,
        *,
        edge_ok: Optional[np.ndarray] = None,
        vertex_ok: Optional[np.ndarray] = None,
        allowed_ok: Optional[np.ndarray] = None,
        raise_on_tie: bool = True,
        scheme: str,
        num_vertices: Optional[int] = None,
        stacked: bool = False,
        banned_eid_per_batch: Optional[np.ndarray] = None,
        state=None,
        touched: Optional[np.ndarray] = None,
        layer_width: Optional[int] = None,
    ):
        """Engine hook behind every weighted relaxation.

        Same contract as :func:`weighted_levels`, but the expansion is
        described structurally (``stacked`` + ``banned_eid_per_batch``)
        instead of as an opaque closure, so subclasses can route the
        relaxation elsewhere - the compiled engine overrides this with
        its C kernel.  ``touched`` names the state positions a caller-
        owned ``state`` run may write (the restricted sweep's subtree
        ids); implementations that bail mid-run use it to restore the
        buffers before retrying.
        """
        del touched  # the numpy path never dirties state without finishing
        expand = (
            stacked_expander(csr, banned_eid_per_batch=banned_eid_per_batch)
            if stacked
            else None
        )
        return weighted_levels(
            csr,
            perts,
            seeds,
            edge_ok=edge_ok,
            vertex_ok=vertex_ok,
            allowed_ok=allowed_ok,
            raise_on_tie=raise_on_tie,
            scheme=scheme,
            num_vertices=num_vertices,
            expand=expand,
            state=state,
            layer_width=layer_width,
        )

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
        perts = weighted_plan(graph, weights)
        if perts is None:
            return super().shortest_paths(
                graph,
                weights,
                source,
                banned_vertices=banned_vertices,
                banned_edge=banned_edge,
                banned_edges=banned_edges,
                allowed_edges=allowed_edges,
                raise_on_tie=raise_on_tie,
            )
        _check_source(graph, source)
        if banned_vertices and source in banned_vertices:
            raise GraphError(f"source {source} is banned")
        csr = csr_view(graph)
        settled, hop, pert, parent, parent_eid = self._weighted_levels(
            csr,
            perts,
            [(0, 0, source, -1, -1)],
            edge_ok=_edge_ok_mask(
                csr.num_edges,
                banned_edge=banned_edge,
                banned_edges=banned_edges,
                allowed_edges=allowed_edges,
            ),
            vertex_ok=_vertex_ok_mask(csr.num_vertices, banned_vertices),
            raise_on_tie=raise_on_tie,
            scheme=weights.scheme,
        )
        return assemble_result(
            source, weights.shift, settled, hop, pert, parent, parent_eid
        )

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
        seed_list = list(seeds)
        decomposed = decompose_seeds(seed_list, weights.shift)
        max_seed_pert = max((p0 for _, p0, _, _, _ in decomposed), default=0)
        # Tiny restricted recomputes (leaf-ish subtrees in the
        # replacement engine) are faster on the reference heap than on
        # per-level array passes; results are bit-identical either way.
        if len(allowed_vertices) <= _SMALL_WEIGHTED:
            perts = None
        else:
            perts = weighted_plan(graph, weights, max_seed_pert=max_seed_pert)
        if perts is None:
            return super().seeded_shortest_paths(
                graph,
                weights,
                seed_list,
                allowed_vertices=allowed_vertices,
                banned_edge=banned_edge,
                raise_on_tie=raise_on_tie,
            )
        csr = csr_view(graph)
        allowed_ok = np.zeros(csr.num_vertices, dtype=bool)
        allowed_ok[_valid_ids(allowed_vertices, csr.num_vertices)] = True
        settled, hop, pert, parent, parent_eid = self._weighted_levels(
            csr,
            perts,
            decomposed,
            edge_ok=_edge_ok_mask(csr.num_edges, banned_edge=banned_edge),
            allowed_ok=allowed_ok,
            raise_on_tie=raise_on_tie,
            scheme=weights.scheme,
        )
        return assemble_result(
            -1, weights.shift, settled, hop, pert, parent, parent_eid
        )

    # -- batched primitives (stacked layers over one CSR view) ---------
    def batched_shortest_paths(
        self,
        graph: Graph,
        weights,
        sources: Sequence[Vertex],
        banned_vertices_per_source: Optional[Iterable[Optional[Set[Vertex]]]] = None,
        *,
        raise_on_tie: bool = True,
    ):
        perts = weighted_plan(graph, weights)
        if perts is None:
            yield from super().batched_shortest_paths(
                graph, weights, sources, banned_vertices_per_source,
                raise_on_tie=raise_on_tie,
            )
            return
        csr = csr_view(graph)
        n = csr.num_vertices
        # Every full-graph layer expands ~2m half-edges; ban sets stream
        # in lockstep with sources, so only one chunk's worth is alive.
        per_chunk = max(
            1,
            min(
                _STACK_STATE // max(1, n),
                _STACK_STREAM // max(1, 2 * csr.num_edges) + 1,
            ),
        )
        chunk_sources: List[Vertex] = []
        chunk_bans: List[Optional[Set[Vertex]]] = []
        for source, banned in _zip_sources_and_bans(
            sources, banned_vertices_per_source
        ):
            chunk_sources.append(source)
            chunk_bans.append(banned)
            if len(chunk_sources) >= per_chunk:
                yield from self._source_chunk(
                    graph, csr, weights, perts, chunk_sources, chunk_bans,
                    raise_on_tie,
                )
                chunk_sources, chunk_bans = [], []
        if chunk_sources:
            yield from self._source_chunk(
                graph, csr, weights, perts, chunk_sources, chunk_bans,
                raise_on_tie,
            )

    def _source_chunk(
        self,
        graph: Graph,
        csr,
        weights,
        perts: np.ndarray,
        chunk_sources: List[Vertex],
        chunk_bans: List[Optional[Set[Vertex]]],
        raise_on_tie: bool,
    ):
        """One stacked chunk of full-graph single-source traversals."""
        n = csr.num_vertices
        B = len(chunk_sources)
        for v, banned in zip(chunk_sources, chunk_bans):
            _check_source(graph, v)
            if banned and v in banned:
                raise GraphError(f"source {v} is banned")
        vertex_ok = None
        if any(chunk_bans):
            vertex_ok = np.ones(B * n, dtype=bool)
            for b, banned in enumerate(chunk_bans):
                if banned:
                    vertex_ok[b * n + _valid_ids(banned, n)] = False
        zeros = np.zeros(B, dtype=np.int64)
        minus = np.full(B, -1, dtype=np.int64)
        seed_v = np.arange(B, dtype=np.int64) * n + np.asarray(
            chunk_sources, dtype=np.int64
        )
        settled, hop, pert, parent, parent_eid = self._weighted_levels(
            csr,
            perts,
            SeedArrays(zeros, zeros, seed_v, minus, minus),
            vertex_ok=vertex_ok,
            raise_on_tie=raise_on_tie,
            scheme=weights.scheme,
            num_vertices=B * n,
            stacked=True,
            layer_width=n,
        )
        for b, v in enumerate(chunk_sources):
            yield assemble_result(
                v,
                weights.shift,
                *unstack_layer(n, b, settled, hop, pert, parent, parent_eid),
            )

    def batched_seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        batches: Iterable[SeedBatch],
        *,
        raise_on_tie: bool = True,
    ):
        # Assignments no chunk could ever run on the kernels (exact
        # scheme, unexportable perturbations) delegate wholesale before
        # any big-int seed decomposition happens.
        if weighted_plan(graph, weights) is None:
            yield from super().batched_seeded_shortest_paths(
                graph, weights, batches, raise_on_tie=raise_on_tie
            )
            return
        # Incremental consumption: batches may be a generator (the
        # vertex-fault caller streams one punctured subtree at a time),
        # so accumulate only up to one chunk's expansion budget before
        # running it - peak memory stays O(chunk), like the per-call
        # loop this replaces.
        csr = csr_view(graph)
        n = csr.num_vertices
        max_batch = max(1, _STACK_STATE // max(1, n))
        deg = csr.indptr[1:] - csr.indptr[:-1]
        chunk_batches: List[SeedBatch] = []
        chunk_seeds: List[list] = []
        expansion = 0
        for seeds, allowed, banned_edge in batches:
            seeds = list(seeds)
            chunk_batches.append((seeds, allowed, banned_edge))
            chunk_seeds.append(decompose_seeds(seeds, weights.shift))
            expansion += int(deg[_valid_ids(allowed, n)].sum())
            if expansion >= _STACK_STREAM or len(chunk_batches) >= max_batch:
                yield from self._seeded_chunk(
                    graph, csr, weights, chunk_batches, chunk_seeds,
                    raise_on_tie,
                )
                chunk_batches, chunk_seeds, expansion = [], [], 0
        if chunk_batches:
            yield from self._seeded_chunk(
                graph, csr, weights, chunk_batches, chunk_seeds, raise_on_tie
            )

    def _seeded_chunk(
        self,
        graph: Graph,
        csr,
        weights,
        chunk_batches: List[SeedBatch],
        chunk_seeds: List[list],
        raise_on_tie: bool,
    ):
        """Run one chunk of seeded batches stacked (reference fallback
        per chunk, gated exactly like the per-call seeded path)."""
        max_seed_pert = max(
            (p0 for batch in chunk_seeds for _, p0, _, _, _ in batch), default=0
        )
        perts = weighted_plan(graph, weights, max_seed_pert=max_seed_pert)
        if perts is None:
            yield from TraversalEngine.batched_seeded_shortest_paths(
                self, graph, weights, chunk_batches, raise_on_tie=raise_on_tie
            )
            return
        n = csr.num_vertices
        B = len(chunk_batches)
        allowed_ok = np.zeros(B * n, dtype=bool)
        banned = np.full(B, -1, dtype=np.int64)
        any_ban = False
        cols = {k: [] for k in ("hop", "pert", "vertex", "parent", "parent_eid")}
        for b, ((_, allowed, banned_edge), seeds) in enumerate(
            zip(chunk_batches, chunk_seeds)
        ):
            allowed_ok[b * n + _valid_ids(allowed, n)] = True
            if banned_edge is not None:
                banned[b] = banned_edge
                any_ban = True
            off = b * n
            for h0, p0, v0, par0, pe0 in seeds:
                # Out-of-range seed vertices fail the allowed check
                # with the reference's GraphError, not numpy's
                # wraparound: park them past every layer, encoded so
                # the error message can recover the original id
                # (negatives already fail the >= 0 check as-is).
                if 0 <= v0 < n:
                    stacked = off + v0
                elif v0 < 0:
                    stacked = v0
                else:
                    stacked = B * n + 1 + min(v0, 1 << 40)
                cols["vertex"].append(stacked)
                cols["hop"].append(h0)
                cols["pert"].append(p0)
                cols["parent"].append(par0)
                cols["parent_eid"].append(pe0)
        sa = SeedArrays(
            **{k: np.asarray(v, dtype=np.int64) for k, v in cols.items()}
        )
        settled, hop, pert, parent, parent_eid = self._weighted_levels(
            csr,
            perts,
            sa,
            allowed_ok=allowed_ok,
            raise_on_tie=raise_on_tie,
            scheme=weights.scheme,
            num_vertices=B * n,
            stacked=True,
            banned_eid_per_batch=banned if any_ban else None,
            layer_width=n,
        )
        for b in range(B):
            yield assemble_result(
                -1,
                weights.shift,
                *unstack_layer(n, b, settled, hop, pert, parent, parent_eid),
            )

    def weighted_failure_sweep(
        self,
        graph: Graph,
        weights,
        tree,
        eids: Optional[Sequence[EdgeId]] = None,
    ) -> Iterator[ReplacementSweepItem]:
        edge_list = list(eids) if eids is not None else tree.tree_edges()
        if not edge_list:
            return
        prepared = self.prepared_weighted_sweep(graph, weights, tree, edge_list)
        if prepared is None:
            yield from super().weighted_failure_sweep(
                graph, weights, tree, eids=edge_list
            )
            return
        yield from prepared.items(0, len(edge_list))

    def prepared_weighted_sweep(
        self,
        graph: Graph,
        weights,
        tree,
        eids: Sequence[EdgeId],
    ) -> Optional["PreparedWeightedSweep"]:
        """The sweep's setup as a reusable, slice-runnable state object.

        Everything ``weighted_failure_sweep`` derives per call - the
        gated perturbation plan, the tree's int64 hop/pert decomposition
        and Euler arrays, the edge -> deeper-endpoint map, and the
        per-subtree expansion sizes - computed once and captured in a
        :class:`PreparedWeightedSweep` whose ``items(lo, hi)`` runs any
        contiguous slice of the request.  Shard runners build this once
        per ``(plane, request)`` (the shm workers memoize it, the
        threaded engine shares it across its windows - ``items`` is
        thread-safe, every mutable buffer is allocated per call) instead
        of paying the O(n) setup per shard.  None when the plan gating
        fails; callers fall back to the reference loops.
        """
        edge_list = list(eids)
        export = weights.pert_array()
        if export is None or weighted_plan(graph, weights) is None:
            return None
        csr = csr_view(graph)
        base = getattr(tree, "_base_state", None)
        if base is not None:
            # Attached shm façade: the decomposition arrays are already
            # mapped - zero-copy, no big-int pass, no list conversions.
            hop0, pert0 = base["hop"], base["pert"]
            tin, tout, preorder = base["tin"], base["tout"], base["preorder"]
            parent_eid = base["parent_eid"]
            max_pert0 = int(pert0.max()) if pert0.size else 0
        else:
            # Per-vertex tree metadata, decomposed once for the sweep.
            pert0_list = tree.dist_perturbations(weights)
            max_pert0 = max(pert0_list, default=0)
            hop0 = np.asarray(tree.depth, dtype=np.int64)
            pert0 = np.asarray(pert0_list, dtype=np.int64)
            tin = np.asarray(tree.tin, dtype=np.int64)
            tout = np.asarray(tree.tout, dtype=np.int64)
            preorder = np.asarray(tree.preorder, dtype=np.int64)
            parent_eid = np.asarray(tree.parent_eid, dtype=np.int64)
        # Re-gate with the largest possible crossing-edge seed: the plan
        # must prove seed + path perturbations never carry into the hop
        # bits, exactly as the per-call seeded path does.
        perts = weighted_plan(
            graph, weights, max_seed_pert=max_pert0 + export[1]
        )
        if perts is None:
            return None
        # edge -> deeper endpoint, vectorized over parent_eid (every
        # reachable non-source vertex names its parent edge exactly once).
        m = csr.num_edges
        child_of_eid = np.full(m, -1, dtype=np.int64)
        verts = np.flatnonzero(parent_eid >= 0)
        child_of_eid[parent_eid[verts]] = verts
        children: List[Vertex] = []
        for eid in edge_list:
            child = int(child_of_eid[eid]) if 0 <= eid < m else -1
            if child < 0:
                child = tree.edge_child(eid)  # raises: not a tree edge
            children.append(child)
        # Chunk by subtree expansion: prefix sums of the preorder-ordered
        # degrees give each failed subtree's half-edge count in O(1).
        deg_pre = (csr.indptr[1:] - csr.indptr[:-1])[preorder]
        cum = np.concatenate([[0], np.cumsum(deg_pre)])
        sizes = [int(cum[tout[c]] - cum[tin[c]]) for c in children]
        return PreparedWeightedSweep(
            self, csr, weights, perts, edge_list, children, sizes,
            hop0, pert0, tin, tout, preorder,
        )

    def _sweep_chunk(
        self,
        csr,
        weights,
        perts: np.ndarray,
        eids: List[EdgeId],
        children: List[Vertex],
        hop0: np.ndarray,
        pert0: np.ndarray,
        tin: np.ndarray,
        tout: np.ndarray,
        preorder: np.ndarray,
        state,
    ) -> Iterator[ReplacementSweepItem]:
        """One stacked chunk of subtree recomputes (layer = failed edge)."""
        n = csr.num_vertices
        B = len(eids)
        children_np = np.asarray(children, dtype=np.int64)
        tin_c = tin[children_np]
        tout_c = tout[children_np]
        sizes = tout_c - tin_c
        subs = np.concatenate(
            [preorder[tin_c[b] : tout_c[b]] for b in range(B)]
        )
        batch_of_sub = np.repeat(np.arange(B, dtype=np.int64), sizes)
        touched = batch_of_sub * n + subs
        allowed_ok = state[5][: B * n]
        allowed_ok[touched] = True

        # Crossing-edge seeds, enumerated vectorized: one neighbor stream
        # over all chunk subtrees replaces the per-edge adjacency() loops
        # (and the per-seed big-int arithmetic) of the reference.
        srcs, nbrs, eids2 = expand_frontier(csr, subs)
        counts = csr.indptr[subs + 1] - csr.indptr[subs]
        batch_he = np.repeat(batch_of_sub, counts)
        banned = np.asarray(eids, dtype=np.int64)
        ta = tin[nbrs]
        keep = eids2 != banned[batch_he]
        keep &= hop0[nbrs] >= 0  # outer endpoint reachable
        keep &= ~((ta >= tin_c[batch_he]) & (ta < tout_c[batch_he]))
        srcs, nbrs, eids2, batch_he = (
            srcs[keep], nbrs[keep], eids2[keep], batch_he[keep],
        )
        sa = SeedArrays(
            hop=hop0[nbrs] + 1,
            pert=pert0[nbrs] + perts[eids2],
            vertex=batch_he * n + srcs,
            parent=nbrs,  # local outer endpoints; unstack_layer maps back
            parent_eid=eids2,
        )
        # The failed edge needs no per-layer ban: its outer endpoint is
        # outside the allowed subtree, so allowed_ok already blocks it.
        views = tuple(buf[: B * n] for buf in state[:5])
        settled, hop, pert, parent, parent_eid = self._weighted_levels(
            csr,
            perts,
            sa,
            allowed_ok=allowed_ok,
            raise_on_tie=True,
            scheme=weights.scheme,
            num_vertices=B * n,
            stacked=True,
            state=views,
            touched=touched,
            layer_width=n,
        )
        shift = weights.shift
        for b in range(B):
            off = b * n
            sub = preorder[tin_c[b] : tout_c[b]]
            idx = sub + off
            ok = settled[idx]
            if not ok.all():
                idx = idx[ok]
                sub = sub[ok]
            sub_l = sub.tolist()
            # The composite (hop << shift) + pert overflows int64 (shift
            # is 63), so distances become Python ints here; everything
            # around them is dict(zip(...)) over bulk tolist() exports.
            dist: Dict[Vertex, Optional[int]] = dict(
                zip(sub_l, (
                    (hh << shift) + pp
                    for hh, pp in zip(hop[idx].tolist(), pert[idx].tolist())
                ))
            )
            par = parent[idx]
            par = np.where(par >= off, par - off, par)
            parent_d: Dict[Vertex, Vertex] = dict(zip(sub_l, par.tolist()))
            parent_eid_d: Dict[Vertex, EdgeId] = dict(
                zip(sub_l, parent_eid[idx].tolist())
            )
            if len(sub_l) != ok.size:
                # Unreached subtree vertices report None, in the same
                # preorder position the per-vertex loop put them.
                full = dict.fromkeys(preorder[tin_c[b] : tout_c[b]].tolist())
                full.update(dist)
                dist = full
            yield (int(eids[b]), int(children[b]), dist, parent_d, parent_eid_d)
        # Restore the shared buffers: every write this chunk made (seeds,
        # settles, relaxation labels, the allowed mask) lives at the
        # subtree positions, so resetting exactly those leaves the state
        # pristine for the next chunk.
        settled[touched] = False
        hop[touched] = -1
        allowed_ok[touched] = False


class PreparedWeightedSweep:
    """One weighted failure sweep's setup, runnable slice by slice.

    Built by :meth:`CSREngine.prepared_weighted_sweep`; immutable after
    construction.  ``items(lo, hi)`` yields the replacement items of the
    request slice ``edge_list[lo:hi]``, bit-identical to running the
    whole sweep and slicing its output (chunk boundaries never affect
    values).  Concurrent ``items`` calls are safe: the shared arrays are
    read-only, and the chunk state buffers are allocated per call.
    """

    __slots__ = (
        "_engine", "csr", "weights", "perts", "edge_list", "children",
        "sizes", "hop0", "pert0", "tin", "tout", "preorder",
    )

    def __init__(
        self, engine, csr, weights, perts, edge_list, children, sizes,
        hop0, pert0, tin, tout, preorder,
    ) -> None:
        self._engine = engine
        self.csr = csr
        self.weights = weights
        self.perts = perts
        self.edge_list = edge_list
        self.children = children
        self.sizes = sizes
        self.hop0 = hop0
        self.pert0 = pert0
        self.tin = tin
        self.tout = tout
        self.preorder = preorder

    def __len__(self) -> int:
        return len(self.edge_list)

    def items(self, lo: int, hi: int) -> Iterator[ReplacementSweepItem]:
        """Replacement items for the request slice ``[lo, hi)``."""
        eids = self.edge_list[lo:hi]
        if not eids:
            return
        children = self.children[lo:hi]
        sizes = self.sizes[lo:hi]
        n = self.csr.num_vertices
        max_batch = max(1, _STACK_STATE // max(1, n))
        chunks = list(_stream_chunks(sizes, _STACK_STREAM, max_batch))
        # One state buffer for the whole slice: subtree layers only ever
        # touch their own vertices, so each chunk resets exactly the
        # positions it wrote instead of paying an O(B * n) allocation.
        size = max(c_hi - c_lo for c_lo, c_hi in chunks) * n
        state = (
            np.zeros(size, dtype=bool),
            np.full(size, -1, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.zeros(size, dtype=bool),  # the allowed mask, same regime
        )
        for c_lo, c_hi in chunks:
            yield from self._engine._sweep_chunk(
                self.csr, self.weights, self.perts,
                eids[c_lo:c_hi], children[c_lo:c_hi],
                self.hop0, self.pert0, self.tin, self.tout, self.preorder,
                state,
            )
