"""The csr engine's numpy kernels: array kernels behind the reference contract.

:class:`CSREngine` is the numpy base of
:class:`~repro.engine.compiled.CompiledEngine`, which the registry
serves as ``csr``; its paths run whenever the C kernels are
unavailable.  Hop traversals run on the cached CSR view through the
kernels in :mod:`repro.engine.kernels`; results are converted back to
the plain Python containers the contract promises (except the
``sweep`` handle, which returns numpy vectors - values-only contract).

Single-source weighted traversals (``shortest_paths``) take the fast
path of :mod:`repro.engine.weighted_kernels` whenever
:func:`~repro.engine.weighted_kernels.weighted_plan` proves the
assignment array-representable (the random scheme on any graph this
library can build); the exact scheme's ``2**eid`` perturbations are
arbitrary-precision and transparently fall back to the shared big-int
reference Dijkstra.  A relaxation (numpy or C) that meets a possible
tie or an invalid seed returns ``None``, and the call reruns on the
reference the same way - so distances, parents, parent edges and tie
errors are the reference's, bit for bit.  ``seeded_shortest_paths`` is
the reference's own: seeded runs reach the kernels only stacked, inside
``weighted_failure_sweep``.

The batched primitives (``weighted_failure_sweep`` and
``batched_shortest_paths``) run many independent traversals as
*stacked* level-synchronous relaxations: each batch occupies its own
layer of a virtual ``B * n`` vertex space over the one shared CSR
view, so every hop level costs one set of numpy invocations for the
whole batch instead of one per traversal.  The
sweep additionally enumerates its crossing-edge seeds vectorized from
the tree's Euler intervals instead of via Python ``adjacency()`` loops,
and fancy-indexes each chunk's ``ReplacementRows`` out of the stacked
state.  The detour batch derives each chunk's bans and targets from
its concatenated T0 paths in numpy; its escape tables come from one C
pass over the stacked state on the compiled engine, and from
``assemble_result`` plus the reference scan here.  Chunking bounds the
stacked state (``_STACK_STATE`` entries per chunk); plans that cannot
be represented, and chunks whose relaxation hands the call back, rerun
on the reference: the detour batch path by path, the sweep edge by
edge through :func:`~repro.engine.base.replacement_failure`.

The sweep chunks by the ``_STACK_STREAM`` expansion budget on both
tiers.  The detour batch does so only here, on the numpy tier, whose
level passes stream every layer's frontier at once: the compiled
engine's C relaxation runs its layers one after another, so it sizes
its detour chunks by a stacked-state budget of its own
(``_detour_per_chunk``).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro._types import EdgeId, Vertex
from repro.engine.base import (
    DetourEscapes,
    ReplacementRows,
    check_detour_path,
    escape_table,
    reference_escapes,
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
    stacked_expander,
    unstack_layer,
    weighted_levels,
    weighted_plan,
)
from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = ["CSREngine"]

#: Cap on stacked state entries (``B * n``) per chunk; bounds the five
#: int64 state arrays of a stacked run at ~16 MB regardless of how many
#: batches a caller requests.
_STACK_STATE = 1 << 21

#: Per-chunk frontier-expansion budget (half-edge entries).  The level
#: streams are what the relaxation repeatedly passes over, so chunks are
#: sized to keep them cache-resident: full-graph batches on a large
#: graph degrade to one layer per chunk (their single-layer streams
#: already saturate the cache), while subtree-restricted batches pack
#: hundreds of layers per chunk.  The compiled engine's detour chunks
#: do not use it (see the module doc).
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
    banned_edges: Optional[Set[EdgeId]] = None,
    allowed_edges: Optional[Set[EdgeId]] = None,
) -> Optional[np.ndarray]:
    """A per-edge boolean mask, or None when every edge is usable."""
    if not banned_edges and allowed_edges is None:
        return None
    if allowed_edges is not None:
        ok = np.zeros(m, dtype=bool)
        ok[_valid_ids(allowed_edges, m)] = True
    else:
        ok = np.ones(m, dtype=bool)
    if banned_edges:
        ok[_valid_ids(banned_edges, m)] = False
    return ok


def _vertex_ok_mask(
    n: int, banned_vertices: Optional[Set[Vertex]]
) -> Optional[np.ndarray]:
    if not banned_vertices:
        return None
    ok = np.ones(n, dtype=bool)
    ok[_valid_ids(banned_vertices, n)] = False
    return ok


def _check_targets(targets, n: int):
    """``targets`` as a collection whose ids all lie in ``[0, n)`` -
    checked here, before any id reaches a kernel - or None (no stop
    rule)."""
    if targets is None:
        return None
    if not isinstance(targets, (set, frozenset, list, tuple)):
        targets = list(targets)
    if targets and (min(targets) < 0 or max(targets) >= n):
        raise GraphError(f"a target lies outside [0, {n})")
    return targets


def _target_arrays(targets):
    """The stop rule's ``(tgt_ptr, tgt)`` arrays for one search's
    checked targets, or None (no stop rule)."""
    if targets is None:
        return None
    tgt = np.fromiter(targets, dtype=np.int64, count=len(targets))
    return np.asarray([0, tgt.size], dtype=np.int64), tgt


def _detour_layers(graph: Graph, csr, paths: list):
    """One chunk of detour paths as stacked layers.

    Returns ``(path_ptr, flat, sources, vertex_ok, targets)``: the paths
    concatenated (``path_ptr`` delimits path ``b``), each layer's source
    ``v`` as the global id ``b * n + v``, the ban mask (every path
    vertex but ``v``), and the stop rule's ``(tgt_ptr, tgt)`` - the
    banned vertices' neighbours off the path, the set
    :func:`~repro.engine.base.detour_targets` names.  Every path is
    checked against ``[0, n)`` before it becomes an array.
    """
    for path in paths:
        check_detour_path(graph, path)
    n = csr.num_vertices
    B = len(paths)
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=B)
    path_ptr = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(lens, out=path_ptr[1:])
    flat = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(path_ptr[-1])
    )
    gid = flat + np.repeat(np.arange(B, dtype=np.int64) * n, lens)
    last = path_ptr[1:] - 1
    inner = np.ones(gid.size, dtype=bool)
    inner[last] = False
    banned = gid[inner]
    sources = gid[last]
    vertex_ok = np.ones(B * n, dtype=bool)
    vertex_ok[banned] = False
    if not vertex_ok[sources].all():
        b = int(np.argmin(vertex_ok[sources]))
        raise GraphError(f"source {paths[b][-1]} is banned")
    _, nbrs, _ = stacked_expander(csr)(banned)
    tgt = nbrs[vertex_ok[nbrs] & (nbrs != sources[nbrs // n])]
    tgt_ptr = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(np.bincount(tgt // n, minlength=B), out=tgt_ptr[1:])
    return path_ptr, flat, sources, vertex_ok, (tgt_ptr, tgt)


def _blank_beyond_radius(levels, tgt_ptr: np.ndarray, tgt: np.ndarray, n: int):
    """The stop rule's outcome, applied after a full relaxation: in each
    layer whose targets were all reached, every vertex beyond the
    largest target hop reads unreached."""
    settled, hop, pert, parent, parent_eid = levels
    layers = len(tgt_ptr) - 1
    layer_of = np.repeat(np.arange(layers, dtype=np.int64), np.diff(tgt_ptr))
    reached = settled[tgt]
    radius = np.zeros(layers, dtype=np.int64)
    np.maximum.at(radius, layer_of, np.where(reached, hop[tgt], 0))
    complete = np.bincount(layer_of[~reached], minlength=layers) == 0
    limit = np.where(complete, radius, np.iinfo(np.int64).max)
    beyond = hop > np.repeat(limit, n)
    settled[beyond] = False
    hop[beyond] = -1
    pert[beyond] = 0
    parent[beyond] = -1
    parent_eid[beyond] = -1


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
        banned_edges: Optional[Set[EdgeId]] = None,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> List[int]:
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(
            csr.num_edges,
            banned_edges=banned_edges,
            allowed_edges=allowed_edges,
        )
        return bfs_levels(csr, source, edge_ok=edge_ok).tolist()

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

    # -- weighted traversals (array fast path + reference fallback) ----
    def _weighted_levels(
        self,
        csr,
        perts: np.ndarray,
        seeds: SeedArrays,
        *,
        edge_ok: Optional[np.ndarray] = None,
        vertex_ok: Optional[np.ndarray] = None,
        allowed_ok: Optional[np.ndarray] = None,
        num_vertices: Optional[int] = None,
        stacked: bool = False,
        state=None,
        targets=None,
    ):
        """Engine hook behind every weighted relaxation.

        Same contract as :func:`weighted_levels` - including ``None``
        to hand the call back to the reference - but the expansion is
        described structurally (``stacked``) instead of as an opaque
        closure, so subclasses can route the relaxation elsewhere - the
        compiled engine overrides this with its C kernel.  ``targets``
        (the ``(tgt_ptr, tgt)`` arrays of :func:`_target_arrays` or
        :func:`_detour_layers`, layer ``b``'s targets as global ids,
        source-seeded runs only) asks for the stop rule's outcome; this
        numpy tier runs the full relaxation and blanks what lies beyond
        each layer's radius, and a tie it meets beyond a radius hands
        the call back all the same.
        """
        levels = weighted_levels(
            csr,
            perts,
            seeds,
            edge_ok=edge_ok,
            vertex_ok=vertex_ok,
            allowed_ok=allowed_ok,
            num_vertices=num_vertices,
            expand=stacked_expander(csr) if stacked else None,
            state=state,
        )
        if levels is not None and targets is not None:
            _blank_beyond_radius(levels, *targets, csr.num_vertices)
        return levels

    def shortest_paths(
        self,
        graph: Graph,
        weights,
        source: Vertex,
        *,
        banned_vertices: Optional[Set[Vertex]] = None,
        banned_edges: Optional[Set[EdgeId]] = None,
        targets: Optional[Iterable[Vertex]] = None,
    ):
        targets = _check_targets(targets, graph.num_vertices)
        perts = weighted_plan(graph, weights)
        if perts is not None:
            _check_source(graph, source)
            if banned_vertices and source in banned_vertices:
                raise GraphError(f"source {source} is banned")
            csr = csr_view(graph)
            levels = self._weighted_levels(
                csr,
                perts,
                SeedArrays.sources(np.asarray([source], dtype=np.int64)),
                edge_ok=_edge_ok_mask(csr.num_edges, banned_edges=banned_edges),
                vertex_ok=_vertex_ok_mask(csr.num_vertices, banned_vertices),
                targets=_target_arrays(targets),
            )
            if levels is not None:
                return assemble_result(source, weights.shift, *levels)
        return super().shortest_paths(
            graph,
            weights,
            source,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
            targets=targets,
        )

    # -- batched primitives (stacked layers over one CSR view) ---------
    def batched_shortest_paths(
        self,
        graph: Graph,
        weights,
        paths: Iterable[Sequence[Vertex]],
    ) -> Iterator[DetourEscapes]:
        perts = weighted_plan(graph, weights)
        if perts is None:
            yield from super().batched_shortest_paths(graph, weights, paths)
            return
        csr = csr_view(graph)
        per_chunk = self._detour_per_chunk(csr)
        chunk: list = []
        for path in paths:
            chunk.append(path)
            if len(chunk) >= per_chunk:
                yield from self._detour_chunk(graph, csr, weights, perts, chunk)
                chunk = []
        if chunk:
            yield from self._detour_chunk(graph, csr, weights, perts, chunk)

    def _detour_per_chunk(self, csr) -> int:
        """Engine hook: paths per detour chunk.  Every full-graph layer
        expands ~2m half-edges, and this tier's level passes stream all
        of a chunk's layers at once, so the chunks follow the
        ``_STACK_STREAM`` budget; paths stream in, so only one chunk's
        worth is alive."""
        return max(
            1,
            min(
                _STACK_STATE // max(1, csr.num_vertices),
                _STACK_STREAM // max(1, 2 * csr.num_edges) + 1,
            ),
        )

    def _detour_chunk(
        self,
        graph: Graph,
        csr,
        weights,
        perts: np.ndarray,
        chunk: list,
    ) -> Iterator[DetourEscapes]:
        """One stacked chunk of detour searches, one layer per path.  A
        relaxation that hands back reruns every path on the reference;
        without the C escape pass each layer is read through
        :func:`assemble_result` and the reference scan."""
        n = csr.num_vertices
        path_ptr, flat, sources, vertex_ok, targets = _detour_layers(
            graph, csr, chunk
        )
        levels = self._weighted_levels(
            csr,
            perts,
            SeedArrays.sources(sources),
            vertex_ok=vertex_ok,
            num_vertices=len(chunk) * n,
            stacked=True,
            targets=targets,
        )
        if levels is None:
            for path in chunk:
                yield reference_escapes(
                    super().shortest_paths, graph, weights, path
                )
            return
        escapes = self._escape_pass(csr, perts, path_ptr, flat, levels)
        if escapes is None:
            for b, path in enumerate(chunk):
                sp = assemble_result(
                    path[-1], weights.shift, *unstack_layer(n, b, *levels)
                )
                yield DetourEscapes(
                    escape_table(graph, weights, path, sp),
                    sp.parent,
                    sp.parent_eid,
                )
            return
        parent, parent_eid = levels[3], levels[4]
        parent = np.where(parent >= 0, parent % n, -1)
        hops, ws, eids = escapes.tolist()
        bounds = path_ptr.tolist()
        for b in range(len(chunk)):
            lo, hi = bounds[b], bounds[b + 1] - 1
            layer = slice(b * n, (b + 1) * n)
            yield DetourEscapes(
                [
                    None if h < 0 else (h, w, e)
                    for h, w, e in zip(hops[lo:hi], ws[lo:hi], eids[lo:hi])
                ],
                parent[layer],
                parent_eid[layer],
            )

    def _escape_pass(
        self,
        csr,
        perts: np.ndarray,
        path_ptr: np.ndarray,
        flat: np.ndarray,
        levels,
    ) -> Optional[np.ndarray]:
        """Engine hook: the chunk's escape tables as a ``(3, len(flat))``
        array of ``hops``, ``w`` and ``e`` per entry of the concatenated
        paths (``hops`` -1 where there is none, and at each path's last
        entry), read straight from the stacked state.  The numpy tier
        has no such pass and returns None; the compiled engine runs it
        in C."""
        return None

    def weighted_failure_sweep(
        self,
        graph: Graph,
        weights,
        tree,
        eids: Optional[Sequence[EdgeId]] = None,
    ) -> Iterator[ReplacementRows]:
        edge_list = list(eids) if eids is not None else tree.tree_edges()
        if not edge_list:
            return
        setup = self._sweep_setup(graph, weights, tree, edge_list)
        if setup is None:
            yield from super().weighted_failure_sweep(
                graph, weights, tree, eids=edge_list
            )
            return
        csr, perts, children, sizes, tree_arrays = setup
        n = csr.num_vertices
        max_batch = max(1, _STACK_STATE // max(1, n))
        chunks = list(_stream_chunks(sizes, _STACK_STREAM, max_batch))
        # One state buffer for the whole sweep: subtree layers only ever
        # touch their own vertices, so each chunk resets exactly the
        # positions it wrote instead of paying an O(B * n) allocation.
        size = max(hi - lo for lo, hi in chunks) * n
        state = (
            np.zeros(size, dtype=bool),
            np.full(size, -1, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.empty(size, dtype=np.int64),
            np.zeros(size, dtype=bool),  # the allowed mask, same regime
        )
        for lo, hi in chunks:
            yield from self._sweep_chunk(
                graph, csr, weights, tree, perts, edge_list[lo:hi],
                children[lo:hi], *tree_arrays, state,
            )

    def _sweep_setup(self, graph: Graph, weights, tree, edge_list):
        """The weighted sweep's per-call setup, or None on a gate failure.

        Returns ``(csr, perts, children, sizes, tree_arrays)``: the
        gated perturbation plan, each failed edge's deeper endpoint, the
        per-subtree expansion sizes that chunking packs by, and the
        tree's int64 ``(hop, pert, tin, tout, preorder)`` arrays,
        converted from its lists once per call.  None when the plan
        cannot represent the assignment (or its largest crossing-edge
        seed); the caller then runs the reference loops.
        """
        export = weights.pert_array()
        if export is None or weighted_plan(graph, weights) is None:
            return None
        csr = csr_view(graph)
        # Per-vertex tree metadata, decomposed once for the sweep.
        pert0_list = tree.dist_perturbations(weights)
        max_pert0 = max(pert0_list, default=0)
        hop0 = np.asarray(tree.depth, dtype=np.int64)
        pert0 = np.asarray(pert0_list, dtype=np.int64)
        tin = np.asarray(tree.tin, dtype=np.int64)
        tout = np.asarray(tree.tout, dtype=np.int64)
        preorder = np.asarray(tree.preorder, dtype=np.int64)
        # Re-gate with the largest possible crossing-edge seed: the plan
        # must prove seed + path perturbations never carry into the hop
        # bits.
        perts = weighted_plan(
            graph, weights, max_seed_pert=max_pert0 + export[1]
        )
        if perts is None:
            return None
        # Raises for every id that is not a tree edge.
        children = [tree.edge_child(eid) for eid in edge_list]
        # Chunk by subtree expansion: prefix sums of the preorder-ordered
        # degrees give each failed subtree's half-edge count in O(1).
        deg_pre = (csr.indptr[1:] - csr.indptr[:-1])[preorder]
        cum = np.concatenate([[0], np.cumsum(deg_pre)])
        sizes = [int(cum[tout[c]] - cum[tin[c]]) for c in children]
        return csr, perts, children, sizes, (hop0, pert0, tin, tout, preorder)

    def _sweep_chunk(
        self,
        graph: Graph,
        csr,
        weights,
        tree,
        perts: np.ndarray,
        eids: List[EdgeId],
        children: List[Vertex],
        hop0: np.ndarray,
        pert0: np.ndarray,
        tin: np.ndarray,
        tout: np.ndarray,
        preorder: np.ndarray,
        state,
    ) -> Iterator[ReplacementRows]:
        """One stacked chunk of subtree recomputes (layer = failed edge),
        yielded as one :class:`ReplacementRows` block."""
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
        levels = self._weighted_levels(
            csr,
            perts,
            sa,
            allowed_ok=allowed_ok,
            num_vertices=B * n,
            stacked=True,
            state=views,
        )

        def reset():
            # Every write this chunk made (seeds, settles, relaxation
            # labels, the allowed mask) lives at the subtree positions,
            # so resetting exactly those leaves the shared buffers
            # pristine for the next chunk.
            views[0][touched] = False
            views[1][touched] = -1
            allowed_ok[touched] = False

        if levels is None:
            reset()
            yield from super().weighted_failure_sweep(
                graph, weights, tree, eids=eids
            )
            return
        # The chunk's rows are the stacked state read at ``touched``,
        # which lists every layer's subtree in preorder - the row
        # layout itself.  Internal parents are stacked ids (map back by
        # the layer offset); seeded ones are already local.
        settled, hop, pert, parent, parent_eid = levels
        ok = settled[touched]
        off = touched - subs
        par = parent[touched]
        par = np.where(par >= off, par - off, par)
        rows = ReplacementRows(
            list(eids),
            list(children),
            np.concatenate(([0], np.cumsum(sizes))).tolist(),
            np.where(ok, hop[touched], -1).tolist(),
            np.where(ok, pert[touched], 0).tolist(),
            np.where(ok, par, -1).tolist(),
            np.where(ok, parent_eid[touched], -1).tolist(),
        )
        reset()
        yield rows
