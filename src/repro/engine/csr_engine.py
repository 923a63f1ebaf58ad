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
library can build).  The exact scheme's ``2**eid`` perturbations are
arbitrary-precision: on this numpy tier they transparently fall back to
the shared big-int reference Dijkstra, while the compiled engine's C
kernels take them under their path-max order through the
``_exact_order`` hook of every weighted entry point's plan step.  A
relaxation (numpy or C) that meets a possible tie or an invalid seed
returns ``None``, and the call reruns on the reference the same way -
so distances, parents, parent edges and tie errors are the
reference's, bit for bit.  ``seeded_shortest_paths`` is
the reference's own: seeded runs reach the kernels only inside
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
its concatenated T0 paths in numpy, takes each search's hop cap beside
them, and reads each layer through ``assemble_result`` plus the
reference scan.  The stop rule (targets' radius and cap) runs inside
the level loop: once a level has settled, the layers at their radius
leave the frontier, so none labels anything beyond it.  Chunking bounds
the stacked state (``_STACK_STATE`` entries per chunk); plans that
cannot be represented, and chunks whose relaxation hands the call back,
rerun on the reference: the detour batch path by path, the sweep edge
by edge through :func:`~repro.engine.base.replacement_failure`.

The stacking and chunking belong to this numpy tier alone.  The sweep
stacks its subtree recomputes (``_sweep_chunk``, by the
``_STACK_STREAM`` expansion budget); the compiled engine fills every
failure's row in one C pass over the compact Euler-keyed rows, with no
``B * n`` state, through the ``_sweep_pass`` hook, and hands the
failures from the first tie on back to the reference.  The detour
batch stacks one layer per search (``_detour_chunk``, chunked by
``_STACK_STREAM`` too, since this tier's level passes stream every
layer's frontier at once); the compiled engine overrides
``_detour_chunk`` with one C call per chunk that runs the searches one
after another on ``n``-entry scratch, and sizes its chunks by a budget
of its own (``_detour_per_chunk``).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
from repro.spt.dijkstra import check_max_hops

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


def _cap_array(caps, n: int) -> np.ndarray:
    """Per-layer hop caps (each checked, None: no cap) as the stop
    rule's int64 ``cap`` array.  A cap of ``n`` or more cuts nothing -
    no vertex lies ``n`` hops away - so it is clamped to ``n``."""
    return np.asarray(
        [n if c is None else min(c, n) for c in caps], dtype=np.int64
    )


def _stop_arrays(targets, max_hops: Optional[int], n: int):
    """The stop rule's ``(tgt_ptr, tgt, cap)`` arrays for one search's
    checked targets and cap (``tgt_ptr``/``tgt`` None without targets,
    ``cap`` None without a cap), or None (no stop rule)."""
    if targets is None and max_hops is None:
        return None
    tgt_ptr = tgt = cap = None
    if targets is not None:
        tgt = np.fromiter(targets, dtype=np.int64, count=len(targets))
        tgt_ptr = np.asarray([0, tgt.size], dtype=np.int64)
    if max_hops is not None:
        cap = _cap_array([max_hops], n)
    return tgt_ptr, tgt, cap


def _check_searches(graph: Graph, searches: list) -> None:
    """Raise GraphError unless every ``(path, max_hops)`` detour search
    of a chunk has a path within ``[0, n)`` whose ``v`` does not also
    appear earlier on it, and a non-negative cap (or None) - checked
    for the whole chunk before any of it reaches a kernel."""
    for path, max_hops in searches:
        check_detour_path(graph, path)
        check_max_hops(max_hops)
    for path, _ in searches:
        if path[-1] in path[:-1]:
            raise GraphError(f"source {path[-1]} is banned")


def _detour_layers(csr, searches: list):
    """One checked chunk of ``(path, max_hops)`` detour searches as
    stacked layers, for this numpy tier's relaxation.

    Returns ``(sources, vertex_ok, stop)``: each layer's source ``v`` as
    the global id ``b * n + v``, the ban mask (every path vertex but
    ``v``), and the stop rule's ``(tgt_ptr, tgt, cap)`` - the targets
    are the banned vertices' neighbours off the path, the set
    :func:`~repro.engine.base.detour_targets` names.
    """
    paths = [path for path, _ in searches]
    n = csr.num_vertices
    B = len(paths)
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=B)
    flat = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(lens.sum())
    )
    gid = flat + np.repeat(np.arange(B, dtype=np.int64) * n, lens)
    last = np.cumsum(lens) - 1
    inner = np.ones(gid.size, dtype=bool)
    inner[last] = False
    banned = gid[inner]
    sources = gid[last]
    vertex_ok = np.ones(B * n, dtype=bool)
    vertex_ok[banned] = False
    _, nbrs, _ = stacked_expander(csr)(banned)
    tgt = nbrs[vertex_ok[nbrs] & (nbrs != sources[nbrs // n])]
    tgt_ptr = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(np.bincount(tgt // n, minlength=B), out=tgt_ptr[1:])
    cap = _cap_array([max_hops for _, max_hops in searches], n)
    return sources, vertex_ok, (tgt_ptr, tgt, cap)


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
    def _exact_order(self, weights) -> bool:
        """Engine hook of every weighted entry point's plan step: whether
        the kernels run ``weights`` under the exact scheme's order, with
        no perturbation array (``perts`` None; see ``_ckernels.c``).
        This numpy tier has no such kernel and leaves the exact scheme
        to the reference; the compiled engine takes it in C."""
        return False

    def _weighted_levels(
        self,
        csr,
        perts: np.ndarray,
        seeds: SeedArrays,
        *,
        edge_ok: Optional[np.ndarray] = None,
        vertex_ok: Optional[np.ndarray] = None,
        num_vertices: Optional[int] = None,
        stacked: bool = False,
        stop=None,
    ):
        """Engine hook behind every source run's weighted relaxation
        (every seed at hop 0: ``shortest_paths`` and the detour batch).

        Same contract as :func:`weighted_levels` - including ``None``
        to hand the call back to the reference - but the expansion is
        described structurally (``stacked``) instead of as an opaque
        closure, so subclasses can route the relaxation elsewhere - the
        compiled engine overrides this with its C kernel, which serves
        source runs only.  ``stop`` (the ``(tgt_ptr, tgt, cap)`` arrays
        of :func:`_stop_arrays` or :func:`_detour_layers`: layer ``b``'s
        targets as global ids and its hop cap, either pair or ``cap``
        None for no such bound; source-seeded runs only) asks for the
        stop rule, which :func:`weighted_levels` applies level by level:
        a layer at its radius settles that level and expands no further,
        so it labels nothing beyond it and meets no tie there.
        """
        return weighted_levels(
            csr,
            perts,
            seeds,
            edge_ok=edge_ok,
            vertex_ok=vertex_ok,
            num_vertices=num_vertices,
            expand=stacked_expander(csr) if stacked else None,
            stop=stop,
        )

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
        targets = _check_targets(targets, graph.num_vertices)
        check_max_hops(max_hops)
        perts = weighted_plan(graph, weights)
        if perts is not None or self._exact_order(weights):
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
                stop=_stop_arrays(targets, max_hops, csr.num_vertices),
            )
            if levels is not None:
                if perts is None:  # the exact order keeps no sums
                    levels = levels[:2] + (None,) + levels[3:]
                return assemble_result(source, weights.shift, *levels)
        return super().shortest_paths(
            graph,
            weights,
            source,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
            targets=targets,
            max_hops=max_hops,
        )

    # -- batched primitives (stacked layers over one CSR view) ---------
    def batched_shortest_paths(
        self,
        graph: Graph,
        weights,
        searches: Iterable[Tuple[Sequence[Vertex], Optional[int]]],
    ) -> Iterator[DetourEscapes]:
        perts = weighted_plan(graph, weights)
        if perts is None and not self._exact_order(weights):
            yield from super().batched_shortest_paths(graph, weights, searches)
            return
        csr = csr_view(graph)
        per_chunk = self._detour_per_chunk(csr)
        chunk: list = []
        for search in searches:
            chunk.append(search)
            if len(chunk) >= per_chunk:
                yield from self._detour_chunk(graph, csr, weights, perts, chunk)
                chunk = []
        if chunk:
            yield from self._detour_chunk(graph, csr, weights, perts, chunk)

    def _detour_per_chunk(self, csr) -> int:
        """Engine hook: paths per detour chunk.  Every full-graph layer
        expands ~2m half-edges, and this tier's level passes stream all
        of a chunk's layers at once, so the chunks follow the
        ``_STACK_STREAM`` budget; searches stream in, so only one
        chunk's worth is alive."""
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
        """Engine hook: one chunk of ``(path, max_hops)`` detour
        searches, checked whole before any kernel runs.  This numpy tier
        stacks them one layer per search and reads each layer through
        :func:`assemble_result` and the reference scan; the compiled
        engine runs the chunk as one C call.  A relaxation that hands
        back reruns every search on the reference, caps included."""
        _check_searches(graph, chunk)
        n = csr.num_vertices
        sources, vertex_ok, stop = _detour_layers(csr, chunk)
        levels = self._weighted_levels(
            csr,
            perts,
            SeedArrays.sources(sources),
            vertex_ok=vertex_ok,
            num_vertices=len(chunk) * n,
            stacked=True,
            stop=stop,
        )
        if levels is None:
            yield from self._reference_chunk(graph, weights, chunk)
            return
        for b, (path, _) in enumerate(chunk):
            sp = assemble_result(
                path[-1], weights.shift, *unstack_layer(n, b, *levels)
            )
            yield DetourEscapes(
                escape_table(graph, weights, path, sp), sp.parent, sp.parent_eid
            )

    def _reference_chunk(
        self, graph: Graph, weights, chunk: list
    ) -> Iterator[DetourEscapes]:
        """A handed-back detour chunk, rerun on the reference path by
        path, caps included; it raises the reference's own error."""
        for path, max_hops in chunk:
            yield reference_escapes(
                super().shortest_paths, graph, weights, path, max_hops
            )

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
        csr, perts, children, tree_arrays = setup
        swept = self._sweep_pass(
            csr, tree, perts, edge_list, children, tree_arrays
        )
        if swept is not None:
            done, rows = swept
            if done:
                yield rows
            if done < len(edge_list):
                # A tie at failure ``done`` (or no scratch for the pass):
                # the reference reruns from there and raises its error.
                yield from super().weighted_failure_sweep(
                    graph, weights, tree, eids=edge_list[done:]
                )
            return
        # Chunk by subtree expansion: prefix sums of the preorder-ordered
        # degrees give each failed subtree's half-edge count in O(1).
        _, _, tin, tout, preorder = tree_arrays
        deg_pre = (csr.indptr[1:] - csr.indptr[:-1])[preorder]
        cum = np.concatenate([[0], np.cumsum(deg_pre)])
        sizes = [int(cum[tout[c]] - cum[tin[c]]) for c in children]
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

        Returns ``(csr, perts, children, tree_arrays)``: the gated
        perturbation plan (None under the exact order), each failed
        edge's deeper endpoint, and the tree's int64 ``(hop, pert, tin,
        tout, preorder)`` arrays, converted from its lists once per call
        (``pert`` None under the exact order, whose sums do not fit).
        None when the plan cannot represent the assignment (or its
        largest crossing-edge seed); the caller then runs the reference
        loops.
        """
        exact = self._exact_order(weights)
        if not exact:
            export = weights.pert_array()
            if export is None or weighted_plan(graph, weights) is None:
                return None
        csr = csr_view(graph)
        # Per-vertex tree metadata, decomposed once for the sweep.
        hop0 = np.asarray(tree.depth, dtype=np.int64)
        tin = np.asarray(tree.tin, dtype=np.int64)
        tout = np.asarray(tree.tout, dtype=np.int64)
        preorder = np.asarray(tree.preorder, dtype=np.int64)
        perts = pert0 = None
        if not exact:
            pert0_list = tree.dist_perturbations(weights)
            pert0 = np.asarray(pert0_list, dtype=np.int64)
            # Re-gate with the largest possible crossing-edge seed: the
            # plan must prove seed + path perturbations never carry into
            # the hop bits.
            perts = weighted_plan(
                graph, weights,
                max_seed_pert=max(pert0_list, default=0) + export[1],
            )
            if perts is None:
                return None
        # Raises for every id that is not a tree edge.
        children = [tree.edge_child(eid) for eid in edge_list]
        return csr, perts, children, (hop0, pert0, tin, tout, preorder)

    def _sweep_pass(
        self,
        csr,
        tree,
        perts: Optional[np.ndarray],
        eids: List[EdgeId],
        children: List[Vertex],
        tree_arrays,
    ):
        """Engine hook: the sweep's rows in one pass over every failure,
        as ``(done, rows)`` - ``rows`` holds the rows of ``eids[:done]``
        in one block, and a ``done`` short of ``len(eids)`` hands the
        failures from ``eids[done]`` on back to the reference.  The
        numpy tier has no such pass and returns None (it stacks the
        subtree recomputes in chunks); the compiled engine runs it in
        C, under the exact order too (``perts`` None)."""
        return None

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
        """One stacked chunk of subtree recomputes (layer = failed edge)
        on the numpy relaxation, yielded as one :class:`ReplacementRows`
        block."""
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
        levels = weighted_levels(
            csr,
            perts,
            sa,
            allowed_ok=allowed_ok,
            num_vertices=B * n,
            expand=stacked_expander(csr),
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
