"""The ``csr`` engine: C loops for the traversal hot paths, numpy behind.

:class:`CompiledEngine` is the engine the registry serves as ``csr``.
It subclasses the numpy :class:`~repro.engine.csr_engine.CSREngine` and
replaces the kernels the library spends its time in - the sweep hot
pair (ordered base BFS + Euler walk, per-failure subtree recompute),
the weighted ``(hops, pert_sum)`` level relaxation behind ``run_pcons``
(its SPT and detour batch) and the seeded twin of that relaxation
behind ``weighted_failure_sweep`` - with the flat C loops of
``_ckernels.c``, compiled on demand and loaded by
:mod:`repro.engine.cbuild`.  The C functions read the same cached
CSR int64 arrays and boolean masks through raw pointers and fill
caller-allocated numpy outputs, so results are **bit-identical** to the
numpy kernels (same adjacency-order tie-breaking, same weighted settle
order, enforced by the parity suites with and without ``REPRO_CC=0``)
while skipping numpy's per-level array orchestration.

Single-source runs go through ``CSREngine._weighted_levels`` to the C
relaxation, seed intake included.  The Pcons detour batch goes through
``CSREngine._detour_chunk``: one C call per chunk runs the same
relaxation once per search, on one ``n``-entry scratch it resets after
each.  The weighted failure sweep goes through
``CSREngine._sweep_pass``: one C call over every failed tree edge
enumerates each subtree's crossing-edge seeds, relaxes the subtree top
down and writes its row straight into the ``repl_*`` planes, indexed
by preorder position, so no failure gets an ``n``-wide layer of state;
the numpy tier's stacked, chunked sweep runs only without the kernels.
The random scheme reaches the kernels through
:func:`~repro.engine.weighted_kernels.weighted_plan`'s int64
perturbations.  The exact scheme's ``2**eid`` perturbations fit no
int64, so the plan step's ``_exact_order`` hook hands the three
weighted kernels no perturbation array at all: they then compare
same-hop paths by climbing to their common ancestor and reading the
largest edge id on each side, which orders ``2**eid`` sums exactly and
never ties (``_ckernels.c``).  Only the results that carry big-int sums
get them back, rebuilt from the parents: ``shortest_paths``'s (hence
``build_spt``'s) and the sweep's ``repl_pert`` plane; the detour batch
needs none.  Without the kernels the exact scheme stays on the big-int
reference Dijkstra.  When a C kernel detects the reference's
order-dependent tie event (random scheme only), a seed tie or an
invalid seed, it bails out and the call - for the sweep, the failures
from the one that met it - reruns on that reference, which raises its
:class:`~repro.errors.TieBreakError` or
:class:`~repro.errors.GraphError`, message and all.

Phase S1's ``exists_live_partners`` runs in C too, one call per batch
of pairs, over arrays built once per
:class:`~repro.core.interference.InterferenceIndex` (pair -> internal
detour vertices as CSR, per-pair terminal and failing-edge child, the
tree's Euler ``tin``/``tout``).  The kernel counting-sorts the vertex ->
allowed-pairs buckets itself, then runs one early-exit scan per pair,
with pi-intersection as an Euler-interval test instead of an LCA (why
that is exact: ``_ckernels.c`` and :mod:`repro.core.interference`).

The detour batch's kernel (``repro_detour_batch``) does per search what
the numpy tier spreads over its stacked layers: it bans the path,
collects the targets, runs the capped relaxation (each level top-down
or bottom-up, the direction-optimizing step ``_ckernels.c``
documents), reads the escape table and writes the search's parents,
with vertex ids, into the search's row of two ``B * n`` outputs; no
search builds an ``n``-entry list.  The searches run one after another,
so a chunk's size only amortizes the per-chunk Python work, and the
chunks are sized by the budget of those two outputs (``_DETOUR_STATE``)
rather than by ``_STACK_STREAM``, which sizes them on the numpy tier.

Kernels, all in ``_ckernels.c``: ``repro_bfs_order``,
``repro_bfs_euler``, ``repro_recompute_subtree``,
``repro_weighted_levels``, ``repro_weighted_sweep``,
``repro_detour_batch`` and ``repro_exists_live_partner``.

Every method asks :func:`~repro.engine.cbuild.kernel_library` per call
and runs the inherited path when it returns None: with no working
compiler, under ``REPRO_CC=0``, or after a compile/load failure (one
warning) - the numpy kernels for traversals, the interpreted spec for
Phase S1, identical results either way.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from repro._types import EdgeId, Vertex
from repro.engine import cbuild
from repro.engine.base import DetourEscapes, ReplacementRows
from repro.engine.csr import CSRAdjacency, csr_view
from repro.engine.csr_engine import (
    CSREngine,
    _cap_array,
    _check_searches,
    _edge_ok_mask,
)
from repro.engine.kernels import FailureSweep, _tree_edge_children
from repro.engine.python_engine import _check_source
from repro.engine.weighted_kernels import SeedArrays, exact_pert_sums
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.spt.weights import EXACT

__all__ = ["CompiledEngine", "CompiledFailureSweep"]


#: Budget of one C detour chunk's two parent outputs, in ``B * n``
#: entries each: 32 paths at n = 700.  The kernel runs the searches one
#: after another on ``n``-entry scratch, so a chunk's size only
#: amortizes the per-chunk Python work.
_DETOUR_STATE = 22_400


def _ptr(array: Optional[np.ndarray]):
    """ctypes ``void*`` for an array (None passes NULL)."""
    return None if array is None else array.ctypes.data


class _InterferenceArrays:
    """An interference index as the arrays the C existence kernel reads;
    pairs are addressed by their position in ``index.pairs``.  The
    vertex -> pairs buckets are built inside each kernel call."""

    def __init__(self, index) -> None:
        pairs = index.pairs
        num = len(pairs)
        internal = [index.internal[rec.pair_id] for rec in pairs]
        self.position = {rec.pair_id: i for i, rec in enumerate(pairs)}
        self.int_ptr = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, internal), dtype=np.int64, count=num),
            out=self.int_ptr[1:],
        )
        self.int_verts = np.fromiter(
            chain.from_iterable(internal), dtype=np.int64,
            count=int(self.int_ptr[-1]),
        )
        self.terminal = np.fromiter((rec.v for rec in pairs), np.int64, num)
        self.child = np.fromiter((rec.child for rec in pairs), np.int64, num)
        self.tin = np.ascontiguousarray(index.tree.tin, dtype=np.int64)
        self.tout = np.ascontiguousarray(index.tree.tout, dtype=np.int64)
        n = len(self.tin)
        for ids in (self.int_verts, self.terminal, self.child):
            if len(ids) and not (0 <= ids.min() and ids.max() < n):
                raise GraphError("interference index names a vertex outside the tree")


class CompiledFailureSweep(FailureSweep):
    """A :class:`FailureSweep` whose hot pair runs in C.

    Construction performs the ordered base BFS *and* the Euler walk in
    one foreign call; ``_recompute_subtree`` fills the post-failure
    distance vector in another, into the handle's one output buffer,
    and returns a copy.  ``tree_child`` and ``failed`` (with
    its no-op short-circuit) are inherited and read the same tree-edge
    map - the arrays have the same dtypes, shapes, and values as the
    numpy sweep's.
    ``kernels=None`` (the library failed to load) runs entirely on the
    inherited numpy paths.
    """

    def __init__(
        self,
        csr: CSRAdjacency,
        source: int,
        *,
        edge_ok: Optional[np.ndarray] = None,
        kernels: Optional[cbuild.KernelLib] = None,
    ) -> None:
        if kernels is None:
            super().__init__(csr, source, edge_ok=edge_ok)
            self._kernels = None
            return
        self._kernels = kernels
        self.csr = csr
        self.source = source
        self.edge_ok = edge_ok
        n = csr.num_vertices
        dist = np.empty(n, dtype=np.int64)
        parent = np.empty(n, dtype=np.int64)
        parent_eid = np.empty(n, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        tin = np.empty(n, dtype=np.int64)
        tout = np.empty(n, dtype=np.int64)
        preorder = np.empty(n, dtype=np.int64)
        visited = kernels.bfs_euler(
            n,
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            source,
            _ptr(edge_ok),
            _ptr(dist),
            _ptr(parent),
            _ptr(parent_eid),
            _ptr(order),
            _ptr(tin),
            _ptr(tout),
            _ptr(preorder),
        )
        if visited < 0:  # allocation failure inside the kernel
            super().__init__(csr, source, edge_ok=edge_ok)
            self._kernels = None
            return
        self.base = dist
        self.base.setflags(write=False)
        self._parent = parent
        self._parent_eid = parent_eid
        self._child_of = _tree_edge_children(parent_eid)
        self._tin = tin
        self._tout = tout
        self._preorder = preorder[:visited]
        # The fixed arrays' pointers, taken once (the handle keeps the
        # arrays alive): each recompute passes only its failed edge and
        # its subtree interval, and fills the handle's one output
        # buffer, whose copy it returns.
        self._out = np.empty(n, dtype=np.int64)
        self._graph_ptrs = (
            n, _ptr(csr.indptr), _ptr(csr.indices), _ptr(csr.edge_ids),
            _ptr(edge_ok),
        )
        self._tin_ptr = _ptr(tin)
        self._preorder_ptr = _ptr(preorder)
        self._base_ptr = _ptr(dist)
        self._out_ptr = _ptr(self._out)

    def _recompute_subtree(self, eid: int, child: int) -> np.ndarray:
        kernels = self._kernels
        if kernels is None:
            return super()._recompute_subtree(eid, child)
        rc = kernels.recompute_subtree(
            *self._graph_ptrs,
            eid,
            self._tin_ptr,
            int(self._tin[child]),
            int(self._tout[child]),
            self._preorder_ptr,
            self._base_ptr,
            self._out_ptr,
        )
        if rc != 0:  # allocation failure inside the kernel
            return super()._recompute_subtree(eid, child)
        return self._out.copy()


class CompiledEngine(CSREngine):
    """The csr engine: hot paths in C, numpy when the kernels are
    unavailable (see module doc)."""

    name = "csr"

    @property
    def compiler(self) -> str:
        """The resolved toolchain line (``repro engines`` prints it).
        Reading it triggers the on-demand compile, so the printed cache
        path is the real loaded library."""
        return cbuild.compiler_description()

    @property
    def weighted_backend(self) -> str:
        if self._kernels() is None:
            return "inherited numpy " + CSREngine.weighted_backend
        return "compiled C levels + reference fallback"

    @property
    def replacement_backend(self) -> str:
        if self._kernels() is None:
            return "inherited numpy " + CSREngine.replacement_backend
        return "compiled C one-pass subtree sweep + reference fallback"

    @property
    def detour_backend(self) -> str:
        if self._kernels() is None:
            return "inherited numpy " + CSREngine.detour_backend
        return "compiled C per-search detour batch + reference fallback"

    @property
    def interference_backend(self) -> str:
        if self._kernels() is None:
            return CSREngine.interference_backend
        return "compiled C early-exit existence kernel (Euler-interval pi test)"

    def _kernels(self) -> Optional[cbuild.KernelLib]:
        return cbuild.kernel_library()

    def _exact_order(self, weights) -> bool:
        """The C kernels take the exact scheme under its path-max order
        (``_ckernels.c``); without them it stays on the reference."""
        return weights.scheme == EXACT and self._kernels() is not None

    def exists_live_partners(
        self,
        index,
        pair_ids: Sequence[int],
        allowed: Set[int],
        *,
        require_pi_intersect: bool,
    ) -> List[bool]:
        """Phase S1's existence queries in one C call (the spec when
        the kernels are unavailable)."""
        kernels = self._kernels()
        if kernels is None:
            return super().exists_live_partners(
                index, pair_ids, allowed,
                require_pi_intersect=require_pi_intersect,
            )
        arrays = index._kernel_cache
        if arrays is None:
            arrays = index._kernel_cache = _InterferenceArrays(index)
        position = arrays.position
        queries = np.fromiter(
            (position[pid] for pid in pair_ids), dtype=np.int64
        )
        num_pairs = len(arrays.terminal)
        allowed_ok = np.zeros(num_pairs, dtype=np.uint8)
        allowed_ok[[position[pid] for pid in allowed if pid in position]] = 1
        out = np.zeros(len(queries), dtype=np.uint8)
        rc = kernels.exists_live_partner(
            len(arrays.tin),
            num_pairs,
            _ptr(arrays.int_ptr),
            _ptr(arrays.int_verts),
            _ptr(arrays.terminal),
            _ptr(arrays.child),
            _ptr(arrays.tin),
            _ptr(arrays.tout),
            len(queries),
            _ptr(queries),
            _ptr(allowed_ok),
            1 if require_pi_intersect else 0,
            _ptr(out),
        )
        if rc != 0:  # allocation failure inside the kernel
            return super().exists_live_partners(
                index, pair_ids, allowed,
                require_pi_intersect=require_pi_intersect,
            )
        return out.astype(bool).tolist()

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
        """The weighted relaxation of a source run routed through the C
        kernel (the numpy tier's stacked detour chunks run only without
        the kernels).

        The whole traversal - seed intake, the level loop and the stop
        rule (targets' radius and hop cap) - is one GIL-free foreign
        call over the raw seed columns.  Any non-zero
        return (the reference's order-dependent tie event, a seed tie or
        invalid seed, or scratch allocation failure) returns ``None``:
        the caller hands the call back to the reference, which decides
        the outcome - which exception, with which message - itself.
        """
        kernels = self._kernels()
        if kernels is None:
            if perts is None:
                # The exact order, and the kernels went away between
                # chunks of a batch: the reference takes the chunk.
                return None
            return super()._weighted_levels(
                csr, perts, seeds,
                edge_ok=edge_ok, vertex_ok=vertex_ok,
                num_vertices=num_vertices, stacked=stacked, stop=stop,
            )
        n = csr.num_vertices
        _, tgt, cap = (None, None, None) if stop is None else stop
        hop_t = np.full(n, -1, dtype=np.int64)
        pert_t = np.zeros(n, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        parent_eid = np.full(n, -1, dtype=np.int64)
        settled = np.zeros(n, dtype=bool)
        cols = tuple(
            np.ascontiguousarray(c, dtype=np.int64)
            for c in (seeds.hop, seeds.pert, seeds.vertex,
                      seeds.parent, seeds.parent_eid)
        )
        rc = kernels.weighted_levels(
            n,
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            _ptr(perts),
            _ptr(edge_ok),
            _ptr(vertex_ok),
            -1 if tgt is None else len(tgt),
            _ptr(tgt),
            -1 if cap is None else int(cap[0]),
            len(cols[0]),
            *(_ptr(c) for c in cols),
            _ptr(settled),
            _ptr(hop_t),
            _ptr(pert_t),
            _ptr(parent),
            _ptr(parent_eid),
        )
        if rc != 0:
            return None
        return settled, hop_t, pert_t, parent, parent_eid

    def _sweep_pass(
        self,
        csr,
        tree,
        perts: Optional[np.ndarray],
        eids: List[EdgeId],
        children: List[Vertex],
        tree_arrays,
    ):
        """Every failure's row in one C call, filled straight into the
        ``repl_*`` planes (None without the kernels: the numpy tier's
        stacked chunks).  The kernel stops at the first failure whose
        intake or relaxation meets a tie, or before the first on a
        scratch allocation failure; the rows before it stand.

        Under the exact order (``perts`` None) the kernel compares paths
        by climbing T0's parents and the row's, and leaves the
        ``repl_pert`` plane to the big-int rebuild here: an entry's sum
        is its parent's - T0's outside the failed subtree, the row's
        inside it - plus ``2**`` its parent edge."""
        kernels = self._kernels()
        if kernels is None:
            return None
        hop0, pert0, tin, tout, preorder = tree_arrays
        par0 = peid0 = None
        if perts is None:
            par0 = np.asarray(tree.parent, dtype=np.int64)
            peid0 = np.asarray(tree.parent_eid, dtype=np.int64)
        fail_eid = np.asarray(eids, dtype=np.int64)
        fail_child = np.asarray(children, dtype=np.int64)
        sizes = tout[fail_child] - tin[fail_child]
        offsets = np.zeros(len(eids) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        planes = np.empty((4, int(offsets[-1])), dtype=np.int64)
        done = kernels.weighted_sweep(
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            _ptr(perts),
            _ptr(hop0),
            _ptr(pert0),
            _ptr(par0),
            _ptr(peid0),
            _ptr(tin),
            _ptr(tout),
            _ptr(preorder),
            len(eids),
            _ptr(fail_eid),
            _ptr(fail_child),
            _ptr(offsets),
            *(_ptr(plane) for plane in planes),
        )
        end = int(offsets[done])
        hop, pert, parent, parent_eid = (plane[:end] for plane in planes)
        if perts is None:
            # Each entry's parent as a position of the rebuild: T0's
            # vertex id outside the row's subtree, n + its entry inside.
            row = np.repeat(np.arange(done), sizes[:done])
            at = tin[parent] - tin[fail_child[row]]
            inside = (parent >= 0) & (at >= 0) & (at < sizes[row])
            src = np.where(inside, len(tin) + offsets[row] + at, parent)
            pert_plane = exact_pert_sums(
                hop, src, parent_eid, tree.dist_perturbations()
            )
        else:
            pert_plane = pert.tolist()
        return done, ReplacementRows(
            eids[:done],
            children[:done],
            offsets[: done + 1].tolist(),
            hop.tolist(),
            pert_plane,
            parent.tolist(),
            parent_eid.tolist(),
        )

    def _detour_chunk(
        self,
        graph: Graph,
        csr,
        weights,
        perts: Optional[np.ndarray],
        chunk: list,
    ) -> Iterator[DetourEscapes]:
        """A chunk of ``(path, max_hops)`` detour searches, checked whole,
        in one ``repro_detour_batch`` call (the numpy tier's stacked
        chunk without the kernels).  Each search's parents land in its
        row of a ``(B, n)`` pair, which the yielded tables hold as
        views.  A tie (random scheme only) or a scratch allocation
        failure hands the chunk back to the reference, path by path and
        caps included."""
        kernels = self._kernels()
        if kernels is None:
            yield from super()._detour_chunk(graph, csr, weights, perts, chunk)
            return
        _check_searches(graph, chunk)
        n = csr.num_vertices
        B = len(chunk)
        paths = [path for path, _ in chunk]
        path_ptr = np.zeros(B + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, paths), dtype=np.int64, count=B),
            out=path_ptr[1:],
        )
        flat = np.fromiter(
            chain.from_iterable(paths), dtype=np.int64, count=int(path_ptr[-1])
        )
        cap = _cap_array([max_hops for _, max_hops in chunk], n)
        escapes = np.empty((3, flat.size), dtype=np.int64)
        parents = np.empty((2, B, n), dtype=np.int64)
        rc = kernels.detour_batch(
            n,
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            _ptr(perts),
            B,
            _ptr(path_ptr),
            _ptr(flat),
            _ptr(cap),
            *(_ptr(row) for row in escapes),
            *(_ptr(plane) for plane in parents),
        )
        if rc != 0:
            yield from self._reference_chunk(graph, weights, chunk)
            return
        hops, ws, eids = escapes.tolist()
        bounds = path_ptr.tolist()
        parent, parent_eid = parents
        for b in range(B):
            lo, hi = bounds[b], bounds[b + 1] - 1
            yield DetourEscapes(
                [
                    None if h < 0 else (h, w, e)
                    for h, w, e in zip(hops[lo:hi], ws[lo:hi], eids[lo:hi])
                ],
                parent[b],
                parent_eid[b],
            )

    def _detour_per_chunk(self, csr) -> int:
        """Detour chunks by the ``_DETOUR_STATE`` budget (the numpy
        tier's ``_STACK_STREAM`` chunks without the kernels)."""
        if self._kernels() is None:
            return super()._detour_per_chunk(csr)
        return max(1, _DETOUR_STATE // max(1, csr.num_vertices))

    def distances(
        self,
        graph: Graph,
        source: Vertex,
        *,
        banned_edges: Optional[Set[EdgeId]] = None,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> List[int]:
        kernels = self._kernels()
        if kernels is None:
            return super().distances(
                graph,
                source,
                banned_edges=banned_edges,
                allowed_edges=allowed_edges,
            )
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(
            csr.num_edges,
            banned_edges=banned_edges,
            allowed_edges=allowed_edges,
        )
        n = csr.num_vertices
        dist = np.empty(n, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        kernels.bfs_order(
            n,
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            source,
            _ptr(edge_ok),
            _ptr(dist),
            None,
            None,
            _ptr(order),
        )
        return dist.tolist()

    def parents(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Dict[Vertex, Vertex]:
        kernels = self._kernels()
        if kernels is None:
            return super().parents(graph, source, allowed_edges=allowed_edges)
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(csr.num_edges, allowed_edges=allowed_edges)
        n = csr.num_vertices
        dist = np.empty(n, dtype=np.int64)
        parent = np.empty(n, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        visited = kernels.bfs_order(
            n,
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            source,
            _ptr(edge_ok),
            _ptr(dist),
            _ptr(parent),
            None,
            _ptr(order),
        )
        reached = order[:visited]
        return dict(
            zip(reached.tolist(), parent[reached].tolist())
        )

    def sweep(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> CompiledFailureSweep:
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(csr.num_edges, allowed_edges=allowed_edges)
        return CompiledFailureSweep(
            csr, source, edge_ok=edge_ok, kernels=self._kernels()
        )
