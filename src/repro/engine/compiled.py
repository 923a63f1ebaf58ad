"""The ``csr`` engine: C loops for the traversal hot paths, numpy behind.

:class:`CompiledEngine` is the engine the registry serves as ``csr``.
It subclasses the numpy :class:`~repro.engine.csr_engine.CSREngine` and
replaces the kernels the library spends its time in - the sweep hot
pair (ordered base BFS + Euler walk, per-failure subtree recompute) and
the weighted ``(hops, pert_sum)`` level relaxation behind ``run_pcons``,
``weighted_failure_sweep``, and the batched shortest-path primitives -
with the flat C loops of ``_ckernels.c``, compiled on demand and loaded
by :mod:`repro.engine.cbuild`.  The C functions read the same cached
CSR int64 arrays and boolean masks through raw pointers and fill
caller-allocated numpy outputs, so results are **bit-identical** to the
numpy kernels (same adjacency-order tie-breaking, same weighted settle
order and tie events, enforced by the parity suites with and without
``REPRO_CC=0``) while skipping numpy's per-level array orchestration.

The weighted routing goes through ``CSREngine._weighted_levels``, so
every weighted surface - single-source, seeded, the stacked batched
variants, the chunked ``PreparedWeightedSweep`` - lands on the one C
kernel, seed intake (running-min semantics) included.  The Python-side
gating is unchanged: the exact
scheme's ``2**eid`` perturbations are not int64-representable, so
:func:`~repro.engine.weighted_kernels.weighted_plan` routes them to the
big-int reference Dijkstra before any kernel - numpy or C - is
considered.  When the C kernel detects the reference's order-dependent
tie event it bails out and the traversal reruns on the numpy path,
which replays ties exactly and raises the reference's
:class:`~repro.errors.TieBreakError`, message and all.

Because ctypes releases the GIL around every call, the ``csr-mt``
engine windows these kernels - unweighted and weighted alike - across
genuinely concurrent threads, and the sharded/shm plane is untouched:
the arrays are the same, :class:`CompiledFailureSweep` publishes and
rebuilds the exact base state the numpy sweep does, and the shm tree
plane's mapped arrays feed the weighted sweep's C kernel zero-copy.

Every method asks :func:`~repro.engine.cbuild.kernel_library` per call
and runs the inherited numpy path when it returns None: with no working
compiler, under ``REPRO_CC=0``, or after a compile/load failure (one
warning) - identical results either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro._types import EdgeId, Vertex
from repro.engine import cbuild
from repro.engine.csr import CSRAdjacency, csr_view
from repro.engine.csr_engine import CSREngine, _edge_ok_mask, _vertex_ok_mask
from repro.engine.kernels import FailureSweep
from repro.engine.python_engine import _check_source
from repro.engine.weighted_kernels import SeedArrays
from repro.graphs.graph import Graph

__all__ = ["CompiledEngine", "CompiledFailureSweep"]


def _ptr(array: Optional[np.ndarray]):
    """ctypes ``void*`` for an array (None passes NULL)."""
    return None if array is None else array.ctypes.data


class CompiledFailureSweep(FailureSweep):
    """A :class:`FailureSweep` whose hot pair runs in C.

    Construction performs the ordered base BFS *and* the Euler walk in
    one foreign call; ``_recompute_subtree`` fills the post-failure
    distance vector in another.  All derived state (``base_state()``,
    ``tree_child``, the no-op-failure short-circuits) is inherited -
    the arrays have the same dtypes, shapes, and values as the numpy
    sweep's, so shm publication and rebuilds interoperate freely.
    ``kernels=None`` (a handle rebuilt where the library failed to
    load) runs entirely on the inherited numpy paths.
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
        self._tin = tin
        self._tout = tout
        self._preorder = preorder[:visited]

    @classmethod
    def from_base_state(
        cls,
        csr: CSRAdjacency,
        source: int,
        arrays,
        *,
        edge_ok: Optional[np.ndarray] = None,
        kernels: Optional[cbuild.KernelLib] = None,
    ) -> "CompiledFailureSweep":
        """Rebuild from published base-state arrays (O(1), no traversal),
        attaching the kernels so recomputes still run in C."""
        self = super().from_base_state(csr, source, arrays, edge_ok=edge_ok)
        self._kernels = kernels
        return self

    def _recompute_subtree(self, eid: int, child: int) -> np.ndarray:
        kernels = self._kernels
        if kernels is None:
            return super()._recompute_subtree(eid, child)
        csr = self.csr
        out = np.empty(csr.num_vertices, dtype=np.int64)
        rc = kernels.recompute_subtree(
            csr.num_vertices,
            _ptr(csr.indptr),
            _ptr(csr.indices),
            _ptr(csr.edge_ids),
            _ptr(self.edge_ok),
            eid,
            _ptr(self._tin),
            int(self._tin[child]),
            int(self._tout[child]),
            _ptr(np.ascontiguousarray(self._preorder, dtype=np.int64)),
            _ptr(self.base),
            _ptr(out),
        )
        if rc != 0:  # allocation failure inside the kernel
            return super()._recompute_subtree(eid, child)
        return out


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
        return "compiled C levels (random scheme) + reference fallback"

    @property
    def replacement_backend(self) -> str:
        if self._kernels() is None:
            return "inherited numpy " + CSREngine.replacement_backend
        return "compiled C stacked subtree sweep (random scheme) + reference fallback"

    @property
    def detour_backend(self) -> str:
        if self._kernels() is None:
            return "inherited numpy " + CSREngine.detour_backend
        return "compiled C stacked levels (random scheme) + reference fallback"

    def _kernels(self) -> Optional[cbuild.KernelLib]:
        return cbuild.kernel_library()

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
        """The weighted relaxation routed through the C kernel.

        The whole traversal - seed intake (running-min semantics) and
        the level loop - is one GIL-free foreign call over the raw seed
        columns.  A non-zero return (the reference's order-dependent
        tie event, a seed tie or invalid seed, or scratch allocation
        failure) restores any caller-owned state via ``touched`` and
        reruns the whole traversal on the numpy path, reproducing the
        reference's outcome - including which exception, with which
        message - exactly.
        """
        kernels = self._kernels()
        if kernels is None:
            return super()._weighted_levels(
                csr, perts, seeds,
                edge_ok=edge_ok, vertex_ok=vertex_ok, allowed_ok=allowed_ok,
                raise_on_tie=raise_on_tie, scheme=scheme,
                num_vertices=num_vertices, stacked=stacked,
                banned_eid_per_batch=banned_eid_per_batch,
                state=state, touched=touched, layer_width=layer_width,
            )
        n = csr.num_vertices if num_vertices is None else num_vertices
        if state is not None:
            settled, hop_t, pert_t, parent, parent_eid = state
        else:
            hop_t = np.full(n, -1, dtype=np.int64)
            pert_t = np.zeros(n, dtype=np.int64)
            parent = np.full(n, -1, dtype=np.int64)
            parent_eid = np.full(n, -1, dtype=np.int64)
            settled = np.zeros(n, dtype=bool)
        if isinstance(seeds, SeedArrays):
            cols = (seeds.hop, seeds.pert, seeds.vertex,
                    seeds.parent, seeds.parent_eid)
        elif seeds:
            cols = tuple(zip(*seeds))
        else:
            cols = ()
        if cols and len(cols[0]):
            cols = tuple(np.ascontiguousarray(c, dtype=np.int64) for c in cols)
            rc = kernels.weighted_levels(
                n,
                csr.num_vertices,
                _ptr(csr.indptr),
                _ptr(csr.indices),
                _ptr(csr.edge_ids),
                _ptr(perts),
                _ptr(edge_ok),
                _ptr(vertex_ok),
                _ptr(allowed_ok),
                _ptr(banned_eid_per_batch),
                len(cols[0]),
                _ptr(cols[0]),
                _ptr(cols[1]),
                _ptr(cols[2]),
                _ptr(cols[3]),
                _ptr(cols[4]),
                1 if raise_on_tie else 0,
                _ptr(settled),
                _ptr(hop_t),
                _ptr(pert_t),
                _ptr(parent),
                _ptr(parent_eid),
            )
            if rc != 0:
                if state is not None:
                    # Every write (intake and kernel alike) lands on
                    # allowed positions, so resetting the caller's
                    # touched set restores the buffers' entry contract.
                    reset = touched if touched is not None else slice(None)
                    settled[reset] = False
                    hop_t[reset] = -1
                return super()._weighted_levels(
                    csr, perts, seeds,
                    edge_ok=edge_ok, vertex_ok=vertex_ok,
                    allowed_ok=allowed_ok, raise_on_tie=raise_on_tie,
                    scheme=scheme, num_vertices=num_vertices,
                    stacked=stacked,
                    banned_eid_per_batch=banned_eid_per_batch,
                    state=state, touched=touched, layer_width=layer_width,
                )
        return settled, hop_t, pert_t, parent, parent_eid

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
        kernels = self._kernels()
        if kernels is None:
            return super().distances(
                graph,
                source,
                banned_edge=banned_edge,
                banned_edges=banned_edges,
                banned_vertices=banned_vertices,
                allowed_edges=allowed_edges,
            )
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(
            csr.num_edges,
            banned_edge=banned_edge,
            banned_edges=banned_edges,
            allowed_edges=allowed_edges,
        )
        vertex_ok = _vertex_ok_mask(csr.num_vertices, banned_vertices)
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
            _ptr(vertex_ok),
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
            None,
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

    def sweep_from_base_state(
        self,
        graph: Graph,
        source: Vertex,
        arrays,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> CompiledFailureSweep:
        _check_source(graph, source)
        csr = csr_view(graph)
        edge_ok = _edge_ok_mask(csr.num_edges, allowed_edges=allowed_edges)
        return CompiledFailureSweep.from_base_state(
            csr, source, arrays, edge_ok=edge_ok, kernels=self._kernels()
        )
