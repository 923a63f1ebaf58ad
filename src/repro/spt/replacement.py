"""Single-source replacement distances: ``dist(s, v, G \\ {e})`` for all pairs.

For every tree edge ``e`` of ``T0`` (with deeper endpoint ``c``) only the
vertices in the subtree under ``c`` can change distance when ``e`` fails.
The engine therefore recomputes each failure with a Dijkstra *restricted
to that subtree*, seeded from the crossing edges (whose outer endpoints
keep their original distances - their shortest paths cannot enter the
subtree).  Total work is ``O(sum over tree edges of |edges touching the
subtree| * log)``, which is roughly ``O(m * depth(T0))`` instead of the
naive ``O(n * m)``.

Two execution paths feed the same memoized cache (PR 4):

* **Lazy probes.**  ``failure(eid)`` computes a single failed edge via a
  per-call seeded traversal
  (:func:`repro.engine.base.replacement_failure`), so callers that only
  probe a few failures stay cheap.
* **The sweep.**  ``precompute_all()`` - and, automatically, any caller
  whose lazy probes cross a constant fraction of the tree edges - fills
  every missing failure through the engine's ``weighted_failure_sweep``,
  which amortizes one pass over all failures (the csr engine stacks the
  subtree recomputes into shared per-level kernels).

Both paths are bit-identical by contract - the sweep's reference
implementation *is* the per-call loop - which
``tests/test_weighted_parity.py`` enforces property-based.  ``stats()``
exposes the sweep/lazy/hit counters (surfaced in ``PconsStats``) and
``clear()`` drops the cache so long-lived runs can bound memory.

A third source feeds the cache since PR 9: a **snapshot layer**
(:meth:`ReplacementEngine.export_arrays` /
:meth:`ReplacementEngine.from_arrays`).  ``export_arrays()`` flattens
every cached failure into Euler-keyed int64-representable planes - each
failed edge's row covers exactly ``subtree_vertices(child)`` in preorder,
so the vertex keys never need storing - and ``from_arrays()`` rebuilds an
engine whose misses materialize rows from those planes instead of
traversing.  ``stats()`` counts those as ``snapshot_hits``, distinct
from ``lazy_computes``/``sweep_fills``, so oracle serving stays
observable through the existing counters.  The round trip is
bit-identical: a materialized row equals the fresh compute exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro._types import EdgeId, Vertex
from repro.engine.base import replacement_failure
from repro.engine.registry import get_engine
from repro.spt.spt_tree import ShortestPathTree

__all__ = ["EdgeFailure", "ReplacementEngine", "ReplacementStats"]

#: Lazy probes beyond this fraction of the tree edges trigger a sweep of
#: everything still missing (the caller is evidently going to touch a
#: constant fraction of the tree, the regime the sweep amortizes).
_EAGER_FRACTION = 0.25

#: ... but never upgrade before this many probes (tiny trees).
_EAGER_MIN = 8


@dataclass
class EdgeFailure:
    """Recomputed shortest-path data for a single failed tree edge.

    ``dist`` maps each subtree vertex to its new composite distance
    (``None`` if the failure disconnects it).  ``parent``/``parent_eid``
    describe the recomputed shortest paths inside the subtree; parents of
    boundary vertices point *outside* the subtree.
    """

    eid: EdgeId
    child: Vertex
    dist: Dict[Vertex, Optional[int]]
    parent: Dict[Vertex, Vertex]
    parent_eid: Dict[Vertex, EdgeId]


@dataclass(frozen=True)
class ReplacementStats:
    """A point-in-time view of a :class:`ReplacementEngine`'s economics."""

    #: Failed edges currently held in the cache.
    cached_edges: int
    #: Total tree edges of the underlying ``T0``.
    tree_edges: int
    #: Failures computed one at a time (per-call seeded traversals).
    lazy_computes: int
    #: Failures filled by a ``weighted_failure_sweep`` pass.
    sweep_fills: int
    #: Cache hits served without recomputing.
    hits: int
    #: Failures materialized from imported snapshot planes (no traversal).
    snapshot_hits: int = 0


class ReplacementEngine:
    """Memoized per-failed-edge replacement distances over a fixed ``T0``.

    Lazy by default; sweep-backed when eager (see the module docstring).
    """

    def __init__(self, tree: ShortestPathTree) -> None:
        self.tree = tree
        self.graph = tree.graph
        self.weights = tree.weights
        self._cache: Dict[EdgeId, EdgeFailure] = {}
        self._num_tree_edges = tree.num_reachable - 1
        self._eager_threshold = max(
            _EAGER_MIN, int(self._num_tree_edges * _EAGER_FRACTION)
        )
        self._lazy_computes = 0
        self._lazy_since_clear = 0
        self._sweep_fills = 0
        self._hits = 0
        self._snapshot_hits = 0
        #: Imported snapshot planes (see :meth:`from_arrays`); survives
        #: clear() - the backing store is immutable, only the dict cache
        #: is droppable.
        self._snapshot: Optional[Dict[str, Sequence[int]]] = None
        self._snapshot_rows: Dict[EdgeId, int] = {}

    # ------------------------------------------------------------------
    def failure(self, eid: EdgeId) -> EdgeFailure:
        """Failure data for tree edge ``eid`` (memoized)."""
        data = self._cache.get(eid)
        if data is not None:
            self._hits += 1
            return data
        row = self._snapshot_rows.get(eid)
        if row is not None:
            # Snapshot rows materialize without traversing - they count
            # neither as lazy probes (no eager-upgrade pressure) nor as
            # sweep fills.
            data = self._materialize_row(row)
            self._cache[eid] = data
            self._snapshot_hits += 1
            return data
        if (
            self._lazy_since_clear >= self._eager_threshold
            and len(self._cache) < self._num_tree_edges
        ):
            # The caller is touching a constant fraction of the tree:
            # amortize everything still missing in one sweep.  (The
            # trigger counts probes since the last clear() - a caller
            # that clears to bound memory must not be handed the whole
            # cache back on its next probe.)
            self.precompute_all()
            data = self._cache.get(eid)
            if data is not None:
                return data
        data = self._compute(eid)
        self._lazy_computes += 1
        self._lazy_since_clear += 1
        self._cache[eid] = data
        return data

    def dist_after_failure(self, eid: EdgeId, v: Vertex) -> Optional[int]:
        """``dist_W(s, v, G \\ {e})``; ``None`` when disconnected.

        For vertices outside the failed subtree the original distance is
        returned directly (their shortest path avoids ``e``).
        """
        tree = self.tree
        child = tree.edge_child(eid)
        if not tree.is_reachable(v):
            return None
        if tree.in_subtree(child, v):
            return self.failure(eid).dist.get(v)
        return tree.dist[v]

    def hops_after_failure(self, eid: EdgeId, v: Vertex) -> Optional[int]:
        """Hop count version of :meth:`dist_after_failure`."""
        d = self.dist_after_failure(eid, v)
        return None if d is None else self.weights.hops(d)

    def precompute_all(self) -> None:
        """Fill every missing tree-edge failure.

        Snapshot-backed edges materialize from the imported planes; only
        genuinely missing ones go through the engine sweep.
        """
        for eid, row in self._snapshot_rows.items():
            if eid not in self._cache:
                self._cache[eid] = self._materialize_row(row)
                self._snapshot_hits += 1
        missing = [
            eid for eid in self.tree.tree_edges() if eid not in self._cache
        ]
        if not missing:
            return
        sweep = get_engine().weighted_failure_sweep(
            self.graph, self.weights, self.tree, eids=missing
        )
        for eid, child, dist, parent, parent_eid in sweep:
            self._cache[eid] = EdgeFailure(
                eid=eid, child=child, dist=dist,
                parent=parent, parent_eid=parent_eid,
            )
            self._sweep_fills += 1

    def clear(self) -> None:
        """Drop all cached failure data (cumulative counters survive).

        Long-lived runs (the E11/E12 economics sweeps) can bound memory
        by clearing between workloads; subsequent probes recompute
        lazily - the auto-upgrade trigger restarts from zero, so a
        clear is never immediately undone by a full re-sweep.
        """
        self._cache.clear()
        self._lazy_since_clear = 0

    def stats(self) -> ReplacementStats:
        """Sweep/lazy/snapshot/hit counters plus the current cache size."""
        return ReplacementStats(
            cached_edges=len(self._cache),
            tree_edges=self._num_tree_edges,
            lazy_computes=self._lazy_computes,
            sweep_fills=self._sweep_fills,
            hits=self._hits,
            snapshot_hits=self._snapshot_hits,
        )

    # ------------------------------------------------------------------
    # snapshot planes: flat, Euler-keyed, int-sequence import/export
    # ------------------------------------------------------------------
    def export_arrays(self) -> Dict[str, List[int]]:
        """Flatten every cached failure into Euler-keyed integer planes.

        Returns plain Python lists (callers choose the storage width):

        ``repl_eids``/``repl_child``
            One entry per exported failed edge, in tree-edge preorder.
        ``repl_offsets``
            ``len(repl_eids) + 1`` prefix offsets into the flat planes.
        ``repl_hop``/``repl_pert``/``repl_parent``/``repl_parent_eid``
            Row ``i`` covers ``subtree_vertices(repl_child[i])`` *in
            preorder* - the vertex keys are implied by the Euler
            interval, never stored.  ``hop = -1`` marks a disconnected
            vertex (``pert`` 0, ``parent``/``parent_eid`` -1); otherwise
            ``dist = (hop << shift) + pert``.

        The inverse is :meth:`from_arrays`; the round trip is exact for
        any weight scheme (big-int perturbations stay big ints here -
        only a fixed-width *serialization* restricts them).
        """
        tree = self.tree
        shift = self.weights.shift
        mask = self.weights.big - 1
        eids: List[int] = []
        child: List[int] = []
        offsets: List[int] = [0]
        hop: List[int] = []
        pert: List[int] = []
        parent: List[int] = []
        parent_eid: List[int] = []
        for eid in tree.tree_edges():
            data = self._cache.get(eid)
            if data is None:
                continue
            eids.append(eid)
            child.append(data.child)
            for v in tree.subtree_vertices(data.child):
                d = data.dist.get(v)
                if d is None:
                    hop.append(-1)
                    pert.append(0)
                    parent.append(-1)
                    parent_eid.append(-1)
                else:
                    hop.append(d >> shift)
                    pert.append(d & mask)
                    parent.append(data.parent[v])
                    parent_eid.append(data.parent_eid[v])
            offsets.append(len(hop))
        return {
            "repl_eids": eids,
            "repl_child": child,
            "repl_offsets": offsets,
            "repl_hop": hop,
            "repl_pert": pert,
            "repl_parent": parent,
            "repl_parent_eid": parent_eid,
        }

    @classmethod
    def from_arrays(
        cls, tree: ShortestPathTree, arrays: Dict[str, Sequence[int]]
    ) -> "ReplacementEngine":
        """Rebuild an engine over :meth:`export_arrays`-shaped planes.

        The planes become an immutable backing store: a cache miss on an
        exported edge materializes its :class:`EdgeFailure` from the row
        (counted as ``snapshot_hits``), bit-identical to the original
        compute; edges outside the export still go through the normal
        lazy/sweep paths.  The arrays may be any int-indexable sequences
        - Python lists, numpy views, mmap-backed planes.
        """
        engine = cls(tree)
        engine._snapshot = arrays
        engine._snapshot_rows = {
            int(eid): i for i, eid in enumerate(arrays["repl_eids"])
        }
        return engine

    def _materialize_row(self, row: int) -> EdgeFailure:
        arrays = self._snapshot
        lo = int(arrays["repl_offsets"][row])
        hi = int(arrays["repl_offsets"][row + 1])
        child = int(arrays["repl_child"][row])
        shift = self.weights.shift
        sub = self.tree.subtree_vertices(child)
        dist: Dict[Vertex, Optional[int]] = {}
        parent: Dict[Vertex, Vertex] = {}
        parent_eid: Dict[Vertex, EdgeId] = {}
        hops = _as_list(arrays["repl_hop"], lo, hi)
        perts = _as_list(arrays["repl_pert"], lo, hi)
        parents = _as_list(arrays["repl_parent"], lo, hi)
        parent_eids = _as_list(arrays["repl_parent_eid"], lo, hi)
        for i, v in enumerate(sub):
            h = hops[i]
            if h < 0:
                dist[v] = None
            else:
                dist[v] = (h << shift) + perts[i]
                parent[v] = parents[i]
                parent_eid[v] = parent_eids[i]
        return EdgeFailure(
            eid=int(arrays["repl_eids"][row]),
            child=child,
            dist=dist,
            parent=parent,
            parent_eid=parent_eid,
        )

    # ------------------------------------------------------------------
    def _compute(self, eid: EdgeId) -> EdgeFailure:
        # Per-call path, dispatched through the engine layer (the csr
        # engine runs the random scheme on array kernels, falling back
        # to the big-int reference for exact weights and tiny subtrees).
        eid, child, dist, parent, parent_eid = replacement_failure(
            get_engine(), self.graph, self.weights, self.tree, eid
        )
        return EdgeFailure(
            eid=eid, child=child, dist=dist, parent=parent, parent_eid=parent_eid
        )


def _as_list(seq: Sequence[int], lo: int, hi: int) -> List[int]:
    """A slice of ``seq`` as plain Python ints (numpy rows round-trip
    through ``tolist`` so materialized dicts hold exact big-int-safe
    values, never numpy scalars)."""
    part = seq[lo:hi]
    tolist = getattr(part, "tolist", None)
    return tolist() if tolist is not None else [int(x) for x in part]
