"""Single-source replacement distances: ``dist(s, v, G \\ {e})`` for all pairs.

For every tree edge ``e`` of ``T0`` (with deeper endpoint ``c``) only the
vertices in the subtree under ``c`` can change distance when ``e`` fails.
The engine therefore recomputes each failure with a Dijkstra *restricted
to that subtree*, seeded from the crossing edges (whose outer endpoints
keep their original distances - their shortest paths cannot enter the
subtree).  Total work is ``O(sum over tree edges of |edges touching the
subtree| * log)``, which is roughly ``O(m * depth(T0))`` instead of the
naive ``O(n * m)``.

Phase S0 picks a replacement path for *every* pair ``<v, e>`` with ``e``
on ``pi(s, v)``, and every caller reads the whole table, so
:class:`ReplacementEngine` fills it in its constructor with one pass of
the engine's ``weighted_failure_sweep`` (the csr engine fills every
row in one C pass over the failed subtrees, under either weight
scheme).  The sweep's
reference implementation *is* the per-edge recompute
(:func:`repro.engine.base.replacement_failure`), and
``tests/test_weighted_parity.py`` enforces the two bit-identical.

The table has one format from the sweep to the snapshot file
(:mod:`repro.oracle.snapshot`): the Euler-keyed ``repl_*`` planes of
:class:`~repro.engine.base.ReplacementRows`, one row per failed edge
over ``subtree_vertices(child)`` in preorder.  The engine concatenates
the sweep's blocks and answers from them: ``dist_after_failure`` reads
one composite, Pcons's covered test reads a row's hop and perturbation
planes through ``_row``, and ``export_arrays`` hands them on
unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro._types import EdgeId, Vertex
from repro.engine.base import ReplacementRows
from repro.engine.registry import get_engine
from repro.spt.spt_tree import ShortestPathTree

__all__ = ["ReplacementEngine"]


class ReplacementEngine:
    """Per-failed-edge replacement distances over a fixed ``T0``, every
    tree edge swept at construction (see the module docstring)."""

    def __init__(self, tree: ShortestPathTree) -> None:
        self.tree = tree
        self.graph = tree.graph
        self.weights = tree.weights
        rows = self._rows = ReplacementRows.concat(
            get_engine().weighted_failure_sweep(self.graph, self.weights, tree)
        )
        # Per failed edge: v's entry sits at ``base + tin[v]``, for v in
        # the subtree's Euler interval ``[lo, hi)``.
        tin, tout = tree.tin, tree.tout
        self._row_of: Dict[EdgeId, Tuple[int, int, int]] = {
            eid: (offset - tin[child], tin[child], tout[child])
            for eid, child, offset in zip(
                rows.repl_eids, rows.repl_child, rows.repl_offsets
            )
        }

    def _row(self, eid: EdgeId) -> Tuple[int, List[int], List[int]]:
        """Tree edge ``eid``'s row as ``(base, hops, perts)``: a vertex
        ``x`` of the failed subtree has its entry at ``base + tin[x]`` of
        the two planes (hop -1 where the failure disconnects it).
        Pcons's covered test reads the rows this way; ``eid`` must be a
        tree edge."""
        rows = self._rows
        return self._row_of[eid][0], rows.repl_hop, rows.repl_pert

    def dist_after_failure(self, eid: EdgeId, v: Vertex) -> Optional[int]:
        """``dist_W(s, v, G \\ {e})``; ``None`` when disconnected.

        For vertices outside the failed subtree the original distance is
        returned directly (their shortest path avoids ``e``); a non-tree
        id raises :class:`~repro.errors.GraphError`.
        """
        row = self._row_of.get(eid)
        if row is None:
            self.tree.edge_child(eid)  # raises for every non-tree id
        tree = self.tree
        dist = tree.dist[v]
        if dist is None:
            return None
        base, lo, hi = row
        pos = tree.tin[v]
        if not lo <= pos < hi:
            return dist
        pos += base
        hop = self._rows.repl_hop[pos]
        if hop < 0:
            return None
        return (hop << self.weights.shift) + self._rows.repl_pert[pos]

    def export_arrays(self) -> Dict[str, List[int]]:
        """Every tree-edge failure as the snapshot's ``repl_*`` planes.

        Plain Python lists, rows in tree-edge preorder; the layout is
        :class:`~repro.engine.base.ReplacementRows`'.  Big-int
        perturbations stay big ints here - only a fixed-width
        *serialization* restricts them.
        """
        return self._rows._asdict()
