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
the engine's ``weighted_failure_sweep`` (the csr engine stacks the
subtree recomputes into shared per-level kernels).  The sweep's
reference implementation *is* the per-edge recompute
(:func:`repro.engine.base.replacement_failure`), and
``tests/test_weighted_parity.py`` enforces the two bit-identical.

:meth:`ReplacementEngine.export_arrays` flattens the table into
Euler-keyed integer planes - each failed edge's row covers exactly
``subtree_vertices(child)`` in preorder, so the vertex keys never need
storing.  The oracle snapshot (:mod:`repro.oracle.snapshot`) stores them
and :class:`~repro.oracle.query.QueryOracle` answers from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro._types import EdgeId, Vertex
from repro.engine.registry import get_engine
from repro.spt.spt_tree import ShortestPathTree

__all__ = ["EdgeFailure", "ReplacementEngine"]


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


class ReplacementEngine:
    """Per-failed-edge replacement distances over a fixed ``T0``, every
    tree edge swept at construction (see the module docstring)."""

    def __init__(self, tree: ShortestPathTree) -> None:
        self.tree = tree
        self.graph = tree.graph
        self.weights = tree.weights
        sweep = get_engine().weighted_failure_sweep(
            self.graph, self.weights, tree
        )
        self._rows: Dict[EdgeId, EdgeFailure] = {
            eid: EdgeFailure(
                eid=eid, child=child, dist=dist,
                parent=parent, parent_eid=parent_eid,
            )
            for eid, child, dist, parent, parent_eid in sweep
        }

    def failure(self, eid: EdgeId) -> EdgeFailure:
        """Failure data for tree edge ``eid``; a non-tree id raises
        :class:`~repro.errors.GraphError`."""
        row = self._rows.get(eid)
        if row is None:
            self.tree.edge_child(eid)  # raises for every non-tree id
        return row

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
            return self._rows[eid].dist.get(v)
        return tree.dist[v]

    def export_arrays(self) -> Dict[str, List[int]]:
        """Flatten every tree-edge failure into Euler-keyed integer planes.

        Returns plain Python lists (callers choose the storage width):

        ``repl_eids``/``repl_child``
            One entry per failed tree edge, in tree-edge preorder.
        ``repl_offsets``
            ``len(repl_eids) + 1`` prefix offsets into the flat planes.
        ``repl_hop``/``repl_pert``/``repl_parent``/``repl_parent_eid``
            Row ``i`` covers ``subtree_vertices(repl_child[i])`` *in
            preorder* - the vertex keys are implied by the Euler
            interval, never stored.  ``hop = -1`` marks a disconnected
            vertex (``pert`` 0, ``parent``/``parent_eid`` -1); otherwise
            ``dist = (hop << shift) + pert``.

        Big-int perturbations stay big ints here - only a fixed-width
        *serialization* restricts them.
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
            data = self._rows[eid]
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
