"""Frontier-based numpy BFS kernels over a :class:`CSRAdjacency` view.

All kernels operate on flat int64 arrays and per-edge / per-vertex
boolean masks; none of them touch Python adjacency lists.  Tie-breaking
(which vertex becomes a parent, discovery order of a level) is inherited
from the CSR layout, which preserves the graph's adjacency-list order -
so results are bit-identical to the pure-Python reference loops.

The expensive primitive is :class:`FailureSweep`: hop distances under
every single-edge failure of a sweep, computed by reusing one base BFS
tree.  Failing a non-tree edge cannot change any hop distance (the tree
certifies every distance without it), and failing tree edge ``e`` with
deeper endpoint ``c`` can only change distances *inside the subtree
under* ``c``; those are recomputed by a small multi-level-seeded BFS
restricted to the subtree, seeded from its surviving crossing edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.base import UNREACHABLE, SweepHandle
from repro.engine.csr import CSRAdjacency

__all__ = [
    "expand_frontier",
    "bfs_levels",
    "bfs_levels_ordered",
    "FailureSweep",
]

_INF = np.iinfo(np.int64).max


def expand_frontier(
    csr: CSRAdjacency, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The neighbor stream of ``frontier`` in adjacency order.

    Returns ``(sources, neighbors, edge_ids)``: three aligned arrays, one
    entry per incident half-edge, with ``sources`` repeating each
    frontier vertex once per neighbor.
    """
    starts = csr.indptr[frontier]
    counts = csr.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    cum = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
    return np.repeat(frontier, counts), csr.indices[flat], csr.edge_ids[flat]


def bfs_levels(
    csr: CSRAdjacency,
    source: int,
    *,
    edge_ok: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Masked hop distances from ``source`` (``UNREACHABLE`` = -1)."""
    dist = np.full(csr.num_vertices, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        _, nbrs, eids = expand_frontier(csr, frontier)
        keep = dist[nbrs] == UNREACHABLE
        if edge_ok is not None:
            keep &= edge_ok[eids]
        frontier = np.unique(nbrs[keep])
        dist[frontier] = level
    return dist


def bfs_levels_ordered(
    csr: CSRAdjacency,
    source: int,
    *,
    edge_ok: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.ndarray]]:
    """BFS with parents, reproducing the reference queue's discovery order.

    Returns ``(dist, parent, parent_eid, level_order)`` where ``parent``
    holds -1 at unreachable vertices, ``source`` maps to itself, and
    ``level_order[k]`` lists the vertices of level ``k`` in the exact
    order the reference deque BFS would dequeue them.  Each vertex's
    parent is its *first* discoverer in that order - bit-identical to the
    pure-Python ``bfs_tree``.
    """
    n = csr.num_vertices
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_eid = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    level_order = [frontier]
    level = 0
    while frontier.size:
        level += 1
        srcs, nbrs, eids = expand_frontier(csr, frontier)
        keep = dist[nbrs] == UNREACHABLE
        if edge_ok is not None:
            keep &= edge_ok[eids]
        srcs, nbrs, eids = srcs[keep], nbrs[keep], eids[keep]
        uniq, first = np.unique(nbrs, return_index=True)
        order = np.argsort(first, kind="stable")
        frontier = uniq[order]
        discoverer = first[order]
        dist[frontier] = level
        parent[frontier] = srcs[discoverer]
        parent_eid[frontier] = eids[discoverer]
        if frontier.size:
            level_order.append(frontier)
    return dist, parent, parent_eid, level_order


def _tree_edge_children(parent_eid: np.ndarray) -> Dict[int, int]:
    """``{edge id: child}`` over the tree edges of a BFS parent-edge array
    (``-1`` at the source and at unreached vertices)."""
    children = np.flatnonzero(parent_eid >= 0)
    return dict(zip(parent_eid[children].tolist(), children.tolist()))


class FailureSweep(SweepHandle):
    """Hop distances under single-edge failures, reusing one base BFS tree.

    ``edge_ok`` (optional) masks the graph down to a structure ``H``; the
    sweep then answers ``dist(source, ., H \\ {e})``.  Vectors returned
    for no-op failures are the *shared* base array - treat as read-only.
    ``_child_of`` maps each base-tree edge id to its deeper endpoint; an
    id that names no edge, or an edge the mask leaves out, is never a key.
    """

    def __init__(
        self,
        csr: CSRAdjacency,
        source: int,
        *,
        edge_ok: Optional[np.ndarray] = None,
    ) -> None:
        self.csr = csr
        self.source = source
        self.edge_ok = edge_ok
        self.base, self._parent, self._parent_eid, level_order = bfs_levels_ordered(
            csr, source, edge_ok=edge_ok
        )
        self.base.setflags(write=False)
        self._child_of = _tree_edge_children(self._parent_eid)
        self._tin, self._tout, self._preorder = self._euler(level_order)

    def _euler(
        self, level_order: List[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Preorder + entry/exit intervals of the base BFS tree."""
        n = self.csr.num_vertices
        parent = self._parent
        children: List[List[int]] = [[] for _ in range(n)]
        for level in level_order[1:]:
            for v in level.tolist():
                children[parent[v]].append(v)
        tin = np.full(n, -1, dtype=np.int64)
        tout = np.full(n, -1, dtype=np.int64)
        preorder = np.empty(sum(len(lv) for lv in level_order), dtype=np.int64)
        clock = 0
        stack: List[Tuple[int, bool]] = [(self.source, False)]
        while stack:
            v, done = stack.pop()
            if done:
                tout[v] = clock
                continue
            tin[v] = clock
            preorder[clock] = v
            clock += 1
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))
        return tin, tout, preorder

    def tree_child(self, eid: int) -> Optional[int]:
        """The deeper endpoint of ``eid`` if it is a base-tree edge, else None."""
        return self._child_of.get(eid)

    def base_distances(self) -> np.ndarray:
        """The no-failure distance vector (read-only, shared)."""
        return self.base

    def failed(self, eid: int) -> np.ndarray:
        """Hop distances after failing edge ``eid``.

        A failure off the base tree changes nothing - the tree certifies
        every distance without it, and a removal cannot shrink one - so
        it returns ``base`` itself; so do ids that name no edge (they ban
        nothing, as in the reference BFS) and edges the mask leaves out.
        A tree-edge failure returns a fresh array.  The reference handle
        returns fresh lists throughout, so callers may read ``is base``
        only as a shortcut, never as a correctness test
        (:class:`~repro.engine.base.SweepHandle`).
        """
        child = self._child_of.get(eid)
        if child is None:
            return self.base
        return self._recompute_subtree(eid, child)

    def _recompute_subtree(self, eid: int, child: int) -> np.ndarray:
        csr = self.csr
        base = self.base
        tin_c = self._tin[child]
        tout_c = self._tout[child]
        sub = self._preorder[tin_c:tout_c]
        new = base.copy()
        new[sub] = UNREACHABLE

        # Every surviving path into the subtree last enters through a
        # crossing edge (a, b) with a outside; outside distances are
        # unchanged, so b is seeded at base[a] + 1.
        srcs, nbrs, eids = expand_frontier(csr, sub)
        ok = eids != eid
        if self.edge_ok is not None:
            ok &= self.edge_ok[eids]
        tn = self._tin[nbrs]
        inside = (tn >= tin_c) & (tn < tout_c)
        crossing = ok & ~inside & (base[nbrs] != UNREACHABLE)

        tent = np.full(csr.num_vertices, _INF, dtype=np.int64)
        np.minimum.at(tent, srcs[crossing], base[nbrs[crossing]] + 1)

        # Multi-level-seeded BFS restricted to the subtree: settle levels
        # in increasing order (unit weights make this exact; a vertex is
        # settled once ``new`` holds its level).
        while True:
            cand = tent[sub]
            open_mask = (cand != _INF) & (new[sub] == UNREACHABLE)
            if not open_mask.any():
                break
            lvl = int(cand[open_mask].min())
            now = sub[open_mask & (cand == lvl)]
            new[now] = lvl
            _, n2, e2 = expand_frontier(csr, now)
            ok2 = e2 != eid
            if self.edge_ok is not None:
                ok2 &= self.edge_ok[e2]
            t2 = self._tin[n2]
            ok2 &= (t2 >= tin_c) & (t2 < tout_c) & (new[n2] == UNREACHABLE)
            targets = n2[ok2]
            if targets.size:
                np.minimum.at(tent, targets, lvl + 1)
        return new
