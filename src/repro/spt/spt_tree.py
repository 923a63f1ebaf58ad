"""The BFS tree ``T0``: unique shortest-path tree with ancestry machinery.

``ShortestPathTree`` materializes the paper's ``T0(s) = union of pi(s, v)``
(Section 2) under a tie-breaking weight assignment ``W``, together with
everything the construction needs to reason about it:

* ``pi(s, v)`` extraction (vertex and edge forms);
* Euler-tour intervals for O(1) ancestor tests and subtree enumeration;
* binary-lifting LCA;
* the tree-edge ``child`` convention: every tree edge is directed away
  from ``s`` and identified by its lower (deeper) endpoint, so the pair
  ``<v, e>`` of the paper becomes the integer pair ``(v, child_of(e))``;
* the paper's relation ``e ~ e'`` (``LCA(b, d) in {b, d}`` for the deeper
  endpoints ``b, d``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.spt.result import ShortestPathResult
from repro.spt.weights import WeightAssignment

__all__ = ["ShortestPathTree", "build_spt"]


class ShortestPathTree:
    """Unique shortest-path (BFS) tree rooted at ``source``.

    Build with :func:`build_spt`; the constructor takes a finished
    :class:`~repro.spt.result.ShortestPathResult`.
    """

    def __init__(
        self,
        graph: Graph,
        weights: WeightAssignment,
        source: Vertex,
        sp: ShortestPathResult,
    ) -> None:
        self.graph = graph
        self.weights = weights
        self.source = source
        self.dist = sp.dist
        self.parent = sp.parent
        self.parent_eid = sp.parent_eid

        n = graph.num_vertices
        self.depth: List[int] = [
            -1 if d is None else weights.hops(d) for d in self.dist
        ]
        self.children: List[List[Vertex]] = [[] for _ in range(n)]
        for v in range(n):
            if v != source and self.dist[v] is not None:
                self.children[self.parent[v]].append(v)

        # Euler tour: preorder with entry/exit times.  tin[v] <= tin[u] <
        # tout[v]  iff  v is an (inclusive) ancestor of u.
        self.tin = [-1] * n
        self.tout = [-1] * n
        self.preorder: List[Vertex] = []
        self._build_euler()

        # Binary lifting for LCA.
        self._log = max(1, (max(self.depth) if n else 0).bit_length())
        self._up: List[List[int]] = [list(self.parent)]
        for v in range(n):
            if self._up[0][v] == -1:
                self._up[0][v] = v if self.dist[v] is not None else -1
        for k in range(1, self._log + 1):
            prev = self._up[k - 1]
            self._up.append([prev[prev[v]] if prev[v] != -1 else -1 for v in range(n)])

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _build_euler(self) -> None:
        timer = 0
        if self.dist[self.source] is None:  # pragma: no cover - defensive
            raise GraphError("source must be reachable from itself")
        stack: List[Tuple[Vertex, int]] = [(self.source, 0)]
        self.tin[self.source] = 0
        while stack:
            v, idx = stack[-1]
            if idx == 0:
                self.tin[v] = timer
                self.preorder.append(v)
                timer += 1
            kids = self.children[v]
            if idx < len(kids):
                stack[-1] = (v, idx + 1)
                stack.append((kids[idx], 0))
            else:
                stack.pop()
                self.tout[v] = timer

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_reachable(self) -> int:
        """Number of vertices reachable from the source (tree size)."""
        return len(self.preorder)

    def is_reachable(self, v: Vertex) -> bool:
        """Whether ``v`` lies in the tree."""
        return self.dist[v] is not None

    def is_ancestor(self, a: Vertex, b: Vertex) -> bool:
        """Inclusive ancestor test: is ``a`` on ``pi(s, b)``?"""
        return self.tin[a] != -1 and self.tin[a] <= self.tin[b] < self.tout[a]

    def lca(self, u: Vertex, v: Vertex) -> Vertex:
        """Least common ancestor of two reachable vertices."""
        if not (self.is_reachable(u) and self.is_reachable(v)):
            raise GraphError("LCA requires both vertices reachable")
        if self.is_ancestor(u, v):
            return u
        if self.is_ancestor(v, u):
            return v
        up = self._up
        a = u
        for k in range(self._log, -1, -1):
            cand = up[k][a]
            if cand != -1 and not self.is_ancestor(cand, v):
                a = cand
        return up[0][a]

    def dist_perturbations(self, weights: Optional[WeightAssignment] = None) -> List[int]:
        """Per-vertex perturbation components of ``dist`` (0 where unreachable).

        The composite weight splits as ``dist = (hops << shift) + pert``;
        ``depth`` already holds the hop components, this returns the
        other half.  Shared by the csr engine's stacked sweep and the
        snapshot writer so the decomposition never diverges.
        """
        w = self.weights if weights is None else weights
        mask = w.big - 1
        pert = [0] * len(self.dist)
        for v, d in enumerate(self.dist):
            if d is not None:
                pert[v] = d & mask
        return pert

    # ------------------------------------------------------------------
    # paths and tree edges
    # ------------------------------------------------------------------
    def path_vertices(self, v: Vertex) -> List[Vertex]:
        """``pi(s, v)`` as a vertex list ``[s, ..., v]``."""
        if self.dist[v] is None:
            raise GraphError(f"vertex {v} unreachable from source {self.source}")
        path = [v]
        while v != self.source:
            v = self.parent[v]
            path.append(v)
        path.reverse()
        return path

    def path_edges(self, v: Vertex) -> List[EdgeId]:
        """``pi(s, v)`` as an edge-id list (root side first)."""
        if self.dist[v] is None:
            raise GraphError(f"vertex {v} unreachable from source {self.source}")
        edges = []
        while v != self.source:
            edges.append(self.parent_eid[v])
            v = self.parent[v]
        edges.reverse()
        return edges

    def tree_edges(self) -> List[EdgeId]:
        """All tree edge ids (in preorder of their child endpoints)."""
        return [
            self.parent_eid[v] for v in self.preorder if v != self.source
        ]

    def tree_edge_set(self) -> Set[EdgeId]:
        """Tree edges as a set."""
        return set(self.tree_edges())

    def edge_child(self, eid: EdgeId) -> Vertex:
        """The deeper endpoint of tree edge ``eid`` (the paper's direction)."""
        u, v = self.graph.endpoints(eid)
        if self.parent_eid[v] == eid:
            return v
        if self.parent_eid[u] == eid:
            return u
        raise GraphError(f"edge {eid} is not a tree edge")

    def is_tree_edge(self, eid: EdgeId) -> bool:
        """Whether ``eid`` belongs to ``T0``."""
        u, v = self.graph.endpoints(eid)
        return self.parent_eid[v] == eid or self.parent_eid[u] == eid

    def edge_depth(self, eid: EdgeId) -> int:
        """``dist(s, e)`` of the paper: the depth of the deeper endpoint."""
        return self.depth[self.edge_child(eid)]

    def edge_on_path(self, eid: EdgeId, v: Vertex) -> bool:
        """Whether tree edge ``eid`` lies on ``pi(s, v)``."""
        child = self.edge_child(eid)
        return self.is_ancestor(child, v)

    def subtree_vertices(self, v: Vertex) -> Sequence[Vertex]:
        """Vertices of the subtree rooted at ``v`` (preorder slice; no copy)."""
        return self.preorder[self.tin[v] : self.tout[v]]

    def subtree_size(self, v: Vertex) -> int:
        """Number of vertices in the subtree rooted at ``v``."""
        return self.tout[v] - self.tin[v]

    def in_subtree(self, root: Vertex, v: Vertex) -> bool:
        """Whether ``v`` lies in the subtree rooted at ``root``."""
        return self.is_ancestor(root, v)

    # ------------------------------------------------------------------
    # the paper's ~ relation between tree edges
    # ------------------------------------------------------------------
    def edges_similar(self, eid1: EdgeId, eid2: EdgeId) -> bool:
        """The relation ``e ~ e'``: both edges lie on a common root path.

        For tree edges with deeper endpoints ``b`` and ``d`` this holds iff
        ``LCA(b, d) in {b, d}``, i.e. one is an ancestor of the other
        (Section 3.1 of the paper).
        """
        b = self.edge_child(eid1)
        d = self.edge_child(eid2)
        return self.is_ancestor(b, d) or self.is_ancestor(d, b)


def build_spt(
    graph: Graph, weights: WeightAssignment, source: Vertex
) -> ShortestPathTree:
    """Run the weighted traversal under ``weights`` and wrap it as ``T0``.

    Dispatched through the engine layer, so the csr engine's array
    kernels handle the random weight scheme (the exact scheme falls back
    to the big-int reference Dijkstra inside the engine).
    """
    from repro.engine.registry import get_engine

    sp = get_engine().shortest_paths(graph, weights, source)
    return ShortestPathTree(graph, weights, source, sp)
