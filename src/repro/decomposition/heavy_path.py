"""Heavy-path tree decomposition (Sleator-Tarjan via Baswana-Khanna).

Implements Fact 3.3 / Sub-phase (S2.0) of the paper: the BFS tree ``T0``
is recursively broken into vertex-disjoint root-to-leaf-ish paths
``TD = {psi_1, ..., psi_t}``:

* From the root of the current subtree, repeatedly descend into the child
  with the largest subtree ("heavy child") until a leaf - that is the
  path ``psi`` of the current recursive call.
* Every subtree hanging off ``psi`` has at most half the vertices of the
  current subtree (Fact 3.3(1)) and is connected to ``psi`` by one "glue"
  edge ``e(psi, i)`` (Fact 3.3(2)); recursion continues inside it at
  ``level + 1``.

Consequences used by the construction and asserted in tests (Fact 4.1):
every root path ``pi(s, v)`` contains ``O(log n)`` glue edges and
intersects ``O(log n)`` decomposition paths.

``E+`` (edges on decomposition paths) and ``E-`` (glue edges) partition
the tree edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.errors import GraphError
from repro.spt.spt_tree import ShortestPathTree

__all__ = ["HeavyPath", "TreeDecomposition", "heavy_path_decomposition"]


@dataclass
class HeavyPath:
    """One path ``psi`` of the decomposition.

    ``vertices`` run from the top (``s_psi``, closest to the root) to the
    bottom (``t_psi``).  ``level`` is the recursion depth that produced the
    path (0 = the path through the global root).
    """

    index: int
    level: int
    vertices: List[Vertex]
    #: Edge ids of the path's own tree edges (parent edges of vertices[1:]).
    edge_ids: List[EdgeId] = field(default_factory=list)

    @property
    def top(self) -> Vertex:
        """``s_psi`` - the endpoint closest to the root."""
        return self.vertices[0]

    @property
    def bottom(self) -> Vertex:
        """``t_psi`` - the deep endpoint."""
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)


class TreeDecomposition:
    """The full decomposition ``TD`` plus glue-edge bookkeeping."""

    def __init__(self, tree: ShortestPathTree) -> None:
        self.tree = tree
        self.paths: List[HeavyPath] = []
        #: path index containing each vertex (-1 for unreachable vertices).
        self.path_of_vertex: List[int] = [-1] * tree.graph.num_vertices
        #: glue edges ``E-(TD)``.
        self.glue_edges: Set[EdgeId] = set()
        #: path edges ``E+(TD)``.
        self.path_edges: Set[EdgeId] = set()
        self.num_levels = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        tree = self.tree
        size = {v: tree.subtree_size(v) for v in tree.preorder}
        # Work stack of (subtree_root, level); children enumerated from the
        # SPT's child lists.
        stack: List[Tuple[Vertex, int]] = [(tree.source, 0)]
        while stack:
            root, level = stack.pop()
            self.num_levels = max(self.num_levels, level + 1)
            # Descend along heavy children.
            path_vertices = [root]
            v = root
            while tree.children[v]:
                heavy = max(tree.children[v], key=lambda c: (size[c], -c))
                path_vertices.append(heavy)
                v = heavy
            path = HeavyPath(
                index=len(self.paths), level=level, vertices=path_vertices
            )
            for u in path_vertices[1:]:
                path.edge_ids.append(tree.parent_eid[u])
            self.paths.append(path)
            self.path_edges.update(path.edge_ids)
            on_path = set(path_vertices)
            for u in path_vertices:
                self.path_of_vertex[u] = path.index
                for c in tree.children[u]:
                    if c in on_path:
                        continue
                    # c roots a hanging subtree: its parent edge is glue.
                    self.glue_edges.add(tree.parent_eid[c])
                    stack.append((c, level + 1))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def path_containing(self, v: Vertex) -> HeavyPath:
        """The decomposition path through ``v``."""
        idx = self.path_of_vertex[v]
        if idx < 0:
            raise GraphError(f"vertex {v} unreachable; not on any path")
        return self.paths[idx]

    def paths_intersecting_root_path(self, v: Vertex) -> List[HeavyPath]:
        """All paths ``psi`` with ``psi`` intersecting ``pi(s, v)``.

        Walk up from ``v`` hopping between paths via their tops: at most
        one path per recursion level, hence ``O(log n)`` results
        (Fact 4.1(b)).
        """
        tree = self.tree
        result: List[HeavyPath] = []
        u = v
        while True:
            path = self.path_containing(u)
            result.append(path)
            top = path.top
            if top == tree.source:
                break
            u = tree.parent[top]
        result.reverse()
        return result

    def glue_edges_on_root_path(self, v: Vertex) -> List[EdgeId]:
        """Glue edges on ``pi(s, v)`` (``O(log n)`` many, Fact 4.1(a))."""
        tree = self.tree
        result: List[EdgeId] = []
        u = v
        while u != tree.source:
            eid = tree.parent_eid[u]
            if eid in self.glue_edges:
                result.append(eid)
            u = tree.parent[u]
        result.reverse()
        return result

    def root_path_intersection(
        self, path: HeavyPath, v: Vertex
    ) -> Optional[Tuple[Vertex, Vertex]]:
        """The contiguous intersection ``psi`` with ``pi(s, v)``.

        Returns ``(top, bottom)`` vertices of the intersection (both on
        ``psi`` and on ``pi(s, v)``), or ``None`` when disjoint.  The
        intersection, when nonempty, is ``pi(s_psi, LCA(t_psi, v))``.
        """
        tree = self.tree
        if not tree.is_ancestor(path.top, v):
            return None
        w = tree.lca(path.bottom, v)
        return (path.top, w)


def heavy_path_decomposition(tree: ShortestPathTree) -> TreeDecomposition:
    """Decompose ``T0`` into heavy paths (Fact 3.3)."""
    return TreeDecomposition(tree)
