"""The weighted-traversal result type shared by every engine backend.

:class:`ShortestPathResult` is the output contract of
``TraversalEngine.shortest_paths`` / ``seeded_shortest_paths`` (and of
the reference implementation in :mod:`repro.spt.dijkstra`).  It lives in
its own module so that consumers of the *type* - the tree builder, the
replacement-path engine, tests - never import a traversal
implementation directly; the only code importing
:mod:`repro.spt.dijkstra` is the engine layer.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import EdgeId, Vertex
from repro.errors import GraphError
from repro.spt.weights import WeightAssignment

__all__ = ["ShortestPathResult"]


class ShortestPathResult:
    """Distances and parent pointers from a weighted traversal.

    ``dist[v]`` is the composite weight (``None`` when unreachable),
    ``parent[v]``/``parent_eid[v]`` give the unique shortest-path tree
    (``-1`` at the source and at unreachable vertices).

    The reference builds ``dist`` as it runs.  The array kernels hand
    back per-vertex ``(hop, pert)`` lists instead (:meth:`from_levels`),
    and the big-int ``dist`` list is built on its first read, then kept;
    :meth:`dist_at` reads one distance without building it.
    """

    __slots__ = ("source", "parent", "parent_eid", "_dist", "_hop", "_pert", "_shift")

    def __init__(
        self,
        source: Vertex,
        dist: List[Optional[int]],
        parent: List[int],
        parent_eid: List[int],
    ) -> None:
        self.source = source
        self.parent = parent
        self.parent_eid = parent_eid
        self._dist: Optional[List[Optional[int]]] = dist
        self._hop: Optional[List[int]] = None
        self._pert: Optional[List[int]] = None
        self._shift = 0

    @classmethod
    def from_levels(
        cls,
        source: Vertex,
        shift: int,
        hop: List[int],
        pert: List[int],
        parent: List[int],
        parent_eid: List[int],
    ) -> "ShortestPathResult":
        """A result over per-vertex hop counts (``-1`` when unreachable)
        and perturbation sums: ``dist[v] = (hop[v] << shift) + pert[v]``."""
        result = cls(source, None, parent, parent_eid)
        result._hop, result._pert, result._shift = hop, pert, shift
        return result

    @property
    def dist(self) -> List[Optional[int]]:
        dist = self._dist
        if dist is None:
            shift = self._shift
            dist = self._dist = [
                None if h < 0 else (h << shift) + p
                for h, p in zip(self._hop, self._pert)
            ]
        return dist

    def dist_at(self, v: Vertex) -> Optional[int]:
        """``dist[v]``, without building the whole list."""
        dist = self._dist
        if dist is not None:
            return dist[v]
        h = self._hop[v]
        return None if h < 0 else (h << self._shift) + self._pert[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShortestPathResult):
            return NotImplemented
        return (
            self.source == other.source
            and self.dist == other.dist
            and self.parent == other.parent
            and self.parent_eid == other.parent_eid
        )

    def __repr__(self) -> str:
        return (
            f"ShortestPathResult(source={self.source!r}, dist={self.dist!r}, "
            f"parent={self.parent!r}, parent_eid={self.parent_eid!r})"
        )

    def hops(self, weights: WeightAssignment, v: Vertex) -> Optional[int]:
        """Hop distance to ``v`` (``None`` when unreachable)."""
        d = self.dist_at(v)
        return None if d is None else weights.hops(d)

    def path_vertices(self, v: Vertex) -> List[Vertex]:
        """The unique shortest path ``source -> v`` as a vertex list."""
        if self.dist_at(v) is None:
            raise GraphError(f"vertex {v} unreachable from {self.source}")
        path = [v]
        while v != self.source:
            v = self.parent[v]
            path.append(v)
        path.reverse()
        return path

    def path_edges(self, v: Vertex) -> List[EdgeId]:
        """The unique shortest path ``source -> v`` as edge ids."""
        if self.dist_at(v) is None:
            raise GraphError(f"vertex {v} unreachable from {self.source}")
        edges = []
        while v != self.source:
            edges.append(self.parent_eid[v])
            v = self.parent[v]
        edges.reverse()
        return edges
