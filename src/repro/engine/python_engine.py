"""The pure-Python reference engine: the library's executable spec.

These are the historical adjacency-list loops, moved verbatim from
:mod:`repro.spt.bfs` (which now dispatches here through the registry).
Every other backend must be bit-identical to this one; the parity tests
enforce it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro._types import EdgeId, Vertex
from repro.engine.base import UNREACHABLE, SweepHandle, TraversalEngine
from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = ["PythonEngine"]


class _ReferenceSweep(SweepHandle):
    """Per-failure BFS, base computed lazily once (the historical loop)."""

    def __init__(self, engine, graph, source, allowed_edges):
        self._engine = engine
        self._graph = graph
        self._source = source
        self._allowed = allowed_edges
        self._base = None

    def base_distances(self):
        if self._base is None:
            self._base = self._engine.distances(
                self._graph, self._source, allowed_edges=self._allowed
            )
        return self._base

    def failed(self, eid):
        return self._engine.distances(
            self._graph,
            self._source,
            banned_edges={eid},
            allowed_edges=self._allowed,
        )


def _check_source(graph: Graph, source: Vertex) -> None:
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range for n={n}")


class PythonEngine(TraversalEngine):
    """Reference implementation over per-vertex adjacency lists."""

    name = "python"

    def distances(
        self,
        graph: Graph,
        source: Vertex,
        *,
        banned_edges: Optional[Set[EdgeId]] = None,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> List[int]:
        _check_source(graph, source)
        dist = [UNREACHABLE] * graph.num_vertices
        dist[source] = 0
        queue = deque([source])
        banned_e = banned_edges or ()
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for w, eid in graph.adjacency(v):
                if eid in banned_e:
                    continue
                if allowed_edges is not None and eid not in allowed_edges:
                    continue
                if dist[w] == UNREACHABLE:
                    dist[w] = dv + 1
                    queue.append(w)
        return dist

    def parents(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Dict[Vertex, Vertex]:
        _check_source(graph, source)
        parent: Dict[Vertex, Vertex] = {source: source}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w, eid in graph.adjacency(v):
                if allowed_edges is not None and eid not in allowed_edges:
                    continue
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        return parent

    def sweep(
        self,
        graph: Graph,
        source: Vertex,
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> SweepHandle:
        _check_source(graph, source)
        return _ReferenceSweep(self, graph, source, allowed_edges)

    # -- weighted traversals (shared reference implementation) ---------
    def shortest_paths(
        self,
        graph: Graph,
        weights,
        source: Vertex,
        *,
        banned_vertices: Optional[Set[Vertex]] = None,
        banned_edges: Optional[Set[EdgeId]] = None,
        targets: Optional[Iterable[Vertex]] = None,
    ):
        from repro.spt.dijkstra import dijkstra

        return dijkstra(
            graph,
            weights,
            source,
            banned_vertices=banned_vertices,
            banned_edges=banned_edges,
            targets=targets,
        )

    def seeded_shortest_paths(
        self,
        graph: Graph,
        weights,
        seeds,
        *,
        allowed_vertices: Set[Vertex],
    ):
        from repro.spt.dijkstra import seeded_dijkstra

        return seeded_dijkstra(
            graph, weights, seeds, allowed_vertices=allowed_vertices
        )
