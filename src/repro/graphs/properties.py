"""Structural graph properties: components and bridges.

Bridges matter to the fault-tolerance story: the failure of a bridge edge
disconnects part of the graph, and the FT-BFS specification only requires
distances to be preserved on the *surviving* part.  The failure-injection
tests use :func:`bridges` to construct exactly those cases.
"""

from __future__ import annotations

from collections import deque
from typing import List, Set

from repro._types import EdgeId, Vertex
from repro.graphs.graph import Graph

__all__ = [
    "connected_components",
    "is_connected",
    "bridges",
    "is_tree",
]


def connected_components(graph: Graph) -> List[Set[Vertex]]:
    """Connected components as vertex sets, ordered by smallest member."""
    seen = [False] * graph.num_vertices
    components: List[Set[Vertex]] = []
    for start in graph.vertices():
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, _ in graph.adjacency(v):
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        components.append(comp)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (vacuously true for n <= 1)."""
    if graph.num_vertices <= 1:
        return True
    return len(connected_components(graph)) == 1


def bridges(graph: Graph) -> List[EdgeId]:
    """All bridge edges (iterative Tarjan lowpoint algorithm)."""
    n = graph.num_vertices
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    result: List[EdgeId] = []
    timer = 0
    for root in graph.vertices():
        if visited[root]:
            continue
        # Iterative DFS; stack entries: (vertex, incoming edge id, adj index).
        stack: List[List[int]] = [[root, -1, 0]]
        visited[root] = True
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            frame = stack[-1]
            v, in_eid, idx = frame
            adj = graph.adjacency(v)
            if idx < len(adj):
                frame[2] += 1
                w, eid = adj[idx]
                if eid == in_eid:
                    continue
                if visited[w]:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    visited[w] = True
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, eid, 0])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        result.append(in_eid)
    return result


def is_tree(graph: Graph) -> bool:
    """Whether the graph is a tree (connected, m = n - 1)."""
    return (
        graph.num_edges == graph.num_vertices - 1 and is_connected(graph)
    )

