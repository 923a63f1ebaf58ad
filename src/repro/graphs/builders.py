"""Deterministic graph builders: classic families and composition helpers.

These construct the named graph families used throughout the tests,
examples and benchmarks.  All builders return :class:`repro.graphs.Graph`
instances and are fully deterministic.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "broom_graph",
    "lollipop_graph",
    "barbell_graph",
    "caterpillar_graph",
    "from_edge_list",
    "from_networkx",
    "to_networkx",
    "disjoint_union",
    "join_with_edges",
]


def empty_graph(n: int) -> Graph:
    """``n`` isolated vertices."""
    return Graph(n, [], name=f"empty({n})")


def path_graph(n: int) -> Graph:
    """Path ``0 - 1 - ... - n-1``."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"path({n})")


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return Graph(n, edges, name=f"cycle({n})")


def star_graph(n: int) -> Graph:
    """Star with center ``0`` and ``n - 1`` leaves."""
    return Graph(n, [(0, i) for i in range(1, n)], name=f"star({n})")


def complete_graph(n: int) -> Graph:
    """Clique on ``n`` vertices."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, edges, name=f"K{n}")


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph; side A is ``0..a-1``, side B is ``a..a+b-1``."""
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Graph(a + b, edges, name=f"K{a},{b}")


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows x cols`` grid; vertex ``(r, c)`` has id ``r * cols + c``."""
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges, name=f"grid({rows}x{cols})")


def torus_graph(rows: int, cols: int) -> Graph:
    """Grid with wraparound in both dimensions (needs ``rows, cols >= 3``)."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs rows, cols >= 3")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add((min(v, right), max(v, right)))
            edges.add((min(v, down), max(v, down)))
    return Graph(rows * cols, sorted(edges), name=f"torus({rows}x{cols})")


def hypercube_graph(dim: int) -> Graph:
    """``dim``-dimensional hypercube on ``2**dim`` vertices."""
    n = 1 << dim
    edges = []
    for v in range(n):
        for bit in range(dim):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return Graph(n, edges, name=f"Q{dim}")


def binary_tree_graph(height: int) -> Graph:
    """Complete binary tree of the given height (root = 0)."""
    n = (1 << (height + 1)) - 1
    edges = []
    for v in range(1, n):
        edges.append(((v - 1) // 2, v))
    return Graph(n, edges, name=f"btree(h={height})")


def broom_graph(handle: int, bristles: int) -> Graph:
    """A path of ``handle`` edges ending in a star with ``bristles`` leaves.

    Useful as a deep-then-wide BFS tree shape in decomposition tests.
    """
    n = handle + 1 + bristles
    edges = [(i, i + 1) for i in range(handle)]
    for j in range(bristles):
        edges.append((handle, handle + 1 + j))
    return Graph(n, edges, name=f"broom({handle},{bristles})")


def lollipop_graph(clique: int, tail: int) -> Graph:
    """A ``clique``-clique attached to a path of ``tail`` edges."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    prev = clique - 1
    for t in range(tail):
        nxt = clique + t
        edges.append((prev, nxt))
        prev = nxt
    return Graph(clique + tail, edges, name=f"lollipop({clique},{tail})")


def barbell_graph(clique: int, bridge: int) -> Graph:
    """Two ``clique``-cliques joined by a path of ``bridge`` edges."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    offset = clique + max(bridge - 1, 0)
    # second clique
    edges += [
        (offset + i, offset + j) for i in range(clique) for j in range(i + 1, clique)
    ]
    prev = clique - 1
    for t in range(bridge - 1):
        nxt = clique + t
        edges.append((prev, nxt))
        prev = nxt
    edges.append((prev, offset))
    return Graph(offset + clique, edges, name=f"barbell({clique},{bridge})")


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """A path of ``spine`` vertices, each with ``legs_per_vertex`` pendant leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for v in range(spine):
        for _ in range(legs_per_vertex):
            edges.append((v, next_id))
            next_id += 1
    return Graph(next_id, edges, name=f"caterpillar({spine},{legs_per_vertex})")


def from_edge_list(edges: Sequence[Tuple[int, int]], *, n: int | None = None) -> Graph:
    """Build a graph from an edge list, inferring ``n`` if not given."""
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return Graph(n, edges)


def from_networkx(nx_graph: object) -> Graph:
    """Convert a ``networkx.Graph`` (used only in tests/benchmarks).

    Node labels must be hashable; they are relabeled to ``0..n-1`` in
    sorted-by-insertion order, matching ``networkx.convert_node_labels``.
    """
    nodes = list(nx_graph.nodes())  # type: ignore[attr-defined]
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nx_graph.edges()]  # type: ignore[attr-defined]
    return Graph(len(nodes), edges, name="from_networkx")


def to_networkx(graph: Graph) -> object:
    """Convert to a ``networkx.Graph`` (imported lazily; tests only)."""
    import networkx as nx

    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_vertices))
    nx_graph.add_edges_from((u, v) for _, u, v in graph.edges())
    return nx_graph


def disjoint_union(graphs: Sequence[Graph]) -> Tuple[Graph, List[int]]:
    """Disjoint union; returns the combined graph and per-part vertex offsets."""
    offsets: List[int] = []
    total = 0
    edges: List[Tuple[int, int]] = []
    for g in graphs:
        offsets.append(total)
        edges.extend((total + u, total + v) for _, u, v in g.edges())
        total += g.num_vertices
    return Graph(total, edges, name="disjoint_union"), offsets


def join_with_edges(
    graphs: Sequence[Graph], extra_edges: Iterable[Tuple[Tuple[int, int], Tuple[int, int]]]
) -> Tuple[Graph, List[int]]:
    """Disjoint union plus cross edges given as ``((part, v), (part, v))`` pairs."""
    combined, offsets = disjoint_union(graphs)
    cross = [
        (offsets[pa] + va, offsets[pb] + vb)
        for (pa, va), (pb, vb) in extra_edges
    ]
    return combined.with_edges_added(cross, name="joined"), offsets
