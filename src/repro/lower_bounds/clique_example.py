"""The paper's motivating example (Section 1 figure): a bridge to a clique.

A source ``s`` connected by a single edge ``e`` to an ``(n-1)``-vertex
clique.  Edge connectivity is 1, so pure backup cannot protect against
the failure of ``e``; reinforcing that one edge yields full single-fault
tolerance with only a modest number of backup edges inside the clique.
The bench for experiment E11 quantifies exactly this story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro._types import EdgeId, Vertex
from repro.errors import ParameterError
from repro.graphs.graph import Graph

__all__ = ["CliqueBridgeGraph", "build_clique_example"]


@dataclass
class CliqueBridgeGraph:
    """Layout of the bridge-to-clique example."""

    graph: Graph
    source: Vertex
    bridge_eid: EdgeId
    clique_vertices: List[Vertex]

    @property
    def clique_size(self) -> int:
        return len(self.clique_vertices)


def build_clique_example(n: int) -> CliqueBridgeGraph:
    """Source + bridge + ``(n-1)``-clique, per the Section 1 figure."""
    if n < 4:
        raise ParameterError(f"clique example needs n >= 4, got {n}")
    clique = list(range(1, n))
    edges: List[Tuple[int, int]] = [(0, 1)]  # the bridge e = (s, c_0)
    edges += [(u, v) for u in clique for v in clique if u < v]
    graph = Graph(n, edges, name=f"clique_bridge({n})")
    return CliqueBridgeGraph(
        graph=graph,
        source=0,
        bridge_eid=graph.edge_id(0, 1),
        clique_vertices=clique,
    )
