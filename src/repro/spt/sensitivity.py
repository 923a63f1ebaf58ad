"""Single-source distance sensitivity oracle (the related-work substrate).

The paper builds on the *single-source replacement paths* problem
([9, 17, 20, 21] in its bibliography): preprocess ``(G, s)`` so that
queries ``dist(s, v, G \\ {e})`` - and the corresponding replacement
path - are answered fast.  This oracle is a hop-unit view over a live
:class:`~repro.oracle.query.QueryOracle`, whose construction sweeps
every tree-edge failure once (classic preprocess-then-query):

* ``distance(v, failed_edge)`` - hop distance avoiding the failure, an
  O(1) read of the failed edge's Euler-keyed replacement row;
* ``replacement_path(v, failed_edge)`` - an actual shortest path in
  ``G \\ {e}``, walked along the row's parent pointers;
* failures off ``pi(s, v)`` short-circuit to the original distance.

Vertex and edge ids outside the graph raise
:class:`~repro.errors.GraphError`.
"""

from __future__ import annotations

from typing import List, Optional

from repro._types import EdgeId, Vertex
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.spt.spt_tree import ShortestPathTree, build_spt
from repro.spt.weights import make_weights

__all__ = ["DistanceSensitivityOracle"]


class DistanceSensitivityOracle:
    """Answers ``dist(s, v, G \\ {e})`` and replacement-path queries."""

    def __init__(
        self,
        graph: Graph,
        source: Vertex,
        *,
        weight_scheme: str = "auto",
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.source = source
        self.weights = make_weights(graph, weight_scheme, seed)
        self.tree: ShortestPathTree = build_spt(graph, self.weights, source)
        # Imported here: ``import repro`` loads this module, and builds
        # and verifies should not pay for the oracle package's import.
        from repro.oracle.query import QueryOracle

        self._oracle = QueryOracle.from_tree(self.tree)
        self.queries_served = 0

    # ------------------------------------------------------------------
    def base_distance(self, v: Vertex) -> Optional[int]:
        """``dist(s, v, G)`` in hops (``None`` when unreachable)."""
        return self._oracle.hops(v)

    def distance(
        self, v: Vertex, failed_edge: Optional[EdgeId] = None
    ) -> Optional[int]:
        """``dist(s, v, G \\ {failed_edge})`` in hops.

        ``failed_edge=None`` queries the no-failure distance.  Failures of
        non-tree edges, or of tree edges off ``pi(s, v)``, return the
        original distance.
        """
        self.queries_served += 1
        return self._oracle.hops(
            v, None if failed_edge is None else [failed_edge]
        )

    def replacement_path(
        self, v: Vertex, failed_edge: EdgeId
    ) -> Optional[List[Vertex]]:
        """A shortest ``s -> v`` path in ``G \\ {failed_edge}``.

        Returns ``None`` when the failure disconnects ``v``.  For
        unaffected targets the original tree path is returned.  Raises
        :class:`~repro.errors.GraphError` when ``v`` is out of range or
        unreachable even without the failure.
        """
        self.queries_served += 1
        oracle = self._oracle
        if oracle.dist(v, [failed_edge]) is None:
            if oracle.dist(v) is None:
                raise GraphError(
                    f"vertex {v} unreachable from source {self.source}"
                )
            return None
        return oracle.path(v, [failed_edge])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"DistanceSensitivityOracle(n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, source={self.source})"
        )
