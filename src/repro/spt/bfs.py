"""Plain breadth-first search on hop counts - engine dispatch facade.

The verification oracle compares hop distances in ``G \\ {e}`` and
``H \\ {e}``; hop BFS (no tie-breaking needed) is the fastest way to get
them.  ``banned_edge``/``banned_edges`` implement edge failures without
copying the graph.

Since the engine refactor these functions are thin wrappers over the
active :class:`~repro.engine.base.TraversalEngine` (see
:mod:`repro.engine`): the pure-Python loops live in
:mod:`repro.engine.python_engine`, the numpy/CSR kernels in
:mod:`repro.engine.kernels`, and results are bit-identical across
engines.  Pass ``engine="python"``/``"csr"`` to pin a backend per call;
otherwise the registry default applies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro._types import EdgeId, Vertex
from repro.engine.base import UNREACHABLE
from repro.engine.registry import get_engine

__all__ = ["bfs_distances", "bfs_tree", "UNREACHABLE"]


def bfs_distances(
    graph,
    source: Vertex,
    *,
    banned_edge: Optional[EdgeId] = None,
    banned_edges: Optional[Set[EdgeId]] = None,
    allowed_edges: Optional[Set[EdgeId]] = None,
    engine: Optional[str] = None,
) -> List[int]:
    """Hop distances from ``source``; ``UNREACHABLE`` marks unreached vertices.

    ``allowed_edges`` (if given) restricts traversal to a subset of edges -
    used to run BFS inside a structure ``H`` without materializing it.
    """
    return get_engine(engine).distances(
        graph,
        source,
        banned_edge=banned_edge,
        banned_edges=banned_edges,
        allowed_edges=allowed_edges,
    )


def bfs_tree(
    graph,
    source: Vertex,
    *,
    allowed_edges: Optional[Set[EdgeId]] = None,
    engine: Optional[str] = None,
) -> Dict[Vertex, Vertex]:
    """A BFS parent map ``{vertex: parent}`` (source maps to itself)."""
    return get_engine(engine).parents(graph, source, allowed_edges=allowed_edges)
