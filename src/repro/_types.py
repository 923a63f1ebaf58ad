"""Shared type aliases and tiny value objects used across the package.

The library identifies vertices and edges by dense integer ids:

* a *vertex* is an ``int`` in ``range(graph.num_vertices)``;
* an *edge id* is an ``int`` in ``range(graph.num_edges)`` referring to an
  undirected edge stored with canonical endpoint order ``u < v``.

Keeping these as plain integers (rather than wrapper classes) is an
intentional performance decision: the construction algorithms touch
millions of vertex/edge ids and attribute access on wrapper objects would
dominate the runtime.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = [
    "Vertex",
    "EdgeId",
    "Endpoints",
    "VertexPath",
    "EdgePath",
    "VertexIterable",
    "EdgeIterable",
]

#: A vertex id (dense, ``0 <= v < n``).
Vertex = int

#: An edge id (dense, ``0 <= e < m``).
EdgeId = int

#: Canonical endpoints of an undirected edge, ``u < v``.
Endpoints = Tuple[Vertex, Vertex]

#: A path given as a sequence of vertices.
VertexPath = Sequence[Vertex]

#: A path given as a sequence of edge ids.
EdgePath = Sequence[EdgeId]

VertexIterable = Iterable[Vertex]
EdgeIterable = Iterable[EdgeId]
