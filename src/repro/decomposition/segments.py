"""Exponential decomposition of a root path ``pi(s, v)`` (Sub-phase S2.2).

The paper decomposes ``pi(s, v)`` into ``k' = floor(log2 |pi(s, v)|)``
subsegments of exponentially decreasing length: segment ``j`` ends at the
vertex ``u_{i_j}`` at distance ``ceil(sum_{l=1..j} |pi|/2^l)`` from ``s``
(Eq. 5).  Deviation (asserted by
``tests/test_segments.py::TestTiling::test_segments_tile_path``): the
paper's boundaries can leave the last couple of edges of the path
outside every segment; we extend the final segment to reach ``v`` so the
segments tile the whole path.  The Eq. 5 invariants

``|pi_j| >= floor(|pi| / 2^(j-1) / 2)``  and
``sum_{j' > j} |pi_j'| >= |pi_j| / 2  - O(1)``

still hold and are asserted by the property tests.

Segments are represented by *edge index ranges* along the path: segment
``j`` covers path edges ``start <= idx < stop`` where edge ``idx`` joins
path vertices ``idx`` and ``idx + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ParameterError

__all__ = ["PathSegment", "decompose_path_edges"]


@dataclass(frozen=True)
class PathSegment:
    """Half-open edge-index range ``[start, stop)`` along a root path."""

    index: int  # 1-based segment number j
    start: int
    stop: int

    @property
    def num_edges(self) -> int:
        return self.stop - self.start

    def contains_edge(self, edge_idx: int) -> bool:
        """Whether path-edge ``edge_idx`` falls in this segment."""
        return self.start <= edge_idx < self.stop


def decompose_path_edges(path_length: int) -> List[PathSegment]:
    """Decompose a path of ``path_length`` edges per Eq. 5.

    Returns segments tiling edge indices ``0..path_length-1``.  A path of
    zero edges yields no segments; a path of one or two edges yields a
    single segment (``k' = floor(log2 L)`` would be 0 or 1).
    """
    length = int(path_length)
    if length < 0:
        raise ParameterError(f"path_length must be >= 0, got {path_length}")
    if length == 0:
        return []
    k_prime = int(math.floor(math.log2(length))) if length > 1 else 1
    k_prime = max(k_prime, 1)
    segments: List[PathSegment] = []
    prev_boundary = 0
    running = 0.0
    for j in range(1, k_prime + 1):
        running += length / (2.0**j)
        boundary = int(math.ceil(running))
        if j == k_prime:
            boundary = length  # extend the last segment to cover the tail
        boundary = min(max(boundary, prev_boundary), length)
        if boundary > prev_boundary:
            segments.append(
                PathSegment(index=len(segments) + 1, start=prev_boundary, stop=boundary)
            )
            prev_boundary = boundary
    if prev_boundary < length:  # pragma: no cover - defensive; j==k' covers it
        segments.append(
            PathSegment(index=len(segments) + 1, start=prev_boundary, stop=length)
        )
    return segments

