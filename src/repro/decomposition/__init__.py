"""Decompositions used by Phase S2: heavy paths and exponential segments."""

from repro.decomposition.heavy_path import (
    HeavyPath,
    TreeDecomposition,
    heavy_path_decomposition,
)
from repro.decomposition.segments import (
    PathSegment,
    decompose_path_edges,
)

__all__ = [
    "HeavyPath",
    "TreeDecomposition",
    "heavy_path_decomposition",
    "PathSegment",
    "decompose_path_edges",
]
