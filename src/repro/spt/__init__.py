"""Shortest-path substrate: weights, BFS, Dijkstra, the tree ``T0``,
and replacement distances under single edge failures."""

from repro.spt.bfs import UNREACHABLE, bfs_distances, bfs_tree
from repro.spt.replacement import ReplacementEngine
from repro.spt.result import ShortestPathResult
from repro.spt.spt_tree import ShortestPathTree, build_spt
from repro.spt.weights import AUTO, EXACT, RANDOM, WeightAssignment, make_weights

__all__ = [
    "UNREACHABLE",
    "bfs_distances",
    "bfs_tree",
    "ShortestPathResult",
    "ReplacementEngine",
    "ShortestPathTree",
    "build_spt",
    "WeightAssignment",
    "make_weights",
    "AUTO",
    "EXACT",
    "RANDOM",
]
