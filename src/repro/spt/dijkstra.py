"""Dijkstra with composite hop/perturbation weights and failure simulation.

This is the workhorse of the whole library.  Key features:

* **Banned vertices / edges** (``banned_vertices``, ``banned_edges``:
  sets of ids; an id that names nothing bans nothing) simulate failures
  without copying the graph.
* **Restricted runs** (``allowed_vertices``) settle only a vertex subset -
  used by the replacement-path engine to recompute just the subtree under
  a failed tree edge.
* **Seeded frontiers** (``seeds``) start the heap from precomputed
  distances at the subset boundary.
* **Target radius and hop cap** (``targets`` and ``max_hops``,
  unseeded runs only): the run stops before settling any vertex ``R``
  or more hops away, where ``R`` is the smaller of the largest hop
  count among the targets and ``max_hops``.  A label's hop count is
  fixed when the label is first set, so the targets' bound is known
  once the last target has one; every vertex within ``R`` hops keeps
  its exact result and every vertex beyond reads unreachable.  A target
  that never gets a label (unreachable, or banned) leaves only the cap;
  with neither bound the run is full.  Both are checked at the first
  pop of each hop level.
* **Tie detection**: two distinct equal-weight paths to the same vertex
  violate the unique-shortest-path contract of
  :mod:`repro.spt.weights`; under the random scheme this always raises
  :class:`repro.errors.TieBreakError` at the first order-dependent tie,
  so callers can reseed (the exact scheme provably never trips it).

Weights are Python integers (``BIG * hops + perturbation``), so all
comparisons are exact - no floating point anywhere near the tie-breaking.

Only the engine layer (:mod:`repro.engine`) imports this module; every
other call site goes through ``engine.shortest_paths`` /
``engine.seeded_shortest_paths``, which lets array backends substitute
the fast kernels of :mod:`repro.engine.weighted_kernels` for
single-source runs when the weight scheme permits (seeded runs reach
them only through ``weighted_failure_sweep``).  This module is
the only implementation of tie and seed-error semantics (which tie
raises first, which seed is refused, and the messages): an array kernel
that meets a possible tie or an invalid seed hands the whole call back
here.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, List, Optional, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.errors import GraphError, TieBreakError
from repro.graphs.graph import Graph
from repro.spt.result import ShortestPathResult
from repro.spt.weights import WeightAssignment

__all__ = ["ShortestPathResult", "check_max_hops", "dijkstra", "seeded_dijkstra"]


def dijkstra(
    graph: Graph,
    weights: WeightAssignment,
    source: Vertex,
    *,
    banned_vertices: Optional[Set[Vertex]] = None,
    banned_edges: Optional[Set[EdgeId]] = None,
    targets: Optional[Iterable[Vertex]] = None,
    max_hops: Optional[int] = None,
) -> ShortestPathResult:
    """Single-source shortest paths under the composite weights.

    See the module docstring for the semantics of the keyword filters,
    of ``targets`` and of ``max_hops`` (``None``: no bound).
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise GraphError(f"source {source} out of range for n={n}")
    if banned_vertices and source in banned_vertices:
        raise GraphError(f"source {source} is banned")
    if targets is not None:
        targets = list(targets)
        if targets and (min(targets) < 0 or max(targets) >= n):
            raise GraphError(f"a target lies outside [0, {n})")
    check_max_hops(max_hops)
    seeds = [(0, source, -1, -1)]
    return _run(
        graph,
        weights,
        source,
        seeds,
        banned_vertices=banned_vertices,
        banned_edges=banned_edges,
        allowed_vertices=None,
        targets=targets,
        max_hops=max_hops,
    )


def check_max_hops(max_hops: Optional[int]) -> None:
    """Raise GraphError for a negative hop cap (``None`` is no cap)."""
    if max_hops is not None and max_hops < 0:
        raise GraphError(f"max_hops must be >= 0, got {max_hops}")


def seeded_dijkstra(
    graph: Graph,
    weights: WeightAssignment,
    seeds: Iterable[Tuple[int, Vertex, Vertex, EdgeId]],
    *,
    allowed_vertices: Set[Vertex],
) -> ShortestPathResult:
    """Dijkstra seeded at a boundary, settling only ``allowed_vertices``.

    ``seeds`` are ``(dist, vertex, parent, parent_eid)`` entries where
    ``vertex`` lies inside ``allowed_vertices`` and ``dist`` already
    includes the crossing-edge weight.  Used to recompute distances inside
    the subtree hanging under a failed tree edge (see
    :mod:`repro.spt.replacement`); the failed edge leads outside
    ``allowed_vertices``, so the restriction alone keeps the run off it.
    """
    return _run(
        graph,
        weights,
        -1,
        list(seeds),
        banned_vertices=None,
        banned_edges=None,
        allowed_vertices=allowed_vertices,
    )


def _run(
    graph: Graph,
    weights: WeightAssignment,
    source: Vertex,
    seeds: List[Tuple[int, Vertex, Vertex, EdgeId]],
    *,
    banned_vertices: Optional[Set[Vertex]],
    banned_edges: Optional[Set[EdgeId]],
    allowed_vertices: Optional[Set[Vertex]],
    targets: Optional[List[Vertex]] = None,
    max_hops: Optional[int] = None,
) -> ShortestPathResult:
    n = graph.num_vertices
    dist: List[Optional[int]] = [None] * n
    parent = [-1] * n
    parent_eid = [-1] * n
    settled = [False] * n
    w_arr = weights.weights

    heap: List[Tuple[int, Vertex]] = []
    for d0, v0, p0, pe0 in seeds:
        if allowed_vertices is not None and v0 not in allowed_vertices:
            raise GraphError(f"seed vertex {v0} outside the allowed set")
        current = dist[v0]
        if current is None or d0 < current:
            dist[v0] = d0
            parent[v0] = p0
            parent_eid[v0] = pe0
            heappush(heap, (d0, v0))
        elif d0 == current and pe0 != parent_eid[v0]:
            # Two equally cheap boundary entries: a genuine tie.
            raise TieBreakError(
                f"equal-weight seeds for vertex {v0} (scheme={weights.scheme})"
            )

    # The stop rule: the first pop of each hop level (``d >= limit``)
    # comes after every label of that level is set, so if every target
    # has a label by then, or the level is the cap, the level is the
    # radius R and the run ends.  ``labeled`` counts the targets seen
    # labeled so far, in list order.
    shift = weights.shift
    limit = None if targets is None and max_hops is None else 0
    labeled = 0
    adjacency = graph.adjacency
    while heap:
        d, v = heappop(heap)
        if limit is not None and d >= limit:
            level = d >> shift
            if max_hops is not None and level >= max_hops:
                break
            if targets is not None:
                while labeled < len(targets) and dist[targets[labeled]] is not None:
                    labeled += 1
                if labeled == len(targets):
                    break
            limit = (level + 1) << shift
        if settled[v]:
            continue
        if dist[v] is not None and d > dist[v]:
            continue  # stale entry
        settled[v] = True
        for w, eid in adjacency(v):
            if banned_edges is not None and eid in banned_edges:
                continue
            if banned_vertices is not None and w in banned_vertices:
                continue
            if allowed_vertices is not None and w not in allowed_vertices:
                continue
            if settled[w]:
                continue
            cand = d + w_arr[eid]
            dw = dist[w]
            if dw is None or cand < dw:
                dist[w] = cand
                parent[w] = v
                parent_eid[w] = eid
                heappush(heap, (cand, w))
            elif cand == dw and eid != parent_eid[w]:
                # Distinct path of identical weight: uniqueness violated.
                raise TieBreakError(
                    f"equal-weight paths to vertex {w} (scheme={weights.scheme})"
                )
    return ShortestPathResult(
        source=source, dist=dist, parent=parent, parent_eid=parent_eid
    )
