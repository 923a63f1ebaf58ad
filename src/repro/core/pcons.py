"""Algorithm ``Pcons`` (Phase S0): replacement-path selection for all pairs.

For every pair ``<v, e>`` with ``e in pi(s, v)`` the algorithm picks a
replacement path ``P_{v,e} in SP(s, v, G \\ {e})``:

1. *Covered test.*  If some replacement path ends with a ``T0`` edge
   (formally: ``dist(s, v, G'(v) \\ {e}) = dist(s, v, G \\ {e})`` with
   ``G'(v) = (G \\ E(v, G)) + E(v, T0)``), the pair is covered and the
   last edge is that tree edge.  Implementation note: the test reduces
   to checking whether some tree edge ``(w, v) != e`` is *tight*, i.e.
   ``dist(s, w, G\\e) + W(w, v) == dist(s, v, G\\e)`` - shortest-path
   prefixes cannot pass through ``v``, and uniqueness of ``W``-shortest
   paths means at most one tree edge can be tight.  A brute force
   checks the equivalence:
   ``tests/test_pcons.py::TestCoveredPairs::test_covered_definition_via_bruteforce``.
2. *Uncovered pairs.*  Otherwise ``P_{v,e}`` must be *new-ending*; per the
   paper it is chosen with its (unique, Claim 4.4) divergence point as
   close to ``s`` as possible: ``j* = min{j <= i : dist(s,v,G_j(v)) =
   dist(s,v,G\\e)}`` (hop distances), and
   ``P_{v,e} = pi(s, u_{j*}) o D`` where ``D`` is the ``W``-shortest
   ``u_{j*} -> v`` path internally avoiding ``pi(s, v)``.

   Implementation: one "detour Dijkstra" from ``v`` in
   ``G \\ (V(pi(s,v)) \\ {v})`` yields, for every ``u_j`` on the path, the
   best detour value ``delta(j)`` (minimum over edges ``(u_j, w)`` leaving
   the path) - the search's *escape table*; then ``L(j) = dist_W(s, u_j)
   + delta(j)``, whose hop part is ``j + hops(delta(j))``, and a single
   scan computes ``j*`` for every failing edge of ``v`` at once.

   The search reads only the off-path neighbours ``w`` of
   ``u_0 .. u_{k-1}`` (for ``delta(j)``) and the chosen detour, which
   walks from such a ``w*`` back to ``v`` through vertices no farther
   from ``v`` than ``w*``.  So those neighbours are the search's
   targets: it stops at their hop radius ``R`` (see the engine
   contract), and nothing it reads lies beyond ``R``.  A tie beyond
   ``R`` does not raise, and so does not force a reseed.

Batched execution: Pcons touches *every* tree edge, and the
replacement engine fills all of them at construction through the engine
layer's ``weighted_failure_sweep`` (one amortized pass over all
failures) before the pair loop runs; the per-vertex detour Dijkstras are
collected into ``pending_by_vertex`` and dispatched as one
``batched_shortest_paths`` call over their T0 paths, which derives each
search's bans and targets from its path and hands back its escape table
(on the csr engine's C tier, one C pass per stacked chunk computes the
tables, and no search builds an ``n``-entry list).  ``_fill_detours``
only picks ``j*`` and walks the chosen detour's parent entries.

Replacement *distances* ``dist(s, v, G \\ {e})`` come from the
subtree-restricted engine in :mod:`repro.spt.replacement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro._types import EdgeId, Vertex
from repro.engine.base import DetourEscapes
from repro.engine.registry import get_engine
from repro.errors import ReproError, TieBreakError
from repro.graphs.graph import Graph
from repro.core.pairs import PairRecord, PairSet
from repro.spt.replacement import ReplacementEngine
from repro.spt.spt_tree import ShortestPathTree, build_spt
from repro.spt.weights import RANDOM, WeightAssignment, make_weights

__all__ = ["PconsResult", "PconsStats", "run_pcons", "run_reseeding"]

#: Reseeds of a tying random assignment before ``run_reseeding`` gives up.
_MAX_RESEEDS = 5

_T = TypeVar("_T")


@dataclass
class PconsStats:
    """Counters describing a Pcons run."""

    num_pairs: int = 0
    num_covered: int = 0
    num_uncovered: int = 0
    num_disconnected: int = 0
    num_detour_dijkstras: int = 0
    total_detour_length: int = 0


@dataclass
class PconsResult:
    """Everything Phase S0 produces: ``T0``, the engine, and all pairs."""

    graph: Graph
    source: Vertex
    weights: WeightAssignment
    tree: ShortestPathTree
    engine: ReplacementEngine
    pairs: PairSet
    stats: PconsStats


def run_pcons(
    graph: Graph,
    source: Vertex,
    *,
    weights: Optional[WeightAssignment] = None,
    weight_scheme: str = "auto",
    seed: int = 0,
) -> PconsResult:
    """Run Phase S0 on ``graph`` from ``source``, reseeding past ties
    (:func:`run_reseeding`)."""
    return run_reseeding(
        graph,
        lambda attempt_weights: _run_once(graph, source, attempt_weights),
        weights=weights,
        weight_scheme=weight_scheme,
        seed=seed,
    )


def run_reseeding(
    graph: Graph,
    run: Callable[[WeightAssignment], _T],
    *,
    weights: Optional[WeightAssignment] = None,
    weight_scheme: str = "auto",
    seed: int = 0,
) -> _T:
    """``run(w)`` under ``weights`` (default: ``make_weights(graph,
    weight_scheme, seed)``), retried on a fresh reseed of ``w`` each time
    it raises :class:`~repro.errors.TieBreakError` under the random
    scheme (up to ``_MAX_RESEEDS`` times); the exact scheme never ties.
    """
    attempt_weights = weights or make_weights(graph, weight_scheme, seed)
    last_error: Optional[TieBreakError] = None
    for attempt in range(_MAX_RESEEDS + 1):
        try:
            return run(attempt_weights)
        except TieBreakError as err:
            last_error = err
            if attempt_weights.scheme != RANDOM:
                raise  # exact weights can never tie; this is a real bug
            attempt_weights = attempt_weights.reseeded(
                attempt_weights.seed + 0x9E37 + attempt
            )
    raise TieBreakError(
        f"persistent shortest-path ties after {_MAX_RESEEDS} reseeds: {last_error}"
    )


def _run_once(
    graph: Graph, source: Vertex, weights: WeightAssignment
) -> PconsResult:
    tree = build_spt(graph, weights, source)
    engine = ReplacementEngine(tree)
    stats = PconsStats()
    w_arr = weights.weights

    records: List[PairRecord] = []
    # Vertices needing a detour Dijkstra, with their pending uncovered pairs.
    pending_by_vertex: Dict[Vertex, List[PairRecord]] = {}

    for v in tree.preorder:
        if v == source:
            continue
        path_vertices = tree.path_vertices(v)  # [s=u_0, ..., u_k=v]
        depth_v = tree.depth[v]
        # Tree edges incident to v (used by the covered test): parent + children.
        tree_nbrs: List[Tuple[Vertex, EdgeId]] = [(tree.parent[v], tree.parent_eid[v])]
        tree_nbrs.extend((c, tree.parent_eid[c]) for c in tree.children[v])

        for idx in range(1, len(path_vertices)):
            child = path_vertices[idx]
            eid = tree.parent_eid[child]
            rec = PairRecord(
                pair_id=len(records),
                v=v,
                eid=eid,
                child=child,
                edge_depth=idx,
                dist_to_v=depth_v - idx,
            )
            records.append(rec)
            stats.num_pairs += 1

            new_dist = engine.dist_after_failure(eid, v)
            if new_dist is None:
                rec.disconnected = True
                stats.num_disconnected += 1
                continue
            rec.new_dist = new_dist

            # Covered test (paper: hop distances): some replacement path
            # ending with a tree edge (w, v) != e attains the hop-optimal
            # replacement distance.  Candidate weight d_w + W(w, v) is a
            # valid walk avoiding e, so it is >= new_dist; hop equality is
            # exactly the paper's dist(s,v,G'(v)\e) == dist(s,v,G\e) test.
            # Among hop-tight candidates, the W-minimum reproduces
            # SP(s, v, G'(v)\e, W)'s last edge.
            best_cand: Optional[int] = None
            best_eid: Optional[EdgeId] = None
            for w, weid in tree_nbrs:
                if weid == eid:
                    continue
                dw = engine.dist_after_failure(eid, w)
                if dw is None:
                    continue
                cand = dw + w_arr[weid]
                if best_cand is None or cand < best_cand:
                    best_cand = cand
                    best_eid = weid
            shift = weights.shift
            if best_cand is not None and (best_cand >> shift) == (new_dist >> shift):
                rec.covered = True
                rec.last_eid = best_eid
                stats.num_covered += 1
            else:
                stats.num_uncovered += 1
                pending_by_vertex.setdefault(v, []).append(rec)

    # All detour Dijkstras in one batched call: the search from v bans
    # pi(s, v) but v, stops at the radius of the vertices the escape
    # table reads, and comes back as that table; results stream back in
    # source order, and paths stream in with the engine's consumption
    # (it reads at most one chunk ahead).
    if pending_by_vertex:
        detour_sources = list(pending_by_vertex)
        searches = get_engine().batched_shortest_paths(
            graph, weights, (tree.path_vertices(v) for v in detour_sources)
        )
        for v, escapes in zip(detour_sources, searches):
            stats.num_detour_dijkstras += 1
            _fill_detours(
                tree, weights, v, tree.path_vertices(v),
                pending_by_vertex[v], stats, escapes,
            )

    pair_set = PairSet(records)
    return PconsResult(
        graph=graph,
        source=source,
        weights=weights,
        tree=tree,
        engine=engine,
        pairs=pair_set,
        stats=stats,
    )


def _fill_detours(
    tree: ShortestPathTree,
    weights: WeightAssignment,
    v: Vertex,
    path_vertices: List[Vertex],
    pending: Sequence[PairRecord],
    stats: PconsStats,
    escapes: DetourEscapes,
) -> None:
    """Compute divergence points and detours for ``v``'s uncovered pairs.

    ``path_vertices`` is ``pi(s, v)`` as ``[u_0, ..., u_k = v]``;
    ``escapes`` is ``v``'s detour search out of the caller's batched
    dispatch: per ``j < k`` the best escape ``(hops, w, e)`` from
    ``u_j`` (``delta(j)``), and the parents that walk a detour back.
    """
    table = escapes.escapes
    k = len(path_vertices) - 1
    shift = weights.shift
    pending_by_index = {rec.edge_depth - 1: rec for rec in pending}

    # L(j) = j + hops(delta(j)): the hop length of the best
    # single-divergence path via u_j.  pi(s, u_j) and the detour share
    # no edge, so the composite sum dist_W(s, u_j) + delta(j) carries
    # nothing into the hop bits and its hop part is exactly this.
    best_hops: Optional[int] = None
    best_j = -1
    for i in range(k):
        entry = table[i]
        if entry is not None and (best_hops is None or i + entry[0] < best_hops):
            best_hops = i + entry[0]
            best_j = i
        rec = pending_by_index.get(i)
        if rec is None:
            continue
        assert rec.new_dist is not None
        target_hops = rec.new_dist >> shift
        if best_hops is None or best_hops != target_hops:
            raise ReproError(
                "internal inconsistency: uncovered pair has no single-divergence "
                f"optimum (v={v}, edge={rec.eid}, target={target_hops}, "
                f"best={best_hops})"
            )
        j_star = best_j
        entry = table[j_star] if 0 <= j_star < k else None
        if entry is None:
            # best_j only ever points at a computed escape; anything
            # else is internal corruption - fail loudly with the pair's
            # coordinates instead of a bare TypeError.
            raise ReproError(
                "internal inconsistency: divergence index without a detour "
                f"entry (v={v}, eid={rec.eid}, j_star={j_star})"
            )
        rec.div_index = j_star
        rec.divergence = path_vertices[j_star]
        detour = _extract_detour(escapes, path_vertices[j_star], entry, v)
        rec.detour = detour
        stats.total_detour_length += len(detour) - 1
        # Last edge of P_{v,e} = the detour edge entering v.
        if len(detour) == 2:
            rec.last_eid = entry[2]  # direct edge (u_j, v)
        else:
            last_eid = int(escapes.parent_eid[detour[-2]])
            if last_eid < 0:
                raise ReproError(
                    "internal inconsistency: detour tail has no parent edge "
                    f"(v={v}, eid={rec.eid}, j_star={j_star}, "
                    f"tail={detour[-2]})"
                )
            rec.last_eid = last_eid


def _extract_detour(
    escapes: DetourEscapes,
    u_j: Vertex,
    delta_entry: Tuple[int, Vertex, EdgeId],
    v: Vertex,
) -> Tuple[Vertex, ...]:
    """Materialize the detour ``u_j -> ... -> v`` as a vertex tuple.

    The Dijkstra ran *from* ``v``, so the chain ``w*, parent(w*), ...``
    walks back toward ``v``.
    """
    _, w_star, _ = delta_entry
    if w_star == v:
        return (u_j, v)
    parent = escapes.parent
    chain = [w_star]
    cur = w_star
    while cur != v:
        nxt = int(parent[cur])
        if nxt < 0:
            raise ReproError(
                "internal inconsistency: broken detour parent chain "
                f"(vertex {cur} has no parent on the way back to {v})"
            )
        cur = nxt
        chain.append(cur)
    return (u_j, *chain)
