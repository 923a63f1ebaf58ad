"""Algorithm ``Pcons`` (Phase S0): replacement-path selection for all pairs.

For every pair ``<v, e>`` with ``e in pi(s, v)`` the algorithm picks a
replacement path ``P_{v,e} in SP(s, v, G \\ {e})``:

1. *Covered test.*  If some replacement path ends with a ``T0`` edge
   (formally: ``dist(s, v, G'(v) \\ {e}) = dist(s, v, G \\ {e})`` with
   ``G'(v) = (G \\ E(v, G)) + E(v, T0)``), the pair is covered and the
   last edge is that tree edge.  Implementation note: the test reduces
   to checking whether some tree edge ``(w, v) != e`` is *hop-tight*,
   i.e. ``hops(s, w, G\\e) + 1 == hops(s, v, G\\e)``, and the last
   edge is the hop-tight one of least ``dist(s, w, G\\e) + W(w, v)``.
   ``v`` and its tree neighbours - its parent unless ``v`` is ``e``'s
   child, and its children - all lie in ``e``'s failed subtree, so the
   test reads ``e``'s replacement row alone: its hop plane for every
   pair, its perturbation plane only when two neighbours tie the
   smallest hop.  A brute force checks the equivalence:
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
   targets, and it may stop at their hop radius (see the engine
   contract).  It may also stop at ``c_v = max_i h_i - 1`` hops, where
   ``h_i = hop(v, G \\ e_i)`` runs over ``v``'s uncovered pairs - known
   from the replacement rows before any search runs.  The pair at
   index ``i`` needs the first ``j <= i`` minimising ``L(j)``, and
   ``L(j*) = h_i``, so its winner has ``hop(w*) = h_i - 1 - j* <= c_v``;
   an escape whose best ``w`` lies beyond ``c_v`` has ``L(j) >= j + c_v
   + 2 > max_i h_i`` and never wins.  The search stops at the smaller
   of the two bounds, ``R``, and nothing it reads lies beyond ``R``.
   A tie beyond ``R`` does not raise, and so does not force a reseed.

Batched execution: Pcons touches *every* tree edge, and the
replacement engine fills all of them at construction through the engine
layer's ``weighted_failure_sweep`` (one amortized pass over all
failures) before the pair loop runs; the per-vertex detour Dijkstras are
collected into ``pending_by_vertex`` and dispatched as one
``batched_shortest_paths`` call over their T0 paths and hop caps, which
derives each search's bans and targets from its path and hands back its
escape table
(on the csr engine's C tier, one C call per chunk runs the searches and
computes the tables, and no search builds an ``n``-entry list).
``_fill_detours`` only picks ``j*`` and walks the chosen detour's
parent entries.

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
    shift = weights.shift
    tin, depth = tree.tin, tree.depth
    parent, parent_eid, children = tree.parent, tree.parent_eid, tree.children

    records: List[PairRecord] = []
    # Vertices needing a detour Dijkstra, with their pending uncovered pairs.
    pending_by_vertex: Dict[Vertex, List[PairRecord]] = {}

    # pi(s, v)'s edges, root side first, as (child, eid, e's row base):
    # an ancestor stack, whose first depth[v] - 1 entries are the edges
    # above v's parent edge when the preorder reaches v.
    path_edges: List[Tuple[Vertex, EdgeId, int]] = []
    for v in tree.preorder:
        if v == source:
            continue
        depth_v = depth[v]
        row_v, hops, perts = engine._row(parent_eid[v])
        del path_edges[depth_v - 1:]
        path_edges.append((v, parent_eid[v], row_v))
        tin_v = tin[v]
        # Tree edges incident to v (used by the covered test): parent +
        # children, each as (tin of its other end, edge id).
        tree_nbrs: List[Tuple[int, EdgeId]] = [(tin[parent[v]], parent_eid[v])]
        tree_nbrs.extend((tin[c], parent_eid[c]) for c in children[v])

        for idx, (child, eid, base) in enumerate(path_edges, 1):
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

            # e's row holds v and every tree neighbour the covered test
            # reads (module doc), at base + tin.
            hop_v = hops[base + tin_v]
            if hop_v < 0:
                rec.disconnected = True
                stats.num_disconnected += 1
                continue
            rec.new_dist = (hop_v << shift) + perts[base + tin_v]

            # Covered test (paper: hop distances): some replacement path
            # ending with a tree edge (w, v) != e attains the hop-optimal
            # replacement distance.  Candidate weight d_w + W(w, v) is a
            # valid walk avoiding e whose hop part is hop(w) + 1, so hop
            # equality is exactly the paper's dist(s,v,G'(v)\e) ==
            # dist(s,v,G\e) test.  Among hop-tight candidates the
            # W-minimum, first among equals, reproduces
            # SP(s, v, G'(v)\e, W)'s last edge; W is summed only when
            # a second candidate ties the smallest hop.
            best_hop = -1
            best_pos = best_eid = best_w = None
            for tin_w, weid in tree_nbrs:
                if weid == eid:
                    continue
                pos = base + tin_w
                hw = hops[pos]
                if hw < 0 or (best_eid is not None and hw > best_hop):
                    continue
                if best_eid is None or hw < best_hop:
                    best_hop, best_pos, best_eid, best_w = hw, pos, weid, None
                    continue
                if best_w is None:
                    best_w = perts[best_pos] + w_arr[best_eid]
                cand = perts[pos] + w_arr[weid]
                if cand < best_w:
                    best_pos, best_eid, best_w = pos, weid, cand
            if best_eid is not None and best_hop + 1 == hop_v:
                rec.covered = True
                rec.last_eid = best_eid
                stats.num_covered += 1
            else:
                stats.num_uncovered += 1
                pending_by_vertex.setdefault(v, []).append(rec)

    # All detour Dijkstras in one batched call: the search from v bans
    # pi(s, v) but v, stops at the radius of the vertices the escape
    # table reads or at the hop cap of v's pairs (module doc), whichever
    # comes first, and comes back as that table; results stream back in
    # source order.
    if pending_by_vertex:
        detour_sources = list(pending_by_vertex)
        paths = [tree.path_vertices(v) for v in detour_sources]
        caps = [
            max(rec.new_dist >> shift for rec in pending_by_vertex[v]) - 1
            for v in detour_sources
        ]
        searches = get_engine().batched_shortest_paths(
            graph, weights, zip(paths, caps)
        )
        for v, path, escapes in zip(detour_sources, paths, searches):
            stats.num_detour_dijkstras += 1
            _fill_detours(
                tree, weights, v, path, pending_by_vertex[v], stats, escapes,
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
    best_j = last_j = -1
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
        if j_star != last_j:  # pairs of one j* share its detour
            last_j = j_star
            detour = _extract_detour(escapes, path_vertices[j_star], entry, v)
            # Last edge of P_{v,e} = the detour edge entering v.
            if len(detour) == 2:
                last_eid = entry[2]  # direct edge (u_j, v)
            else:
                last_eid = int(escapes.parent_eid[detour[-2]])
                if last_eid < 0:
                    raise ReproError(
                        "internal inconsistency: detour tail has no parent "
                        f"edge (v={v}, eid={rec.eid}, j_star={j_star}, "
                        f"tail={detour[-2]})"
                    )
        rec.div_index = j_star
        rec.divergence = path_vertices[j_star]
        rec.detour = detour
        stats.total_detour_length += len(detour) - 1
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
