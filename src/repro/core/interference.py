"""Interference between replacement-path detours (Section 3.1, Fig. 1-2).

Two uncovered pairs ``<v, e>`` and ``<t, e'>`` (``v != t``) *interfere*
when their detours share a vertex internal to both (Eq. 1; the excluded
set ``{d(P), d(P'), v, t}`` is exactly the union of the detour endpoint
sets, so the test reduces to internal-vertex intersection).

Interference splits by the relation between the protected edges:

* ``(~)-interference``  - ``e ~ e'`` (edges on a common root path);
* ``(!~)-interference`` - ``e !~ e'``.

The index answers, for a pair ``p`` and a *live subset* of pairs, the
queries Phase S1 needs (with early exit, so the common case is cheap):

* does ``p`` have any (!~)-interference partner (membership in ``I_1``)?
* type A: does ``p`` pi-intersect some live (!~)-partner?
* type B: does ``p`` have a live (!~)-partner outside the A set?

``pi-intersection`` (Fig. 2): ``P_{v,e}`` pi-intersects ``P_{t,e'}`` when
the detour of ``P_{v,e}`` contains a vertex of
``pi(LCA(v,t), t) \\ {LCA(v,t)}``; with Euler intervals this is an O(1)
check per detour vertex (``z`` is an inclusive ancestor of ``t`` strictly
deeper than the LCA).  This module keeps that literal LCA form as the
spec.

The interval form needs no LCA at all.  Pcons's detour Dijkstra bans
``pi(s, v) \\ {v}``, so no internal detour vertex ``z`` lies on
``pi(s, v)``; if ``z`` lies on ``pi(s, t)`` it is therefore strictly below
``LCA(v, t)``.  The endpoints ``d(P)`` and ``v`` lie on ``pi(s, v)``, so
when they lie on ``pi(s, t)`` they are common ancestors and never count.
Hence ``P_{v,e}`` pi-intersects ``P_{t,e'}`` exactly when some internal
detour vertex ``z`` has ``tin[z] <= tin[t] < tout[z]`` - the test the
csr engine's C kernel runs (``TraversalEngine.exists_live_partners``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro._types import Vertex
from repro.core.pairs import PairRecord
from repro.spt.spt_tree import ShortestPathTree

__all__ = ["InterferenceIndex", "InterferenceCensus", "census"]


class InterferenceIndex:
    """Inverted index from internal detour vertices to uncovered pairs."""

    def __init__(
        self, tree: ShortestPathTree, uncovered: Sequence[PairRecord]
    ) -> None:
        self.tree = tree
        self.pairs: List[PairRecord] = list(uncovered)
        #: internal detour vertex -> list of pair ids passing through it
        self.by_vertex: Dict[Vertex, List[int]] = {}
        #: pair_id -> internal vertex tuple (parallel to ``pairs`` order)
        self.internal: Dict[int, Tuple[Vertex, ...]] = {}
        self._pi_cache: Dict[Tuple[int, Vertex], bool] = {}
        #: Engine-built arrays of this index (the csr engine's C kernel
        #: inputs), filled on first use; see :mod:`repro.engine.compiled`.
        self._kernel_cache = None
        self.by_id: Dict[int, PairRecord] = {p.pair_id: p for p in self.pairs}
        for rec in self.pairs:
            internal = rec.detour_internal()
            self.internal[rec.pair_id] = internal
            for z in internal:
                self.by_vertex.setdefault(z, []).append(rec.pair_id)

    # ------------------------------------------------------------------
    # primitive relations
    # ------------------------------------------------------------------
    def similar(self, rec1: PairRecord, rec2: PairRecord) -> bool:
        """The paper's ``e ~ e'`` on the failing edges of two pairs."""
        tree = self.tree
        b, d = rec1.child, rec2.child
        return tree.is_ancestor(b, d) or tree.is_ancestor(d, b)

    def interferes(self, rec1: PairRecord, rec2: PairRecord) -> bool:
        """Eq. 1: distinct terminals and internally intersecting detours."""
        if rec1.v == rec2.v:
            return False
        i1 = self.internal.get(rec1.pair_id, ())
        i2 = self.internal.get(rec2.pair_id, ())
        if not i1 or not i2:
            return False
        if len(i1) > len(i2):
            i1, i2 = i2, i1
        s2 = set(i2)
        return any(z in s2 for z in i1)

    def pi_intersects(self, rec: PairRecord, t: Vertex) -> bool:
        """Does ``rec``'s detour hit ``pi(LCA(v,t), t) \\ {LCA}``? (cached)"""
        key = (rec.pair_id, t)
        cached = self._pi_cache.get(key)
        if cached is not None:
            return cached
        tree = self.tree
        w = tree.lca(rec.v, t)
        depth_w = tree.depth[w]
        result = False
        detour = rec.detour or ()
        for z in detour:
            if tree.depth[z] > depth_w and tree.is_ancestor(z, t):
                result = True
                break
        self._pi_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # existence queries over live subsets (early exit)
    # ------------------------------------------------------------------
    def nonsim_partners(self, rec: PairRecord) -> Iterable[PairRecord]:
        """Yield each (!~)-interference partner of ``rec`` once (``I_!~``)."""
        seen: Set[int] = set()
        by_id = self.by_id
        for z in self.internal.get(rec.pair_id, ()):
            for qid in self.by_vertex.get(z, ()):
                if qid == rec.pair_id or qid in seen:
                    continue
                seen.add(qid)
                q = by_id[qid]
                if q.v != rec.v and not self.similar(rec, q):
                    yield q

    def has_nonsim_interference(self, rec: PairRecord) -> bool:
        """Whether ``I_!~(<v,e>)`` is nonempty (membership in ``I_1``)."""
        for _ in self.nonsim_partners(rec):
            return True
        return False

    def exists_live_partner(
        self,
        rec: PairRecord,
        live: Set[int],
        *,
        require_pi_intersect: bool,
    ) -> bool:
        """Early-exit existence query over a live pair-id subset.

        ``require_pi_intersect=True`` implements the type-A test; with
        ``False`` over the live pairs outside A it implements the type-B
        test, and over every pair the ``I_1`` membership test.
        """
        by_id = self.by_id
        checked: Set[int] = set()
        for z in self.internal.get(rec.pair_id, ()):
            for qid in self.by_vertex.get(z, ()):
                if qid == rec.pair_id or qid not in live or qid in checked:
                    continue
                checked.add(qid)
                q = by_id[qid]
                if q.v == rec.v or self.similar(rec, q):
                    continue
                if require_pi_intersect and not self.pi_intersects(rec, q.v):
                    continue
                return True
        return False


@dataclass
class InterferenceCensus:
    """Aggregate interference statistics (regenerates Fig. 1/2 as numbers)."""

    num_uncovered: int
    num_interfering_pairs: int
    num_sim_pairs: int
    num_nonsim_pairs: int
    num_pi_intersections: int
    num_i1: int
    num_i2: int


def census(index: InterferenceIndex) -> InterferenceCensus:
    """Count interference relations exhaustively (benchmark/report use).

    Quadratic in the worst case over co-located detours; intended for the
    interference census experiment (E7), not the construction itself.
    """
    pairs = index.pairs
    by_id = {p.pair_id: p for p in pairs}
    seen: Set[Tuple[int, int]] = set()
    sim_count = 0
    nonsim_count = 0
    pi_count = 0
    for rec in pairs:
        for z in rec.detour_internal():
            for qid in index.by_vertex.get(z, ()):
                q = by_id[qid]
                if q.pair_id == rec.pair_id or q.v == rec.v:
                    continue
                key = (min(rec.pair_id, qid), max(rec.pair_id, qid))
                if key in seen:
                    continue
                seen.add(key)
                if index.similar(rec, q):
                    sim_count += 1
                else:
                    nonsim_count += 1
                    if index.pi_intersects(rec, q.v):
                        pi_count += 1
                    if index.pi_intersects(q, rec.v):
                        pi_count += 1
    i1 = sum(1 for rec in pairs if index.has_nonsim_interference(rec))
    return InterferenceCensus(
        num_uncovered=len(pairs),
        num_interfering_pairs=sim_count + nonsim_count,
        num_sim_pairs=sim_count,
        num_nonsim_pairs=nonsim_count,
        num_pi_intersections=pi_count,
        num_i1=i1,
        num_i2=len(pairs) - i1,
    )
