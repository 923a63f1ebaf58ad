"""Phase S1: handling the (!~)-set ``I_1`` (Section 3.2 of the paper).

The uncovered pairs split into ``I_1`` (pairs with at least one
(!~)-interference partner) and the (~)-set ``I_2 = UP \\ I_1``.  Phase S1
processes ``I_1`` in ``K = ceil(1/eps) + 2`` iterations.  Iteration ``i``:

1. classify the pending set ``P_i`` into types A / B / C
   (Eqs. 2-3; C-pairs are deferred to Phase S2 as the (~)-set ``PC_i``);
2. for each terminal ``v`` and each class J in {A, B}: order ``v``'s
   J-pairs by *increasing distance of the failing edge from v* (deepest
   edges first) and add to ``H`` the first ``ceil(n^eps)`` distinct last
   edges along that ordering;
3. ``P_{i+1} = {p in A u B : LastE(P_p) not in H}``.

Lemma 4.10 proves the pending set empties within K iterations; the
implementation keeps iterating (with a defensive cap) and records the
count so the benchmark can check the lemma's prediction.  If the cap is
ever hit, all remaining last edges are added directly - the output is
then still a valid structure, only its size bound is affected (and the
event is visible in the stats).

Every interference test is a batched call to the current engine's
``exists_live_partners``: one for the ``I_1``/``I_2`` split (every pair
allowed), then two per iteration in :func:`classify_pairs` (the A pass
over the live set, the B pass over live minus A).  The python engine
loops over :meth:`InterferenceIndex.exists_live_partner` (the spec);
the csr engine answers each call with one C scan (see
:mod:`repro.engine.compiled`).  Either way the outputs - ``I_2``, the
C-sets in order, the added edges and the iteration log - are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.core.interference import InterferenceIndex
from repro.core.pairs import PairRecord
from repro.engine.registry import get_engine

__all__ = ["S1Result", "run_phase_s1", "classify_pairs"]


@dataclass
class S1Result:
    """Output of Phase S1."""

    #: The (~)-set ``I_2`` (pairs with no (!~)-interference at all).
    i2: List[PairRecord]
    #: The deferred (~)-sets ``PC_1, ..., PC_K`` (one per iteration).
    c_sets: List[List[PairRecord]]
    #: Last edges added to ``H`` during S1.
    added_edges: Set[EdgeId]
    #: Number of iterations executed until the pending set emptied.
    iterations: int
    #: The paper's bound ``K = ceil(1/eps) + 2``.
    k_bound: int
    #: True if the defensive iteration cap fired (never under the theory).
    cap_hit: bool
    #: Number of pairs force-covered after a cap hit.
    forced_pairs: int
    #: Per-iteration (|A|, |B|, |C|, edges added) counters.
    iteration_log: List[Tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def within_bound(self) -> bool:
        """Whether Lemma 4.10's iteration bound held on this instance."""
        return self.iterations <= self.k_bound and not self.cap_hit


def classify_pairs(
    index: InterferenceIndex,
    live_ids: Set[int],
) -> Tuple[List[PairRecord], List[PairRecord], List[PairRecord]]:
    """Split a live pair set into types A, B, C (Eqs. 2-3).

    * A: pi-intersects a live (!~)-partner.
    * B: not A, and has a live (!~)-partner outside A.
    * C: the rest (their live (!~)-partners, if any, are all of type A).
    """
    engine = get_engine()
    ids = list(live_ids)
    by_id = index.by_id
    a_flags = engine.exists_live_partners(
        index, ids, live_ids, require_pi_intersect=True
    )
    a_list: List[PairRecord] = []
    rest: List[int] = []
    for pid, is_a in zip(ids, a_flags):
        if is_a:
            a_list.append(by_id[pid])
        else:
            rest.append(pid)
    b_flags = engine.exists_live_partners(
        index, rest, set(rest), require_pi_intersect=False
    )
    b_list: List[PairRecord] = []
    c_list: List[PairRecord] = []
    for pid, is_b in zip(rest, b_flags):
        (b_list if is_b else c_list).append(by_id[pid])
    return a_list, b_list, c_list


def run_phase_s1(
    index: InterferenceIndex,
    uncovered: Sequence[PairRecord],
    *,
    n_eps: int,
    k_bound: int,
    structure_edges: Set[EdgeId],
    iteration_cap: int | None = None,
) -> S1Result:
    """Execute Phase S1, mutating ``structure_edges`` (the growing ``H``).

    ``n_eps`` is ``ceil(n**eps)``; ``k_bound`` is ``K = ceil(1/eps) + 2``.
    """
    i1: List[PairRecord] = []
    i2: List[PairRecord] = []
    in_i1 = get_engine().exists_live_partners(
        index,
        [rec.pair_id for rec in uncovered],
        set(index.by_id),
        require_pi_intersect=False,
    )
    for rec, nonsim in zip(uncovered, in_i1):
        (i1 if nonsim else i2).append(rec)

    cap = iteration_cap if iteration_cap is not None else max(4 * k_bound + 16, 32)
    added: Set[EdgeId] = set()
    c_sets: List[List[PairRecord]] = []
    live: Set[int] = {rec.pair_id for rec in i1}
    by_id = index.by_id
    iterations = 0
    cap_hit = False
    forced = 0
    log: List[Tuple[int, int, int, int]] = []

    while live:
        if iterations >= cap:
            cap_hit = True
            break
        iterations += 1
        a_list, b_list, c_list = classify_pairs(index, live)
        c_sets.append(c_list)
        edges_this_round = 0
        for class_pairs in (a_list, b_list):
            by_vertex: Dict[Vertex, List[PairRecord]] = {}
            for rec in class_pairs:
                by_vertex.setdefault(rec.v, []).append(rec)
            for v, recs in by_vertex.items():
                # Deepest failing edges first = increasing dist(e, v).
                recs.sort(key=lambda r: (r.dist_to_v, r.edge_depth))
                distinct: Set[EdgeId] = set()
                for rec in recs:
                    if len(distinct) >= n_eps:
                        break
                    le = rec.last_eid
                    assert le is not None
                    if le not in distinct:
                        distinct.add(le)
                        if le not in structure_edges:
                            structure_edges.add(le)
                            added.add(le)
                            edges_this_round += 1
        # Pending pairs: A u B pairs whose last edge is still missing.
        next_live: Set[int] = set()
        for rec in a_list:
            if rec.last_eid not in structure_edges:
                next_live.add(rec.pair_id)
        for rec in b_list:
            if rec.last_eid not in structure_edges:
                next_live.add(rec.pair_id)
        log.append((len(a_list), len(b_list), len(c_list), edges_this_round))
        live = next_live

    if cap_hit:
        # Defensive fallback: force-cover whatever is left.
        for pid in live:
            rec = by_id[pid]
            le = rec.last_eid
            assert le is not None
            if le not in structure_edges:
                structure_edges.add(le)
                added.add(le)
            forced += 1

    return S1Result(
        i2=i2,
        c_sets=c_sets,
        added_edges=added,
        iterations=iterations,
        k_bound=k_bound,
        cap_hit=cap_hit,
        forced_pairs=forced,
        iteration_log=log,
    )
