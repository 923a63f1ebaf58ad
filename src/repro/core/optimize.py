"""Instance-adaptive heuristics: the paper's Discussion (Section 1).

The universal construction can be wasteful on easy instances (the paper
points at Fig. 5 of [15]: graphs where ``b(n) = O(n)`` backup edges
suffice).  The Discussion proposes two optimization problems:

* minimize backup edges subject to a reinforcement budget ``r``;
* minimize reinforcement subject to a backup budget ``b``.

This module provides a greedy heuristic for the first (E12 runs it),
built on the Pcons accounting: a tree edge ``e`` left unreinforced
forces the distinct last edges of its uncovered pairs into ``H`` (its
"cost", ``Cost(e)`` in the paper's notation); reinforcing it saves
exactly the last edges no other unreinforced tree edge still needs.
That is a weighted max-coverage problem, attacked with the classic
marginal-gain greedy.

The resulting structures are *valid by construction*: every unreinforced
tree edge ends up last-protected, so Observation 2.2 applies.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.errors import ParameterError
from repro.graphs.graph import Graph
from repro.core.pcons import PconsResult, run_pcons
from repro.core.structure import ConstructStats, FTBFSStructure

__all__ = [
    "greedy_reinforcement",
    "edge_costs",
]


def edge_costs(pcons: PconsResult) -> Dict[EdgeId, Set[EdgeId]]:
    """Per tree edge ``e``: the distinct last edges its failure forces.

    This is the paper's ``Cost(e)`` (as a set, so unions are exact when
    several tree edges share last edges).
    """
    needs: Dict[EdgeId, Set[EdgeId]] = {}
    for rec in pcons.pairs.uncovered():
        assert rec.last_eid is not None
        needs.setdefault(rec.eid, set()).add(rec.last_eid)
    return needs


def greedy_reinforcement(
    graph: Graph,
    source: Vertex,
    budget: int,
    *,
    pcons: Optional[PconsResult] = None,
    weight_scheme: str = "auto",
    seed: int = 0,
) -> FTBFSStructure:
    """Minimize backup edges under a reinforcement budget (greedy).

    Repeatedly reinforces the tree edge with the largest *marginal*
    saving (lazy-evaluated priority queue); all last edges still needed
    by unreinforced tree edges are then added as backup.
    """
    if budget < 0:
        raise ParameterError(f"reinforcement budget must be >= 0, got {budget}")
    result = pcons or run_pcons(graph, source, weight_scheme=weight_scheme, seed=seed)
    needs = edge_costs(result)

    # Multiplicity of each last edge across unreinforced tree edges.
    multiplicity: Dict[EdgeId, int] = {}
    for last_set in needs.values():
        for le in last_set:
            multiplicity[le] = multiplicity.get(le, 0) + 1

    def marginal(eid: EdgeId) -> int:
        return sum(1 for le in needs[eid] if multiplicity[le] == 1)

    reinforced: Set[EdgeId] = set()
    heap: List[Tuple[int, EdgeId]] = [(-len(s), e) for e, s in needs.items()]
    heapq.heapify(heap)
    while heap and len(reinforced) < budget:
        neg_gain, eid = heapq.heappop(heap)
        if eid in reinforced:
            continue
        current = marginal(eid)
        if current != -neg_gain:
            if current > 0:
                heapq.heappush(heap, (-current, eid))
            elif -neg_gain > 0:
                # gain dropped to zero; re-queue at zero to keep fairness
                heapq.heappush(heap, (0, eid))
            continue
        reinforced.add(eid)
        for le in needs[eid]:
            multiplicity[le] -= 1

    tree_edges = set(result.tree.tree_edges())
    edges: Set[EdgeId] = set(tree_edges)
    for eid, last_set in needs.items():
        if eid in reinforced:
            continue
        edges.update(last_set)

    stats = ConstructStats(
        num_pairs=result.stats.num_pairs,
        num_covered=result.stats.num_covered,
        num_uncovered=result.stats.num_uncovered,
        num_disconnected=result.stats.num_disconnected,
    )
    return FTBFSStructure(
        graph=graph,
        source=source,
        epsilon=float("nan"),
        edges=frozenset(edges),
        reinforced=frozenset(reinforced),
        tree_edges=frozenset(tree_edges),
        stats=stats,
    )

