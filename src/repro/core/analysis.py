"""Executable analysis of Phase S2 (Lemmas 4.13-4.21 made measurable).

The paper bounds ``|E_miss(P)|`` - the tree edges a (~)-set ``P`` leaves
unprotected - through a chain of geometric facts about the *segments*

``sigma(P, psi, v) = pi(d(P_{v,e*}), LCA(v, t_psi))``

(``e*`` the topmost missing edge of ``v`` on ``psi``), namely:

* Lemma 4.14  - every missing-pair detour is long: ``|D| >= |sigma| / 4``;
* Claim 4.18  - a greedy independent subset of the sigmas carries at
  least a fifth of ``|E_miss(P, psi)|``;
* Lemma 4.21  - the detours protecting a path's misses occupy
  ``Omega(n^eps * |E_miss(P, psi)|)`` vertices.

This module recomputes all of these quantities from a finished traced
construction run, so benchmarks (experiment E9) and tests can check that
the *mechanism* of the proof - not just its conclusion - holds on real
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro._types import EdgeId, Vertex
from repro.core.construct import ConstructTrace
from repro.core.pairs import PairRecord
from repro.core.structure import FTBFSStructure
from repro.decomposition.heavy_path import TreeDecomposition

__all__ = [
    "SigmaSegment",
    "PathMissAnalysis",
    "SimSetAnalysis",
    "analyze_phase_s2",
    "greedy_independent_segments",
]


@dataclass(frozen=True)
class SigmaSegment:
    """The paper's ``sigma(P, psi, v)``: a depth interval on ``psi``."""

    v: Vertex
    top_depth: int  # depth of d(P_{v, e*})
    bottom_depth: int  # depth of LCA(v, t_psi)

    @property
    def length(self) -> int:
        """``|sigma|`` in edges (non-negative by construction)."""
        return max(0, self.bottom_depth - self.top_depth)


@dataclass
class PathMissAnalysis:
    """Per (sim-set, decomposition-path) miss accounting."""

    psi_index: int
    #: tree edges on psi left unprotected by this sim set (E_miss(P, psi)).
    miss_edges: Set[EdgeId] = field(default_factory=set)
    #: sigma segments, one per vertex with misses on psi.
    segments: List[SigmaSegment] = field(default_factory=list)
    #: greedy independent subset (Definition 4.16).
    independent: List[SigmaSegment] = field(default_factory=list)
    #: min over missing pairs of |D(P)| / max(|sigma|, 1)  (Lemma 4.14).
    min_detour_sigma_ratio: Optional[float] = None
    #: total vertices of detours protecting this path's misses.
    detour_volume: int = 0

    @property
    def independent_coverage(self) -> float:
        """``sum |sigma_IS| / |E_miss|`` - Claim 4.18 says >= 1/5."""
        if not self.miss_edges:
            return 1.0
        return sum(s.length for s in self.independent) / len(self.miss_edges)


@dataclass
class SimSetAnalysis:
    """Aggregated miss accounting for one (~)-set."""

    sim_set_index: int
    total_miss: int = 0
    per_path: List[PathMissAnalysis] = field(default_factory=list)


def greedy_independent_segments(
    segments: Sequence[SigmaSegment],
) -> List[SigmaSegment]:
    """The paper's greedy maximal independent set of segments.

    Repeatedly keep the longest remaining segment and drop the ones
    *dependent* on it: ``sigma_i`` and ``sigma_j`` (``i`` above ``j``) are
    independent iff the gap ``top_j - bottom_i >= max(|sigma_i|,
    |sigma_j|)`` (Definition 4.16).
    """
    remaining = sorted(segments, key=lambda s: (-s.length, s.top_depth))
    chosen: List[SigmaSegment] = []

    def independent(a: SigmaSegment, b: SigmaSegment) -> bool:
        first, second = (a, b) if a.top_depth <= b.top_depth else (b, a)
        gap = second.top_depth - first.bottom_depth
        return gap >= max(a.length, b.length)

    for seg in remaining:
        if all(independent(seg, c) for c in chosen):
            chosen.append(seg)
    return chosen


def analyze_phase_s2(
    structure: FTBFSStructure, trace: ConstructTrace
) -> List[SimSetAnalysis]:
    """Measure the Lemma 4.13-4.21 quantities on a finished run.

    Requires a trace from the main regime (``build_epsilon_ftbfs_traced``
    with ``0 < eps < 1/2``); degenerate regimes return an empty list.
    """
    if trace.pcons is None or trace.s2 is None or trace.sim_sets is None:
        return []
    tree = trace.pcons.tree
    td: TreeDecomposition = trace.s2.decomposition
    h_edges = structure.edges

    analyses: List[SimSetAnalysis] = []
    for set_index, sim_set in enumerate(trace.sim_sets):
        analysis = SimSetAnalysis(sim_set_index=set_index)
        missing = [rec for rec in sim_set if rec.last_eid not in h_edges]
        analysis.total_miss = len({rec.eid for rec in missing})
        # Group misses by the decomposition path owning the failed edge.
        by_path: Dict[int, List[PairRecord]] = {}
        for rec in missing:
            child = rec.child
            path_idx = td.path_of_vertex[child]
            if path_idx < 0 or rec.eid in td.glue_edges:
                continue  # glue edges were handled in S2.1
            by_path.setdefault(path_idx, []).append(rec)

        for path_idx, recs in sorted(by_path.items()):
            psi = td.paths[path_idx]
            pma = PathMissAnalysis(psi_index=path_idx)
            pma.miss_edges = {rec.eid for rec in recs}
            # Per terminal: sigma from the topmost missing pair.
            by_v: Dict[Vertex, List[PairRecord]] = {}
            for rec in recs:
                by_v.setdefault(rec.v, []).append(rec)
            ratios: List[float] = []
            volume_vertices: Set[Vertex] = set()
            for v, v_recs in by_v.items():
                v_recs.sort(key=lambda r: r.edge_depth)
                top_rec = v_recs[0]
                lca = tree.lca(v, psi.bottom)
                sigma = SigmaSegment(
                    v=v,
                    top_depth=tree.depth[top_rec.divergence],
                    bottom_depth=tree.depth[lca],
                )
                pma.segments.append(sigma)
                for rec in v_recs:
                    if rec.detour:
                        volume_vertices.update(rec.detour[1:-1])
                        ratios.append(
                            (len(rec.detour) - 1) / max(sigma.length, 1)
                        )
            pma.independent = greedy_independent_segments(pma.segments)
            pma.min_detour_sigma_ratio = min(ratios) if ratios else None
            pma.detour_volume = len(volume_vertices)
            analysis.per_path.append(pma)
        analyses.append(analysis)
    return analyses
