"""End-to-end construction of an ``eps`` FT-BFS structure (Theorem 3.1).

``build_epsilon_ftbfs`` chains the phases of Section 3:

* **S0** Algorithm Pcons (:mod:`repro.core.pcons`);
* **S1** the (!~)-set iterations (:mod:`repro.core.phase_s1`);
* **S2** the (~)-set handling over the heavy-path decomposition
  (:mod:`repro.core.phase_s2`);
* finally, the tree edges still *unprotected* under the Pcons accounting
  (some uncovered pair's last edge missing from ``H``) become the
  reinforced set ``E'``.  By Observation 2.2 every other edge is then
  provably protected - which the independent oracle in
  :mod:`repro.core.verify` re-checks in the tests.

Regime dispatch (per the paper): ``eps >= 1/2`` uses the [14]
construction with no reinforcement; ``eps = 0`` reinforces the whole BFS
tree; ``0 < eps < 1/2`` runs the main algorithm.  ``force_main`` runs the
main algorithm for any ``eps in (0, 1]`` (used by ablations).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Set

from repro._types import Vertex
from repro.engine.registry import engine_context, get_engine
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.core.ftbfs13 import build_ftbfs13
from repro.core.interference import InterferenceIndex
from repro.core.pcons import PconsResult, run_pcons, run_reseeding
from repro.core.phase_s1 import run_phase_s1
from repro.core.phase_s2 import run_phase_s2
from repro.core.structure import ConstructStats, FTBFSStructure
from repro.util.validation import check_epsilon

__all__ = ["build_epsilon_ftbfs", "build_epsilon_ftbfs_traced", "ConstructOptions", "ConstructTrace"]


@dataclass(frozen=True)
class ConstructOptions:
    """Tunables for :func:`build_epsilon_ftbfs`."""

    weight_scheme: str = "auto"
    seed: int = 0
    #: Run phases S1/S2 even for eps >= 1/2 (ablation studies).
    force_main: bool = False
    #: Traversal engine for the run (None = the registry default); see
    #: :mod:`repro.engine`.
    engine: Optional[str] = None


@dataclass
class ConstructTrace:
    """Intermediate state of a main-regime construction run.

    Returned by :func:`build_epsilon_ftbfs_traced`; the analysis module
    (:mod:`repro.core.analysis`) uses it to measure the quantities of
    Lemmas 4.13-4.21 on real runs.  ``None`` fields indicate the run
    dispatched to a degenerate regime (eps = 0 or the [14] baseline).
    """

    pcons: Optional["PconsResult"] = None
    s1: Optional[object] = None  # phase_s1.S1Result
    s2: Optional[object] = None  # phase_s2.S2Result
    sim_sets: Optional[list] = None
    n_eps: int = 0
    k_bound: int = 0


def build_epsilon_ftbfs(
    graph: Graph,
    source: Vertex,
    epsilon: float,
    *,
    options: Optional[ConstructOptions] = None,
    pcons: Optional[PconsResult] = None,
) -> FTBFSStructure:
    """Construct a ``(b, r)`` FT-BFS structure with parameter ``epsilon``.

    Guarantees (Theorem 3.1): ``r(n) = O(1/eps * n^(1-eps) * log n)``
    reinforced edges and ``b(n) = O(min{1/eps * n^(1+eps) * log n,
    n^(3/2)})`` backup edges; after any single backup-edge failure the
    surviving structure preserves all distances from ``source``.

    ``pcons`` may be supplied to reuse a Phase S0 run across multiple
    epsilon values (the sweep benchmarks do this).
    """
    structure, _ = build_epsilon_ftbfs_traced(
        graph, source, epsilon, options=options, pcons=pcons
    )
    return structure


def build_epsilon_ftbfs_traced(
    graph: Graph,
    source: Vertex,
    epsilon: float,
    *,
    options: Optional[ConstructOptions] = None,
    pcons: Optional[PconsResult] = None,
) -> tuple:
    """Like :func:`build_epsilon_ftbfs` but also returns the
    :class:`ConstructTrace` with intermediate state (for analysis)."""
    opts = options or ConstructOptions()
    eps = check_epsilon(epsilon)
    if not 0 <= source < graph.num_vertices:
        raise GraphError(f"source {source} out of range")

    with engine_context(opts.engine):
        return _dispatch(graph, source, eps, opts, pcons)


def _dispatch(
    graph: Graph,
    source: Vertex,
    eps: float,
    opts: ConstructOptions,
    pcons: Optional[PconsResult],
) -> tuple:
    # ------------------------------------------------------------------
    # Regime dispatch.
    # ------------------------------------------------------------------
    if eps == 0.0:
        return _build_fully_reinforced(graph, source, opts, pcons), ConstructTrace()
    if eps >= 0.5 and not opts.force_main:
        base = build_ftbfs13(
            graph,
            source,
            weight_scheme=opts.weight_scheme,
            seed=opts.seed,
            pcons=pcons,
        )
        # Same structure, reported at the requested epsilon.
        structure = FTBFSStructure(
            graph=graph,
            source=source,
            epsilon=eps,
            edges=base.edges,
            reinforced=base.reinforced,
            tree_edges=base.tree_edges,
            stats=base.stats,
        )
        return structure, ConstructTrace()
    return _build_main(graph, source, eps, opts, pcons)


# ----------------------------------------------------------------------
def _build_fully_reinforced(
    graph: Graph,
    source: Vertex,
    opts: ConstructOptions,
    pcons: Optional[PconsResult],
) -> FTBFSStructure:
    """``eps = 0``: reinforce the entire BFS tree; no backup needed.

    Only the tree is needed, so without a supplied Pcons run this builds
    just the shortest-path tree (replacement paths would be wasted work),
    reseeding past ties exactly as :func:`run_pcons` does.
    """
    if pcons is not None:
        tree_edges = frozenset(pcons.tree.tree_edges())
        stats = ConstructStats(
            num_pairs=pcons.stats.num_pairs,
            weight_scheme=pcons.weights.scheme,
            engine=get_engine().name,
        )
    else:
        from repro.spt.spt_tree import build_spt

        tree = run_reseeding(
            graph,
            lambda weights: build_spt(graph, weights, source),
            weight_scheme=opts.weight_scheme,
            seed=opts.seed,
        )
        tree_edges = frozenset(tree.tree_edges())
        stats = ConstructStats(
            weight_scheme=tree.weights.scheme, engine=get_engine().name
        )
    return FTBFSStructure(
        graph=graph,
        source=source,
        epsilon=0.0,
        edges=tree_edges,
        reinforced=tree_edges,
        tree_edges=tree_edges,
        stats=stats,
    )


def _build_main(
    graph: Graph,
    source: Vertex,
    eps: float,
    opts: ConstructOptions,
    pcons: Optional[PconsResult],
) -> tuple:
    """The Section 3 algorithm for ``0 < eps < 1/2`` (or forced)."""
    n = graph.num_vertices
    timings = {}

    t0 = time.perf_counter()
    result = pcons or run_pcons(
        graph, source, weight_scheme=opts.weight_scheme, seed=opts.seed
    )
    timings["pcons"] = time.perf_counter() - t0

    tree = result.tree
    uncovered = result.pairs.uncovered()
    n_eps = max(1, math.ceil(n**eps))
    k_bound = math.ceil(1.0 / eps) + 2

    structure_edges: Set[int] = set(tree.tree_edges())
    tree_edges = frozenset(structure_edges)

    t0 = time.perf_counter()
    index = InterferenceIndex(tree, uncovered)
    timings["interference"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    s1 = run_phase_s1(
        index,
        uncovered,
        n_eps=n_eps,
        k_bound=k_bound,
        structure_edges=structure_edges,
    )
    timings["phase_s1"] = time.perf_counter() - t0

    # (~)-sets: PC_0 = I_2 plus the per-iteration C sets.
    sim_sets = [s1.i2, *s1.c_sets]

    t0 = time.perf_counter()
    s2 = run_phase_s2(
        tree,
        uncovered,
        sim_sets,
        n_eps=n_eps,
        structure_edges=structure_edges,
    )
    timings["phase_s2"] = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Reinforcement: tree edges left unprotected by the Pcons accounting.
    # ------------------------------------------------------------------
    reinforced: Set[int] = set()
    for rec in uncovered:
        if rec.last_eid not in structure_edges:
            reinforced.add(rec.eid)

    stats = ConstructStats(
        num_pairs=result.stats.num_pairs,
        num_covered=result.stats.num_covered,
        num_uncovered=result.stats.num_uncovered,
        num_disconnected=result.stats.num_disconnected,
        i1_size=len(uncovered) - len(s1.i2),
        i2_size=len(s1.i2),
        s1_iterations=s1.iterations,
        s1_k_bound=s1.k_bound,
        s1_within_bound=s1.within_bound,
        s1_edges_added=len(s1.added_edges),
        s1_cap_hit=s1.cap_hit,
        s2_edges_added=len(s2.added_edges),
        s2_glue_pairs=s2.glue_pair_count,
        num_sim_sets=len(sim_sets),
        weight_scheme=result.weights.scheme,
        engine=get_engine().name,
        elapsed_seconds=timings,
    )
    structure = FTBFSStructure(
        graph=graph,
        source=source,
        epsilon=eps,
        edges=frozenset(structure_edges),
        reinforced=frozenset(reinforced),
        tree_edges=tree_edges,
        stats=stats,
    )
    trace = ConstructTrace(
        pcons=result,
        s1=s1,
        s2=s2,
        sim_sets=sim_sets,
        n_eps=n_eps,
        k_bound=k_bound,
    )
    return structure, trace
