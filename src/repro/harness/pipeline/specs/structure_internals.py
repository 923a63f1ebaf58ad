"""Specs E7/E8/E9/E10: census, decomposition, and phase internals."""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.core import build_epsilon_ftbfs, census
from repro.core.construct import ConstructOptions
from repro.core.interference import InterferenceIndex
from repro.decomposition import decompose_path_edges, heavy_path_decomposition
from repro.harness.pipeline.spec import ScenarioSpec
from repro.harness.pipeline.specs.common import bound_r
from repro.harness.pipeline.stages import workload_pcons

__all__ = ["E7", "E8", "E9", "E10"]


# ----------------------------------------------------------------------
# E7: interference census (Figs 1-2)
# ----------------------------------------------------------------------
def e7_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    workloads = [
        ("gnp", {"n": 120 if quick else 260, "avg_degree": 8.0, "seed": seed}),
        ("lb_deep", {"d": 12 if quick else 20, "k": 2, "x": 4}),
    ]
    if not quick:
        workloads.append(
            ("watts_strogatz", {"n": 260, "k": 6, "beta": 0.2, "seed": seed})
        )
    return [
        {"workload": name, "params": params, "seed": seed}
        for name, params in workloads
    ]


def e7_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Census of interference relations and the A/B/C split on one workload."""
    from repro.core.phase_s1 import classify_pairs

    name = payload["workload"]
    graph, source, pcons = workload_pcons(payload)
    uncovered = pcons.pairs.uncovered()
    index = InterferenceIndex(pcons.tree, uncovered)
    c = census(index)
    live = {p.pair_id for p in uncovered if index.has_nonsim_interference(p)}
    a, b, cc = classify_pairs(index, live)
    return {
        "rows": [
            [
                name, graph.num_vertices, c.num_uncovered,
                c.num_interfering_pairs, c.num_sim_pairs, c.num_nonsim_pairs,
                c.num_pi_intersections, c.num_i1, c.num_i2,
                len(a), len(b), len(cc),
            ]
        ]
    }


E7 = ScenarioSpec(
    experiment_id="E7",
    title="Fig. 1/2 census: interference types and pi-intersections",
    description="Fig. 1/2 census: interference types, pi-intersections, A/B/C",
    columns=(
        "workload", "n", "|UP|", "pairs_interf", "(~)", "(!~)",
        "pi_inter", "|I1|", "|I2|", "typeA", "typeB", "typeC",
    ),
    grid=e7_grid,
    measure=e7_measure,
    notes=(
        "(~)/(!~) counts partition interfering detour pairs (Eq. 1 + e~e' relation)",
    ),
)


# ----------------------------------------------------------------------
# E8: decomposition invariants (Fig. 3, Facts 3.3/4.1)
# ----------------------------------------------------------------------
def e8_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    workloads = [
        ("gnp", {"n": 200 if quick else 500, "avg_degree": 6.0, "seed": seed}),
        ("grid", {"side": 12 if quick else 22}),
        ("lollipop", {"n": 200 if quick else 500}),
        ("lb51", {"n": 300 if quick else 700, "eps": 0.33}),
    ]
    return [
        {"workload": name, "params": params, "seed": seed}
        for name, params in workloads
    ]


def e8_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Heavy-path and segment decomposition invariants on one workload."""
    name = payload["workload"]
    graph, source, pcons = workload_pcons(payload)
    tree = pcons.tree
    td = heavy_path_decomposition(tree)
    max_glue = 0
    max_paths = 0
    max_segments = 0
    for v in tree.preorder:
        if v == source:
            continue
        max_glue = max(max_glue, len(td.glue_edges_on_root_path(v)))
        max_paths = max(max_paths, len(td.paths_intersecting_root_path(v)))
        max_segments = max(max_segments, len(decompose_path_edges(tree.depth[v])))
    n = graph.num_vertices
    return {
        "rows": [
            [
                name, n, len(td.paths), td.num_levels,
                round(math.log2(n), 2), max_glue, max_paths, max_segments,
            ]
        ]
    }


E8 = ScenarioSpec(
    experiment_id="E8",
    title="Fact 3.3 / 4.1: decomposition invariants",
    description="Fig. 3 + Facts 3.3/4.1: decomposition invariants",
    columns=(
        "workload", "n", "paths", "levels", "log2(n)",
        "max_glue_on_rootpath", "max_paths_on_rootpath", "max_segments",
    ),
    grid=e8_grid,
    measure=e8_measure,
    notes=(
        "Fact 4.1: glue edges and path intersections per root path are O(log n)",
        "segments per root path = floor(log2 |pi|) (Eq. 5)",
    ),
)


# ----------------------------------------------------------------------
# E9: Phase S2 internals
# ----------------------------------------------------------------------
def e9_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    eps_values = [0.2, 0.3] if quick else [0.15, 0.25, 0.35]
    params = {"d": 16 if quick else 26, "k": 2, "x": 5}
    return [
        {"workload": "lb_deep", "params": params, "eps": eps, "seed": seed}
        for eps in eps_values
    ]


def e9_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Phase S2 internals (Fig. 7/8/9 quantities) for one eps."""
    from repro.core import analyze_phase_s2, build_epsilon_ftbfs_traced

    graph, source, pcons = workload_pcons(payload)
    n = graph.num_vertices
    eps = payload["eps"]
    structure, trace = build_epsilon_ftbfs_traced(graph, source, eps, pcons=pcons)
    st = structure.stats
    analyses = analyze_phase_s2(structure, trace)
    ratios = [
        p.min_detour_sigma_ratio
        for a in analyses
        for p in a.per_path
        if p.min_detour_sigma_ratio is not None
    ]
    covers = [
        p.independent_coverage
        for a in analyses
        for p in a.per_path
        if p.miss_edges
    ]
    volumes = [
        p.detour_volume / (max(1, trace.n_eps) * len(p.miss_edges))
        for a in analyses
        for p in a.per_path
        if p.miss_edges
    ]
    return {
        "rows": [
            [
                "lb_deep", n, eps, st.num_sim_sets, st.s2_glue_pairs,
                st.s2_edges_added, structure.num_reinforced,
                round(bound_r(n, eps)),
                round(min(ratios), 3) if ratios else "-",
                round(min(covers), 3) if covers else "-",
                round(min(volumes), 3) if volumes else "-",
            ]
        ]
    }


E9 = ScenarioSpec(
    experiment_id="E9",
    title="Phase S2 internals (Lemmas 4.13-4.21 measured)",
    description="Fig. 4/7/8/9: Phase S2 internals (miss sets, segment stats)",
    columns=(
        "workload", "n", "eps", "sim_sets", "glue_pairs", "s2_edges",
        "r(n)", "r_bound", "min|D|/|sigma|", "min_IS_cover", "min_vol/n_eps*miss",
    ),
    grid=e9_grid,
    measure=e9_measure,
    notes=(
        "r(n) counts tree edges left unprotected after S2 (then reinforced)",
        "Lemma 4.14 predicts min|D|/|sigma| >= 1/4; Claim 4.18 predicts IS cover >= 1/5",
        "Lemma 4.21 predicts detour volume = Omega(n^eps * |E_miss|) per path",
    ),
)


# ----------------------------------------------------------------------
# E10: Phase S1 iteration counts (Lemma 4.10)
# ----------------------------------------------------------------------
def e10_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    eps_values = [0.2, 0.4] if quick else [0.15, 0.3, 0.45]
    workloads = [
        ("gnp", {"n": 150 if quick else 320, "avg_degree": 8.0, "seed": seed}),
        ("lb_deep", {"d": 14 if quick else 24, "k": 2, "x": 5}),
    ]
    return [
        {"workload": name, "params": params, "eps": eps, "seed": seed}
        for name, params in workloads
        for eps in eps_values
    ]


def e10_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Phase S1 iterations vs the K = ceil(1/eps) + 2 bound, one point."""
    name = payload["workload"]
    graph, source, pcons = workload_pcons(payload)
    opts = ConstructOptions(force_main=True, seed=payload["seed"])
    structure = build_epsilon_ftbfs(
        graph, source, payload["eps"], options=opts, pcons=pcons
    )
    st = structure.stats
    return {
        "rows": [
            [
                name, graph.num_vertices, payload["eps"], st.s1_k_bound,
                st.s1_iterations, st.s1_within_bound, st.s1_edges_added,
                st.i1_size, st.i2_size,
            ]
        ]
    }


E10 = ScenarioSpec(
    experiment_id="E10",
    title="Lemma 4.10: Phase S1 iterations vs K = ceil(1/eps) + 2",
    description="Fig. 5/6 + Lemma 4.10: Phase S1 iteration counts",
    columns=(
        "workload", "n", "eps", "K_bound", "iterations",
        "within_bound", "s1_edges", "i1", "i2",
    ),
    grid=e10_grid,
    measure=e10_measure,
    notes=(
        "Lemma 4.10 predicts the pending (!~) set drains within K iterations",
    ),
)
