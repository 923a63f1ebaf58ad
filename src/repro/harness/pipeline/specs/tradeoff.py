"""Specs E1/E2/E5/E6: the headline tradeoff, its endpoints, and costs.

Each experiment is a grid of independent points (one construction per
point, pcons rebuilt deterministically inside the worker) plus, for E5
and E6, an in-process aggregate that synthesizes the cross-point table
or fit.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.core import (
    CostModel,
    build_epsilon_ftbfs,
    build_ftbfs13,
    optimal_epsilon_theory,
    verify_structure,
)
from repro.core.construct import ConstructOptions
from repro.harness.pipeline.spec import ScenarioSpec
from repro.harness.pipeline.specs.common import bound_b, bound_r
from repro.harness.pipeline.stages import workload_pcons
from repro.lower_bounds import build_theorem51
from repro.util.stats import fit_loglog

__all__ = ["E1", "E2", "E5", "E6"]


# ----------------------------------------------------------------------
# E1: the headline tradeoff
# ----------------------------------------------------------------------
def e1_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    eps_values = [0.25, 0.5, 1.0] if quick else [0.15, 0.25, 0.35, 0.45, 0.5, 0.75, 1.0]
    workloads = [
        ("gnp", {"n": 150 if quick else 350, "avg_degree": 8.0, "seed": seed}),
        ("lb_deep", {"d": 16 if quick else 28, "k": 2, "x": 5}),
    ]
    if not quick:
        workloads.append(("sparse", {"n": 350, "extra": 0.6, "seed": seed}))
    return [
        {"workload": name, "params": params, "eps": eps, "seed": seed}
        for name, params in workloads
        for eps in eps_values
    ]


def e1_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One (workload, eps) point: construct, verify, check both bounds."""
    name = payload["workload"]
    graph, source, pcons = workload_pcons(payload)
    n = graph.num_vertices
    eps = payload["eps"]
    structure = build_epsilon_ftbfs(graph, source, eps, pcons=pcons)
    ok = verify_structure(structure).ok
    bb, br = bound_b(n, eps), bound_r(n, eps)
    r_ok = (
        structure.num_reinforced <= max(br, 1)
        if eps < 0.5
        else structure.num_reinforced == 0
    )
    return {
        "rows": [
            [
                name, n, graph.num_edges, eps,
                structure.num_backup, structure.num_reinforced,
                round(bb), round(br),
                structure.num_backup <= bb, r_ok, ok,
            ]
        ]
    }


E1 = ScenarioSpec(
    experiment_id="E1",
    title="Theorem 3.1 tradeoff: r(n) vs b(n) over epsilon",
    description="Theorem 3.1 headline tradeoff: (b, r) vs bounds over an eps sweep",
    columns=(
        "workload", "n", "m", "eps", "b(n)", "r(n)",
        "bound_b", "bound_r", "b_ok", "r_ok", "verified",
    ),
    grid=e1_grid,
    measure=e1_measure,
    notes=(
        "bound_b = min{1/eps n^(1+eps) log n, n^1.5}; bound_r = 1/eps n^(1-eps) log n",
        "paper: both bounds hold with the stated constants up to O~ factors",
    ),
)


# ----------------------------------------------------------------------
# E2: endpoints
# ----------------------------------------------------------------------
def e2_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    n = 120 if quick else 260
    return [
        {"workload": name, "params": params, "seed": seed}
        for name, params in [
            ("gnp", {"n": n, "avg_degree": 8.0, "seed": seed}),
            ("grid", {"side": 10 if quick else 15}),
        ]
    ]


def e2_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Both degenerate endpoints (eps = 0 and eps = 1) on one workload."""
    name = payload["workload"]
    graph, source, pcons = workload_pcons(payload)
    s0 = build_epsilon_ftbfs(graph, source, 0.0, pcons=pcons)
    s1 = build_epsilon_ftbfs(graph, source, 1.0, pcons=pcons)
    return {
        "rows": [
            [
                name, graph.num_vertices, 0.0, s0.num_backup, s0.num_reinforced,
                "reinforced BFS tree (r = n-1 reachable)", verify_structure(s0).ok,
            ],
            [
                name, graph.num_vertices, 1.0, s1.num_backup, s1.num_reinforced,
                "[14] FT-BFS, no reinforcement", verify_structure(s1).ok,
            ],
        ]
    }


E2 = ScenarioSpec(
    experiment_id="E2",
    title="Tradeoff endpoints: eps = 0 and eps = 1",
    description="endpoint sanity: eps = 0 and eps = 1 degenerate correctly",
    columns=("workload", "n", "eps", "b(n)", "r(n)", "comment", "verified"),
    grid=e2_grid,
    measure=e2_measure,
    notes=(
        "paper section 1: eps=0 -> n-1 reinforced suffice; eps=1 -> Theta(n^1.5) backup",
    ),
)


# ----------------------------------------------------------------------
# E5: cost interpretation
# ----------------------------------------------------------------------
def e5_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    params = {"d": 16 if quick else 24, "k": 2, "x": 5}
    return [
        {"workload": "lb_deep", "params": params, "eps": i / 20.0, "seed": seed}
        for i in range(0, 21)
    ]


def e5_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One eps on the cost grid: just the structure's (b, r) sizes."""
    graph, source, pcons = workload_pcons(payload)
    opts = ConstructOptions(seed=payload["seed"])
    s = build_epsilon_ftbfs(
        graph, source, payload["eps"], options=opts, pcons=pcons
    )
    return {
        "facts": {
            "eps": payload["eps"],
            "n": graph.num_vertices,
            "b": s.num_backup,
            "r": s.num_reinforced,
        }
    }


def e5_aggregate(record, points) -> None:
    """Synthesize the per-ratio cost table from the eps-grid facts."""
    quick = bool(record.params.get("quick"))
    ratios = [1.0, 10.0, 100.0] if quick else [1.0, 5.0, 25.0, 100.0, 1000.0]
    facts = [p.facts for p in points]
    n = facts[0]["n"]
    by_eps = {f["eps"]: f for f in facts}
    for ratio in ratios:
        model = CostModel(backup=1.0, reinforce=ratio)
        eps_theory = optimal_epsilon_theory(n, model)
        best_eps, best_cost = None, math.inf
        for f in facts:
            c = model.backup * f["b"] + model.reinforce * f["r"]
            if c < best_cost:
                best_cost, best_eps = c, f["eps"]
        all_backup = by_eps[1.0]
        all_reinforced = by_eps[0.0]
        record.add_row(
            "lb_deep", n, ratio, round(eps_theory, 3), best_eps,
            round(best_cost),
            round(model.backup * all_backup["b"] + model.reinforce * all_backup["r"]),
            round(
                model.backup * all_reinforced["b"]
                + model.reinforce * all_reinforced["r"]
            ),
        )


E5 = ScenarioSpec(
    experiment_id="E5",
    title="Min-cost design: optimal eps vs log(R/B)/(2 log n)",
    description="Section 1 cost interpretation: optimal eps vs log(R/B)/log n",
    columns=(
        "workload", "n", "R/B", "eps_theory", "eps_measured",
        "cost_measured", "cost_all_backup", "cost_all_reinforced",
    ),
    grid=e5_grid,
    measure=e5_measure,
    aggregate=e5_aggregate,
    notes=(
        "paper section 1: min-cost at eps = O~(log(R/B)/log n)",
        "measured optimum should move toward larger eps as R/B grows",
    ),
)


# ----------------------------------------------------------------------
# E6: the [14] endpoint scaling
# ----------------------------------------------------------------------
def e6_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    sizes = [200, 400] if quick else [200, 400, 800, 1400]
    return [{"n_target": n_target} for n_target in sizes]


def e6_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One gadget size: [14] FT-BFS size (verified on the small sizes)."""
    n_target = payload["n_target"]
    lb = build_theorem51(n_target, 0.5)
    structure = build_ftbfs13(lb.graph, lb.source)
    n = lb.graph.num_vertices
    ok = True
    if n <= 500:  # verification is O(n m); keep the large sizes fast
        ok = verify_structure(structure).ok
    return {
        "rows": [
            [
                n_target, n, lb.graph.num_edges, structure.num_edges,
                round(structure.num_edges / n**1.5, 4), ok,
            ]
        ],
        "facts": {"n": n, "size": structure.num_edges},
    }


def e6_aggregate(record, points) -> None:
    fit = fit_loglog(
        [p.facts["n"] for p in points], [p.facts["size"] for p in points]
    )
    record.derived["exponent"] = fit.exponent
    record.note(
        f"fitted size exponent {fit.exponent:.3f} (paper: 3/2 on the worst case; "
        f"R^2={fit.r_squared:.3f})"
    )


E6 = ScenarioSpec(
    experiment_id="E6",
    title="[14] FT-BFS size on the lower-bound family (expect ~ n^(3/2))",
    description="[14] endpoint: FT-BFS size scaling ~ n^(3/2) on the gadget",
    columns=("n_target", "n", "m", "|H|", "|H|/n^1.5", "verified"),
    grid=e6_grid,
    measure=e6_measure,
    aggregate=e6_aggregate,
)
