"""Specs E11/E12: the intro example's economics and the greedy ablation."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core import (
    CostModel,
    build_epsilon_ftbfs,
    greedy_reinforcement,
    verify_structure,
)
from repro.harness.pipeline.spec import ScenarioSpec
from repro.harness.pipeline.stages import workload_pcons
from repro.lower_bounds import build_clique_example

__all__ = ["E11", "E12"]


def _worst_failure_loss(
    graph, source, h_edges: Sequence[int], reinforced: Sequence[int]
) -> int:
    """Max #vertices disconnected from ``source`` by one fault-prone failure.

    Only graph-theoretic bridges of ``H`` can disconnect anything, so the
    check enumerates those (minus the reinforced set), via one engine
    failure sweep over the structure.
    """
    from repro.engine import get_engine, num_unreachable
    from repro.graphs.properties import bridges as find_bridges

    h_set = set(h_edges)
    reinforced_set = set(reinforced)
    sub = graph.edge_subgraph(h_set)
    sweep = get_engine().sweep(graph, source, allowed_edges=h_set)
    base_unreachable = num_unreachable(sweep.base_distances())
    worst = 0
    for sub_eid in find_bridges(sub):
        u, v = sub.endpoints(sub_eid)
        orig_eid = graph.edge_id(u, v)
        if orig_eid not in reinforced_set:
            lost = num_unreachable(sweep.failed(orig_eid)) - base_unreachable
            worst = max(worst, lost)
    return worst


# ----------------------------------------------------------------------
# E11: intro example economics
# ----------------------------------------------------------------------
def e11_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    sizes = [40, 80] if quick else [40, 80, 140]
    return [{"n": n} for n in sizes]


def e11_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Bridge-to-clique at one size: conservative vs mixed design.

    The conservative all-backup design trivially satisfies Definition 2.1
    (the bridge failure shrinks "the surviving part"), but its
    survivability is terrible: one failure cuts off n - 1 vertices.
    Reinforcing the single bridge drops the worst-case loss to zero with
    only O(n) backup edges - the paper's motivating observation.
    """
    from repro.core import verify_subgraph

    n = payload["n"]
    model = CostModel(backup=1.0, reinforce=10.0)
    example = build_clique_example(n)
    graph, source = example.graph, example.source
    all_edges = [eid for eid, _, _ in graph.edges()]
    conservative_ok = verify_subgraph(graph, source, all_edges, ()).ok
    loss_conservative = _worst_failure_loss(graph, source, all_edges, ())
    rows = [
        [
            n, graph.num_edges, "all-backup (conservative)",
            graph.num_edges, 0, loss_conservative, conservative_ok,
            round(model.backup * graph.num_edges),
        ]
    ]
    # Mixed design: the construction plus an explicitly reinforced
    # bridge (the construction alone need not reinforce it - a
    # disconnecting failure is vacuously fine under Definition 2.1).
    structure = build_epsilon_ftbfs(graph, source, 0.25)
    mixed_reinforced = set(structure.reinforced) | {example.bridge_eid}
    mixed_edges = set(structure.edges) | {example.bridge_eid}
    mixed_ok = verify_subgraph(graph, source, mixed_edges, mixed_reinforced).ok
    loss_mixed = _worst_failure_loss(graph, source, mixed_edges, mixed_reinforced)
    rows.append(
        [
            n, graph.num_edges, "mixed (eps=0.25 + reinforced bridge)",
            len(mixed_edges) - len(mixed_reinforced), len(mixed_reinforced),
            loss_mixed, mixed_ok,
            round(
                model.backup * (len(mixed_edges) - len(mixed_reinforced))
                + model.reinforce * len(mixed_reinforced)
            ),
        ]
    )
    return {"rows": rows}


E11 = ScenarioSpec(
    experiment_id="E11",
    title="Intro example: source -bridge- clique",
    description="Section 1 intro example: bridge-to-clique economics",
    columns=(
        "n", "|E|", "design", "b", "r", "worst_loss",
        "verified", "cost(R/B=10)",
    ),
    grid=e11_grid,
    measure="repro.harness.pipeline.specs.economics:e11_measure",
    notes=(
        "worst_loss = vertices cut off from s by the worst single fault-prone failure",
        "one reinforced bridge: worst_loss n-1 -> 0 at ~1/20 of the conservative cost",
    ),
)


# ----------------------------------------------------------------------
# E12: optimization ablation (Discussion)
# ----------------------------------------------------------------------
def e12_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    workloads = [
        ("lb_deep", {"d": 14 if quick else 22, "k": 2, "x": 5}),
        ("gnp", {"n": 120 if quick else 240, "avg_degree": 8.0, "seed": seed}),
    ]
    return [
        {"workload": name, "params": params, "seed": seed}
        for name, params in workloads
    ]


def e12_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Greedy reinforcement vs the universal construction on one workload."""
    name = payload["workload"]
    graph, source, pcons = workload_pcons(payload)
    universal = build_epsilon_ftbfs(graph, source, 0.25, pcons=pcons)
    budget = max(universal.num_reinforced, 8)
    greedy = greedy_reinforcement(graph, source, budget, pcons=pcons)
    ok = verify_structure(greedy).ok
    return {
        "rows": [
            [
                name, graph.num_vertices, budget, greedy.num_backup,
                universal.num_backup, universal.num_reinforced, ok,
            ]
        ]
    }


E12 = ScenarioSpec(
    experiment_id="E12",
    title="Discussion: instance-adaptive greedy vs universal construction",
    description="Discussion: greedy optimization ablation vs universal bound",
    columns=(
        "workload", "n", "r_budget", "greedy_b", "universal_b",
        "universal_r", "greedy_verified",
    ),
    grid=e12_grid,
    measure="repro.harness.pipeline.specs.economics:e12_measure",
    notes=(
        "greedy minimizes measured Cost(e) coverage; paper: universal bound can be wasteful",
    ),
)
