"""Spec E15: ablations of the construction's design choices.

E14 (vertex-fault FT-BFS, a sensitivity oracle and trace replay: extensions
beyond the paper) is retired; its id stays a gap.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro.core import build_epsilon_ftbfs, verify_structure
from repro.core.construct import ConstructOptions
from repro.harness.pipeline.spec import ScenarioSpec
from repro.harness.pipeline.stages import workload_pcons

__all__ = ["E15"]


# ----------------------------------------------------------------------
# E15: ablations of the construction's design choices
# ----------------------------------------------------------------------
_E15_VARIANTS = (
    "full",
    "no-s1",
    "no-s2",
    "force-main-06",
    "dispatch-06",
    "random-weights",
)


def e15_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    params = {"d": 14 if quick else 24, "k": 2, "x": 5}
    return [
        {"workload": "lb_deep", "params": params, "variant": variant, "seed": seed}
        for variant in _E15_VARIANTS
    ]


def e15_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One ablation variant, rebuilt from scratch in its own point.

    Each variant still yields a *valid* structure (validity comes from the
    final unprotected-edge accounting, which every variant performs); the
    ablation shows what each phase buys in reinforcement count.
    """
    from repro.core import verify_subgraph
    from repro.core.interference import InterferenceIndex
    from repro.core.phase_s1 import run_phase_s1
    from repro.core.phase_s2 import run_phase_s2

    eps = 0.25
    seed = payload["seed"]
    variant = payload["variant"]
    graph, source, pcons = workload_pcons(payload)
    n = graph.num_vertices
    tree = pcons.tree
    uncovered = pcons.pairs.uncovered()
    n_eps = max(1, math.ceil(n**eps))
    k_bound = math.ceil(1 / eps) + 2

    def finish(label: str, edges: set, used_eps: float) -> List[Any]:
        reinforced = {
            rec_.eid for rec_ in uncovered if rec_.last_eid not in edges
        }
        ok = verify_subgraph(graph, source, edges, reinforced).ok
        return [
            label, used_eps, n, len(edges) - len(reinforced),
            len(reinforced), ok,
        ]

    if variant == "full":
        full = build_epsilon_ftbfs(graph, source, eps, pcons=pcons)
        row = [
            "full", eps, n, full.num_backup, full.num_reinforced,
            verify_structure(full).ok,
        ]
    elif variant == "no-s1":
        # hand everything to S2 as a single set
        edges = set(tree.tree_edges())
        run_phase_s2(
            tree, uncovered, [list(uncovered)], n_eps=n_eps,
            structure_edges=edges,
        )
        row = finish("no-S1 (S2 on all pairs)", edges, eps)
    elif variant == "no-s2":
        # S1 only, then reinforce whatever is left
        index = InterferenceIndex(tree, uncovered)
        edges = set(tree.tree_edges())
        run_phase_s1(
            index, uncovered, n_eps=n_eps, k_bound=k_bound,
            structure_edges=edges,
        )
        row = finish("no-S2 (S1 only)", edges, eps)
    elif variant == "force-main-06":
        main_06 = build_epsilon_ftbfs(
            graph, source, 0.6,
            options=ConstructOptions(force_main=True, seed=seed),
            pcons=pcons,
        )
        row = [
            "force-main @ eps=0.6", 0.6, n, main_06.num_backup,
            main_06.num_reinforced, verify_structure(main_06).ok,
        ]
    elif variant == "dispatch-06":
        dispatch_06 = build_epsilon_ftbfs(graph, source, 0.6, pcons=pcons)
        row = [
            "[14] dispatch @ eps=0.6", 0.6, n, dispatch_06.num_backup,
            dispatch_06.num_reinforced, verify_structure(dispatch_06).ok,
        ]
    elif variant == "random-weights":
        random_weights = build_epsilon_ftbfs(
            graph, source, eps,
            options=ConstructOptions(weight_scheme="random", seed=seed),
        )
        row = [
            "random tie-breaking", eps, n, random_weights.num_backup,
            random_weights.num_reinforced, verify_structure(random_weights).ok,
        ]
    else:
        raise ValueError(f"unknown E15 variant {variant!r}")
    return {"rows": [row]}


E15 = ScenarioSpec(
    experiment_id="E15",
    title="Ablations: what phases S1/S2 and the dispatch buy",
    description="ablations: drop S1 / drop S2 / weights / regime dispatch",
    columns=("variant", "eps", "n", "b(n)", "r(n)", "verified"),
    grid=e15_grid,
    measure=e15_measure,
    notes=("every variant is valid by construction; phases trade r(n) down",),
)
