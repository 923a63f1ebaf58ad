"""Specs E13/E16: runtime scaling and the traversal-engine comparison.

Both experiments measure wall-clock alongside deterministic quantities;
their timing columns are declared on the spec so the parallel/serial
identity checks mask them (timings legitimately differ between runs and
between co-scheduled workers).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.core import build_epsilon_ftbfs, run_pcons, verify_structure
from repro.errors import ExperimentError
from repro.harness.pipeline.spec import ScenarioSpec
from repro.harness.workloads import workload

__all__ = ["E13", "E16"]


# ----------------------------------------------------------------------
# E13: runtime scaling
# ----------------------------------------------------------------------
def e13_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    sizes = [100, 200] if quick else [100, 200, 400, 800]
    return [
        {"workload": "gnp", "params": {"n": n, "avg_degree": 8.0, "seed": seed}, "seed": seed}
        for n in sizes
    ]


def e13_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wall-clock of pcons / construct / verify at one size.

    The row records the traversal engine and the weight scheme the
    construction actually ran under (the ``auto`` scheme threshold
    decision), so runs under different engines or schemes can never
    silently mix configurations without it showing in the table.
    """
    graph, source = workload(payload["workload"], **payload["params"])
    t0 = time.perf_counter()
    pcons = run_pcons(graph, source, seed=payload["seed"])
    t1 = time.perf_counter()
    structure = build_epsilon_ftbfs(graph, source, 0.25, pcons=pcons)
    t2 = time.perf_counter()
    verify_structure(structure)
    t3 = time.perf_counter()
    return {
        "rows": [
            [
                graph.num_vertices, graph.num_edges,
                structure.stats.engine, structure.stats.weight_scheme,
                round(t1 - t0, 3), round(t2 - t1, 3), round(t3 - t2, 3),
            ]
        ]
    }


E13 = ScenarioSpec(
    experiment_id="E13",
    title="Runtime scaling (polynomial-time claim)",
    description="runtime scaling of the pipeline stages",
    columns=(
        "n", "m", "engine", "weight_scheme",
        "t_pcons_s", "t_construct_s", "t_verify_s",
    ),
    grid=e13_grid,
    measure=e13_measure,
    timing_columns=("t_pcons_s", "t_construct_s", "t_verify_s"),
)


# ----------------------------------------------------------------------
# E16: traversal-engine comparison
# ----------------------------------------------------------------------
def e16_grid(quick: bool, seed: int) -> List[Dict[str, Any]]:
    workloads = [
        ("gnp", {"n": 120 if quick else 300, "avg_degree": 8.0 if quick else 15.0, "seed": seed}),
        ("grid", {"side": 8 if quick else 14}),
    ]
    if not quick:
        workloads.append(("lb_deep", {"d": 20, "k": 2, "x": 5}))
    return [
        {"workload": name, "params": params, "seed": seed}
        for name, params in workloads
    ]


def e16_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Engine benchmark on one workload: timing + parity per engine.

    The engine loop stays inside a single point (rather than a point per
    engine) because every row is *relative* to the python reference run:
    parity of the full ``VerificationReport`` and of the unprotected-edge
    set is asserted against it, and the speedup column divides by its
    wall-clock.  The record doubles as an executable parity certificate.
    """
    from repro.core import unprotected_edges, verify_subgraph
    from repro.engine import available_engines

    from repro.engine import get_engine

    name = payload["workload"]
    graph, source = workload(name, **payload["params"])
    structure = build_epsilon_ftbfs(graph, source, 0.25)
    h_edges, e_prime = structure.edges, structure.reinforced
    scheme = structure.stats.weight_scheme
    reference = None
    ref_unprotected = None
    ref_time = None
    rows = []
    for eng_name in available_engines():
        t0 = time.perf_counter()
        report = verify_subgraph(graph, source, h_edges, e_prime, engine=eng_name)
        t1 = time.perf_counter()
        miss = unprotected_edges(graph, source, h_edges, engine=eng_name)
        t2 = time.perf_counter()
        if reference is None:
            reference, ref_unprotected, ref_time = report, miss, t1 - t0
        parity = (
            report.ok == reference.ok
            and report.checked_failures == reference.checked_failures
            and report.violations == reference.violations
            and miss == ref_unprotected
        )
        engine = get_engine(eng_name)
        rows.append(
            [
                name, graph.num_vertices, graph.num_edges, eng_name,
                engine.weighted_backend, engine.replacement_backend,
                engine.detour_backend, scheme,
                round(t1 - t0, 4), round(t2 - t1, 4),
                round(ref_time / max(t1 - t0, 1e-9), 2), parity,
            ]
        )
        if not parity:
            raise ExperimentError(
                f"engine {eng_name!r} diverged from the reference on "
                f"workload {name!r}"
            )
    return {"rows": rows}


E16 = ScenarioSpec(
    experiment_id="E16",
    title="Traversal engines: python reference vs csr kernels",
    description="traversal engines: python vs csr (parity+speed)",
    columns=(
        "workload", "n", "m", "engine", "weighted", "replacement",
        "detour_batch", "weight_scheme",
        "t_verify_s", "t_unprotected_s", "speedup_verify", "parity",
    ),
    grid=e16_grid,
    measure=e16_measure,
    timing_columns=("t_verify_s", "t_unprotected_s", "speedup_verify"),
    notes=(
        "speedup_verify is relative to the first (python reference) engine",
        "weighted/weight_scheme record each engine's weighted backend and "
        "the scheme the structure was actually built under",
        "replacement/detour_batch record how each engine runs the weighted "
        "failure sweep and the batched detour traversals (PR 4)",
        "parity asserts identical VerificationReport + unprotected_edges output",
    ),
)
