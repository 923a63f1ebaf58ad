"""Shared measure-stage building blocks for scenario specs.

Everything here is a module-level, picklable-by-reference helper meant
to run inside pipeline workers.  Spec modules compose these instead of
re-implementing workload/pcons plumbing, and the generic ``probe`` stage
gives tests (and new-spec authors) a cheap deterministic point to fan
out without touching the heavy constructions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Mapping

__all__ = ["build_point", "workload_pcons", "probe"]


def build_point(payload: Mapping[str, Any]):
    """Rebuild one grid point's workload.

    Payload keys: ``workload`` (name) and ``params`` (workload kwargs).
    Returns ``(graph, source)``.  Workers rebuild rather than receive
    objects: payloads stay tiny and JSON-able, and determinism comes
    from the seeded generators.
    """
    from repro.harness.workloads import workload as make_workload

    return make_workload(payload["workload"], **dict(payload.get("params") or {}))


@lru_cache(maxsize=8)
def _workload_pcons(name: str, params_items: tuple, seed: int):
    from repro.core import run_pcons
    from repro.harness.workloads import workload as make_workload

    graph, source = make_workload(name, **dict(params_items))
    return graph, source, run_pcons(graph, source, seed=seed)


def workload_pcons(payload: Mapping[str, Any]):
    """``(graph, source, pcons)`` for a grid point, memoized per process.

    Many grids sweep a parameter (eps, variant, ratio) over one fixed
    workload, and pcons — the most expensive shared step — depends only
    on (workload, params, seed).  Construction treats pcons as
    read-only, so points landing in the same worker reuse one copy
    (the old monolith shared pcons the same way); points in different
    workers each compute their own, with identical values either way —
    the cache changes wall-clock, never results.
    """
    items = tuple(sorted((dict(payload.get("params") or {})).items()))
    return _workload_pcons(payload["workload"], items, int(payload.get("seed", 0)))


def probe(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A minimal deterministic stage: BFS eccentricity of a workload point.

    Used by the pipeline's own tests (cheap enough to fan out dozens of
    points) and as the reference example of the measure-stage shape.
    """
    from repro.engine import get_engine

    graph, source = build_point(payload)
    dist = get_engine().distances(graph, source)
    reachable = [d for d in dist if d >= 0]
    return {
        "rows": [
            [
                payload.get("label", payload["workload"]),
                graph.num_vertices,
                graph.num_edges,
                max(reachable),
                len(reachable),
            ]
        ],
        "facts": {"eccentricity": max(reachable)},
    }
