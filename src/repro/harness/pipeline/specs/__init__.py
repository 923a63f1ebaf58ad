"""The scenario registry: one :class:`ScenarioSpec` per paper table/figure.

Each experiment (the table below is the index) is a declarative
spec — a grid of JSON-able points, a picklable measure stage, an
optional in-process aggregate — executed by the shared
:class:`~repro.harness.pipeline.runner.PipelineRunner`.

Experiments (and the spec module implementing each)
---------------------------------------------------
=====  =====================  =========================================
E1     tradeoff               Theorem 3.1 headline tradeoff: r(n), b(n) vs bounds, eps sweep
E2     tradeoff               endpoint sanity: eps = 0 and eps = 1 degenerate correctly
E3     lower_bounds           Theorem 5.1 single-source lower bound (forced edges, exponents)
E4     lower_bounds           Theorem 5.4 multi-source lower bound
E5     tradeoff               Section 1 cost interpretation: optimal eps vs log(R/B)/log n
E6     tradeoff               [14] endpoint: FT-BFS size scaling ~ n^(3/2) on the gadget
E7     structure_internals    Fig. 1/2 census: interference types, pi-intersections, A/B/C
E8     structure_internals    Fig. 3 + Facts 3.3/4.1: decomposition invariants
E9     structure_internals    Fig. 4/7/8/9: Phase S2 internals (miss sets, segment stats)
E10    structure_internals    Fig. 5/6 + Lemma 4.10: Phase S1 iteration counts
E11    economics              Section 1 intro example: bridge-to-clique economics
E12    economics              Discussion: greedy optimization ablation vs universal bound
E13    runtime                runtime scaling of the pipeline stages
E14    (retired)              extensions beyond the paper; the id stays a gap
E15    extensions             ablations: drop S1 / drop S2 / weights / regime dispatch
E16    runtime                traversal engines: python vs csr (parity+speed)
=====  =====================  =========================================

``quick=True`` shrinks every grid for CI-speed runs; the benchmarks run
the full versions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ExperimentError
from repro.harness.pipeline.spec import ScenarioSpec
from repro.harness.pipeline.specs.economics import E11, E12
from repro.harness.pipeline.specs.extensions import E15
from repro.harness.pipeline.specs.lower_bounds import E3, E4
from repro.harness.pipeline.specs.runtime import E13, E16
from repro.harness.pipeline.specs.structure_internals import E7, E8, E9, E10
from repro.harness.pipeline.specs.tradeoff import E1, E2, E5, E6

__all__ = ["SPECS", "get_spec", "spec_ids"]

SPECS: Dict[str, ScenarioSpec] = {
    spec.experiment_id: spec
    for spec in (
        E1, E2, E3, E4, E5, E6, E7, E8, E9, E10,
        E11, E12, E13, E15, E16,
    )
}


def spec_ids() -> List[str]:
    """All experiment ids in numeric order."""
    return sorted(SPECS, key=lambda s: int(s[1:]))


def get_spec(experiment_id: str) -> ScenarioSpec:
    """Look up a spec by (case-insensitive) experiment id."""
    try:
        return SPECS[experiment_id.upper()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(spec_ids())}"
        ) from None
