"""The scenario-pipeline subsystem: declarative experiments, one runner.

This package replaces the old ``harness/experiments.py`` monolith (16
hand-rolled experiment functions run serially in-process) with a
layered pipeline:

* :mod:`~repro.harness.pipeline.spec` — the :class:`ScenarioSpec`
  contract: a grid of JSON-able points, a picklable measure stage, an
  optional in-process aggregate, declared timing columns;
* :mod:`~repro.harness.pipeline.specs` — the E1–E16 registry (E14
  retired), each experiment now a spec in a themed module;
* :mod:`~repro.harness.pipeline.runner` — the shared
  :class:`PipelineRunner` that fans measure stages out over the
  process-pool task layer (``repro.harness.parallel``) and reassembles
  the results in grid order;
* :mod:`~repro.harness.pipeline.stages` — reusable measure-stage
  building blocks (workload/pcons plumbing, the probe stage).

Adding an experiment is now "register a spec" — write grid/measure
(+aggregate), instantiate a :class:`ScenarioSpec`, add it to
``specs.SPECS`` — and it inherits parallelism and the CLI for free.
"""

from repro.harness.pipeline.runner import PipelineRunner
from repro.harness.pipeline.spec import PointResult, ScenarioSpec, mask_timing
from repro.harness.pipeline.specs import SPECS, get_spec, spec_ids

__all__ = [
    "PipelineRunner",
    "PointResult",
    "ScenarioSpec",
    "mask_timing",
    "SPECS",
    "get_spec",
    "spec_ids",
    "run_experiment",
    "experiment_ids",
]


def experiment_ids():
    """All experiment ids in numeric order."""
    return spec_ids()


def run_experiment(
    experiment_id: str,
    *,
    quick: bool = False,
    seed: int = 0,
    jobs: int = 1,
    engine=None,
):
    """Run one experiment by id through the shared pipeline runner,
    with ``jobs`` worker processes and an optionally pinned ``engine``."""
    runner = PipelineRunner(jobs=jobs, engine=engine)
    return runner.run(get_spec(experiment_id), quick=quick, seed=seed)
