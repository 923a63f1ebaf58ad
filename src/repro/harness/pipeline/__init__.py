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
  process-pool task layer (``repro.harness.parallel``), streams each
  finished point to JSONL, and resumes from the content-keyed cache;
* :mod:`~repro.harness.pipeline.stages` — reusable measure-stage
  building blocks (workload/pcons plumbing, the probe stage).

Adding an experiment is now "register a spec" — write grid/measure
(+aggregate), instantiate a :class:`ScenarioSpec`, add it to
``specs.SPECS`` — and it inherits parallelism, streaming, resume, and
the CLI for free.
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
    cache_dir=None,
    engine=None,
    fresh: bool = False,
):
    """Run one experiment by id through the shared pipeline runner.

    The historical entry point, kept signature-compatible (``quick``,
    ``seed``) and extended with the runner's knobs: ``jobs`` worker
    processes, a ``cache_dir`` for JSONL streaming + resume, a pinned
    ``engine``, and ``fresh`` to discard cached points.
    """
    runner = PipelineRunner(
        jobs=jobs, cache_dir=cache_dir, engine=engine, fresh=fresh
    )
    return runner.run(get_spec(experiment_id), quick=quick, seed=seed)
