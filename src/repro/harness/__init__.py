"""Experiment harness: the scenario pipeline, records, workloads, fanout.

The experiment registry lives in :mod:`repro.harness.pipeline` — each of
E1–E13, E15 and E16 (E14 is retired) is a declarative
:class:`~repro.harness.pipeline.spec.ScenarioSpec` executed by the
shared :class:`~repro.harness.pipeline.runner.PipelineRunner` over the
process-pool stage layer in :mod:`repro.harness.parallel`.
``EXPERIMENTS`` maps experiment id to its spec.
"""

from repro.harness.parallel import (
    StageTask,
    default_worker_count,
    run_stage_tasks,
)
from repro.harness.pipeline import (
    SPECS,
    PipelineRunner,
    PointResult,
    ScenarioSpec,
    experiment_ids,
    get_spec,
    mask_timing,
    run_experiment,
)
from repro.harness.records import (
    ExperimentRecord,
    artifacts_dir,
    load_record,
    save_record,
)
from repro.harness.workloads import WORKLOADS, workload, workload_names

#: Experiment id -> :class:`ScenarioSpec` (the registry's historical name).
EXPERIMENTS = SPECS

__all__ = [
    "EXPERIMENTS",
    "SPECS",
    "PipelineRunner",
    "PointResult",
    "ScenarioSpec",
    "get_spec",
    "mask_timing",
    "experiment_ids",
    "run_experiment",
    "StageTask",
    "default_worker_count",
    "run_stage_tasks",
    "ExperimentRecord",
    "artifacts_dir",
    "load_record",
    "save_record",
    "WORKLOADS",
    "workload",
    "workload_names",
]
