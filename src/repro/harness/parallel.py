"""Parallel task execution: the harness's process-fanout layer.

It runs picklable **stage tasks**: a :class:`StageTask` holds a
module-level function plus a payload dict.  A module-level function
pickles by its qualified name, so tasks stay tiny on the wire and each
worker imports its own code and rebuilds its own inputs
deterministically.  :func:`run_stage_tasks` streams results back in
*completion* order, each tagged with its task index; the scenario
pipeline (:class:`~repro.harness.pipeline.runner.PipelineRunner`, its
one caller) reassembles them in task order.

Usage:

    from repro.harness.pipeline.stages import probe

    tasks = [StageTask(probe, {"workload": "gnp", "params": {"n": 30, "seed": s}})
             for s in range(4)]
    for index, result in run_stage_tasks(tasks, max_workers=2):
        ...
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentError

__all__ = ["StageTask", "run_stage_tasks", "default_worker_count"]


@dataclass(frozen=True)
class StageTask:
    """One unit of picklable work: a function plus its payload.

    ``func`` is a module-level callable taking a single payload dict,
    so it pickles by name and workers run their own imported code.
    ``engine`` scopes the worker's default traversal engine for the call.
    """

    func: Callable[[Mapping[str, Any]], Any]
    payload: Mapping[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None


def _run_stage(task: StageTask) -> Any:
    """Worker body: run the stage under the task's engine."""
    from repro.engine import engine_context

    with engine_context(task.engine):
        return task.func(dict(task.payload))


def _resolve_workers(max_workers: Optional[int]) -> int:
    if max_workers is not None and max_workers < 0:
        raise ExperimentError(f"max_workers must be >= 0, got {max_workers}")
    if not max_workers:  # None or 0 = auto
        return default_worker_count()
    return max_workers


def run_stage_tasks(
    tasks: Sequence[StageTask],
    *,
    max_workers: Optional[int] = None,
) -> Iterator[Tuple[int, Any]]:
    """Run stage tasks, yielding ``(task_index, result)``.

    Results stream back in *completion* order (task order when the
    worker count resolves to 1, which runs everything in-process);
    callers that need task order reassemble by index.  ``max_workers``
    of None or 0 means auto (:func:`default_worker_count`).  A worker
    exception propagates on the iteration that would have yielded its
    result.
    """
    if not tasks:
        return
    workers = _resolve_workers(max_workers)
    if workers <= 1:
        for index, task in enumerate(tasks):
            yield index, _run_stage(task)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = {
            pool.submit(_run_stage, task): index
            for index, task in enumerate(tasks)
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield futures[future], future.result()
        finally:
            for future in pending:
                future.cancel()


def default_worker_count() -> int:
    """The worker count ``--jobs 0`` resolves to: all cores but one,
    at least 1."""
    return max(1, (os.cpu_count() or 2) - 1)
