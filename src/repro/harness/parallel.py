"""Parallel task execution: the harness's process-fanout layer.

It runs picklable **stage tasks**: a :class:`StageTask` names a
module-level function by ``"package.module:function"`` reference plus a
payload dict, so tasks pickle cheaply and each worker re-imports its own
code and rebuilds its own inputs deterministically.
:func:`run_stage_tasks` streams results back in *completion* order (each
tagged with its task index), which is what lets the scenario pipeline
(:class:`~repro.harness.pipeline.runner.PipelineRunner`, its one
caller) write per-point JSONL rows as they finish while still
assembling bit-identical, task-ordered records.

Usage:

    tasks = [StageTask("repro.harness.pipeline.stages:probe",
                       {"workload": "gnp", "params": {"n": 30, "seed": s}})
             for s in range(4)]
    for index, result, elapsed in run_stage_tasks(tasks, max_workers=2):
        ...
"""

from __future__ import annotations

import importlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.errors import ExperimentError

__all__ = [
    "StageTask",
    "run_stage_tasks",
    "default_worker_count",
    "resolve_stage",
    "MAX_WORKERS_ENV_VAR",
]

#: Caps/overrides :func:`default_worker_count` when set to a positive int.
MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"


@dataclass(frozen=True)
class StageTask:
    """One unit of picklable work: a function reference plus its payload.

    ``func`` is a ``"package.module:function"`` reference to a
    module-level callable taking a single payload dict; referencing by
    name (instead of shipping a callable) keeps tasks tiny on the wire
    and lets workers resolve their own (possibly freshly imported) code.
    ``engine`` scopes the worker's default traversal engine for the call.
    """

    func: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None


def resolve_stage(func_ref: str) -> Callable[[Mapping[str, Any]], Any]:
    """Resolve a ``"package.module:function"`` stage reference."""
    module_name, sep, func_name = func_ref.partition(":")
    if not sep or not module_name or not func_name:
        raise ExperimentError(
            f"stage reference {func_ref!r} must look like 'package.module:function'"
        )
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, func_name)
    except (ImportError, AttributeError) as exc:
        raise ExperimentError(f"cannot resolve stage {func_ref!r}: {exc}") from exc
    if not callable(fn):
        raise ExperimentError(f"stage {func_ref!r} is not callable")
    return fn


def _run_stage(task: StageTask) -> Tuple[Any, float]:
    """Worker body: resolve the stage, run it under the task's engine."""
    from repro.engine import engine_context

    start = time.perf_counter()
    fn = resolve_stage(task.func)
    with engine_context(task.engine):
        result = fn(dict(task.payload))
    return result, time.perf_counter() - start


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
) -> Iterator[Tuple[int, Any, float]]:
    """Run stage tasks, yielding ``(task_index, result, elapsed_seconds)``.

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
            result, elapsed = _run_stage(task)
            yield index, result, elapsed
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
                    result, elapsed = future.result()
                    yield futures[future], result, elapsed
        finally:
            for future in pending:
                future.cancel()


def default_worker_count() -> int:
    """A conservative default: physical-ish cores, at least 1.

    The ``REPRO_MAX_WORKERS`` environment variable overrides the
    cpu-derived value (useful on shared CI runners and inside cgroups
    that lie about core counts).
    """
    from repro.util.validation import env_int

    try:
        value = env_int(MAX_WORKERS_ENV_VAR, (os.cpu_count() or 2) - 1)
    except Exception as exc:
        raise ExperimentError(str(exc)) from None
    return max(1, value)
