"""Parallel task execution: the harness's process-fanout layer.

Two levels live here.  The *generic* level runs arbitrary picklable
**stage tasks** — a :class:`StageTask` names a module-level function by
``"package.module:function"`` reference plus a payload dict, so tasks
pickle cheaply and each worker re-imports its own code and rebuilds its
own inputs deterministically.  :func:`run_stage_tasks` streams results
back in *completion* order (each tagged with its task index), which is
what lets the scenario pipeline write per-point JSONL rows as they
finish while still assembling bit-identical, task-ordered records.

The *sweep* level (:class:`SweepTask` / :func:`run_sweep`) is the
historical construction-sweep API, now a thin specialization of the
stage layer: one stage function that builds a workload, constructs, and
optionally verifies.

Usage:

    tasks = [SweepTask.make("gnp", {"n": 200, "seed": s}, epsilon=e)
             for s in range(4) for e in (0.2, 0.5, 1.0)]
    outcomes = run_sweep(tasks, max_workers=4)
"""

from __future__ import annotations

import importlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExperimentError

__all__ = [
    "StageTask",
    "SweepTask",
    "SweepOutcome",
    "run_stage_tasks",
    "run_sweep",
    "default_worker_count",
    "resolve_stage",
    "MAX_WORKERS_ENV_VAR",
]

#: Caps/overrides :func:`default_worker_count` when set to a positive int.
MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"


# ----------------------------------------------------------------------
# generic stage tasks
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# construction sweeps (the historical API, now one stage kind)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepTask:
    """One sweep point: a named workload plus construction parameters."""

    workload: str
    params: tuple  # canonicalized (key, value) pairs; see __init__ helper
    epsilon: float = 0.3
    source: Optional[int] = None  # None = the workload's default source
    verify: bool = False
    seed: int = 0
    #: Traversal engine the worker runs under (None = worker's default);
    #: a plain string, so tasks keep pickling cheaply.
    engine: Optional[str] = None

    @staticmethod
    def make(
        workload: str,
        params: Optional[Dict[str, object]] = None,
        *,
        epsilon: float = 0.3,
        source: Optional[int] = None,
        verify: bool = False,
        seed: int = 0,
        engine: Optional[str] = None,
    ) -> "SweepTask":
        """Build a task from a plain parameter dict."""
        items = tuple(sorted((params or {}).items()))
        return SweepTask(
            workload=workload,
            params=items,
            epsilon=epsilon,
            source=source,
            verify=verify,
            seed=seed,
            engine=engine,
        )


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one sweep point.

    Invariant: ``num_edges == num_backup + num_reinforced`` — the backup
    and reinforced sets partition the structure's edges, so ``num_edges``
    is pure reporting convenience, never independent information
    (documented here, asserted in ``tests/test_parallel.py``).
    """

    task: SweepTask
    n: int
    m: int
    num_edges: int
    num_backup: int
    num_reinforced: int
    verified: Optional[bool]
    elapsed_seconds: float


def _execute(task: SweepTask) -> SweepOutcome:
    """Worker body: rebuild the workload, construct, optionally verify."""
    # Imports stay inside the worker so the module pickles minimally.
    from repro.core import build_epsilon_ftbfs, verify_structure
    from repro.core.construct import ConstructOptions
    from repro.engine import engine_context
    from repro.harness.workloads import workload as make_workload

    start = time.perf_counter()
    graph, default_source = make_workload(task.workload, **dict(task.params))
    source = task.source if task.source is not None else default_source
    with engine_context(task.engine):
        structure = build_epsilon_ftbfs(
            graph,
            source,
            task.epsilon,
            options=ConstructOptions(seed=task.seed),
        )
        verified: Optional[bool] = None
        if task.verify:
            verified = verify_structure(structure).ok
    return SweepOutcome(
        task=task,
        n=graph.num_vertices,
        m=graph.num_edges,
        num_edges=structure.num_edges,
        num_backup=structure.num_backup,
        num_reinforced=structure.num_reinforced,
        verified=verified,
        elapsed_seconds=time.perf_counter() - start,
    )


def _sweep_stage(payload: Mapping[str, Any]) -> SweepOutcome:
    """Stage adapter: run one :class:`SweepTask` shipped in the payload."""
    return _execute(payload["task"])


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


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    max_workers: Optional[int] = None,
) -> List[SweepOutcome]:
    """Run sweep points, in-process when ``max_workers`` resolves to 1,
    else over a process pool (None/0 = auto).  Results come back in task
    order regardless of completion order, making parallel runs
    bit-identical to serial ones (asserted in the tests).
    """
    stage_tasks = [
        StageTask(func="repro.harness.parallel:_sweep_stage", payload={"task": t})
        for t in tasks
    ]
    results: List[Optional[SweepOutcome]] = [None] * len(tasks)
    for index, outcome, _elapsed in run_stage_tasks(
        stage_tasks, max_workers=max_workers
    ):
        results[index] = outcome
    missing = [i for i, outcome in enumerate(results) if outcome is None]
    if missing:  # 1:1 task-to-outcome is part of the contract
        raise ExperimentError(f"sweep tasks {missing} produced no outcome")
    return results
