"""Scenario-pipeline benchmark: parallel speedup.

Measures what the PR 2 refactor is for: the same experiment executed by
the shared ``PipelineRunner`` with ``jobs=1`` vs ``jobs=N`` (identical
rows, lower wall-clock).  Saves ``BENCH_pipeline.json`` with the
measured timings so speedups are traceable artifacts, not claims.

Quick mode (``REPRO_BENCH_QUICK=1``) keeps CI honest but short: grids
are small there, so the parallel run is only asserted to *work* and
match; the speedup assertion applies to full runs on actual multi-core
hardware (a single-core box can only timeslice — fanout is correct but
cannot beat serial wall-clock there, so the assertion is skipped).
"""

import os
import time

from repro.harness import ExperimentRecord, default_worker_count, save_record
from repro.harness.pipeline import PipelineRunner, get_spec, mask_timing


def _jobs() -> int:
    return max(2, min(4, default_worker_count()))


def test_pipeline_parallel_speedup(benchmark, quick_mode, bench_seed):
    """E1 (the headline tradeoff) under jobs=1 vs jobs=N: same rows, less wall.

    E1's grid is the parallelism showcase: ~20 comparably sized
    (workload, eps) points, so fanout wins nearly linearly — unlike
    E13, whose wall-clock is dominated by its single largest point.
    """
    spec = get_spec("E1")
    runner_serial = PipelineRunner(jobs=1)
    runner_parallel = PipelineRunner(jobs=_jobs())

    t0 = time.perf_counter()
    serial = runner_serial.run(spec, quick=quick_mode, seed=bench_seed)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        runner_parallel.run,
        args=(spec,),
        kwargs={"quick": quick_mode, "seed": bench_seed},
        rounds=1,
        iterations=1,
    )
    t_parallel = time.perf_counter() - t0

    assert mask_timing(spec, serial.rows) == mask_timing(spec, parallel.rows)
    speedup = t_serial / max(t_parallel, 1e-9)

    record = ExperimentRecord(
        experiment_id="BENCH_pipeline",
        title="Scenario pipeline: jobs=1 vs jobs=N wall-clock",
        columns=["experiment", "points", "jobs", "t_serial_s", "t_parallel_s", "speedup"],
    )
    record.add_row(
        "E1", len(spec.grid(quick_mode, bench_seed)), _jobs(),
        round(t_serial, 3), round(t_parallel, 3), round(speedup, 2),
    )
    record.note("rows are bit-identical across jobs (timing columns masked)")
    print()
    print(record.render())
    save_record(record)
    if not quick_mode and (os.cpu_count() or 1) > 1:
        # Full-mode points are seconds each; with real cores to fan out
        # over, parallel execution must win.
        assert speedup > 1.2, f"parallel pipeline too slow: {speedup:.2f}x"
