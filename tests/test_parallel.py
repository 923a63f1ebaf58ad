"""Tests for the parallel stage-task layer."""

import pytest

from repro.errors import ExperimentError
from repro.harness import StageTask, default_worker_count, run_stage_tasks
from repro.harness.pipeline.stages import probe


class TestStageTasks:
    def test_serial_results_tagged_with_index(self):
        tasks = [
            StageTask(
                func=probe,
                payload={"workload": "grid", "params": {"side": 4}, "label": str(i)},
            )
            for i in range(3)
        ]
        results = sorted(run_stage_tasks(tasks, max_workers=1))
        assert [index for index, _ in results] == [0, 1, 2]
        for index, result in results:
            assert result["rows"][0][0] == str(index)

    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        tasks = [
            StageTask(
                func=probe,
                payload={"workload": "gnp", "params": {"n": 30, "seed": s}},
            )
            for s in range(4)
        ]
        serial = dict(run_stage_tasks(tasks, max_workers=1))
        parallel = dict(run_stage_tasks(tasks, max_workers=2))
        assert serial == parallel

    def test_empty(self):
        assert list(run_stage_tasks([], max_workers=2)) == []

    def test_negative_workers_rejected(self):
        task = StageTask(
            func=probe,
            payload={"workload": "grid", "params": {"side": 3}},
        )
        with pytest.raises(ExperimentError):
            list(run_stage_tasks([task], max_workers=-1))

    def test_worker_exception_propagates(self):
        tasks = [
            StageTask(
                func=probe,
                payload={"workload": "nope"},
            )
        ]
        with pytest.raises(ExperimentError):
            list(run_stage_tasks(tasks, max_workers=1))


class TestWorkerCount:
    def test_zero_workers_means_auto(self, monkeypatch):
        """`--jobs 0` is documented as auto: 0 must resolve to all cores
        but one (at least 1), not to the serial path."""
        from repro.harness.parallel import _resolve_workers

        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert _resolve_workers(0) == 5
        assert _resolve_workers(None) == 5
        assert _resolve_workers(2) == 2
        for cpus in (1, None):
            monkeypatch.setattr("os.cpu_count", lambda: cpus)
            assert _resolve_workers(0) == 1


class TestParallelExecution:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1
