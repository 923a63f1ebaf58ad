"""Tests for the parallel stage-task layer."""

import pytest

from repro.errors import ExperimentError
from repro.harness import StageTask, default_worker_count, run_stage_tasks
from repro.harness.parallel import resolve_stage


class TestStageTasks:
    def test_resolve_stage(self):
        fn = resolve_stage("repro.harness.pipeline.stages:probe")
        assert callable(fn)

    @pytest.mark.parametrize(
        "ref", ["noseparator", "repro.harness:not_there", "nosuchmodule:fn"]
    )
    def test_resolve_stage_rejects_bad_refs(self, ref):
        with pytest.raises(ExperimentError):
            resolve_stage(ref)

    def test_serial_results_tagged_with_index(self):
        tasks = [
            StageTask(
                func="repro.harness.pipeline.stages:probe",
                payload={"workload": "grid", "params": {"side": 4}, "label": str(i)},
            )
            for i in range(3)
        ]
        results = sorted(run_stage_tasks(tasks, max_workers=1))
        assert [index for index, _, _ in results] == [0, 1, 2]
        for index, result, elapsed in results:
            assert result["rows"][0][0] == str(index)
            assert elapsed >= 0

    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        tasks = [
            StageTask(
                func="repro.harness.pipeline.stages:probe",
                payload={"workload": "gnp", "params": {"n": 30, "seed": s}},
            )
            for s in range(4)
        ]
        serial = {i: r for i, r, _ in run_stage_tasks(tasks, max_workers=1)}
        parallel = {i: r for i, r, _ in run_stage_tasks(tasks, max_workers=2)}
        assert serial == parallel

    def test_empty(self):
        assert list(run_stage_tasks([], max_workers=2)) == []

    def test_negative_workers_rejected(self):
        task = StageTask(
            func="repro.harness.pipeline.stages:probe",
            payload={"workload": "grid", "params": {"side": 3}},
        )
        with pytest.raises(ExperimentError):
            list(run_stage_tasks([task], max_workers=-1))

    def test_worker_exception_propagates(self):
        tasks = [
            StageTask(
                func="repro.harness.pipeline.stages:probe",
                payload={"workload": "nope"},
            )
        ]
        with pytest.raises(ExperimentError):
            list(run_stage_tasks(tasks, max_workers=1))


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert default_worker_count() == 3

    def test_env_override_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert default_worker_count() == 1

    def test_env_override_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "many")
        with pytest.raises(ExperimentError):
            default_worker_count()

    def test_zero_workers_means_auto(self, monkeypatch):
        """`--jobs 0` is documented as auto: 0 must resolve to the
        default worker count, not to the serial path."""
        from repro.harness.parallel import _resolve_workers

        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert _resolve_workers(0) == 5
        assert _resolve_workers(None) == 5
        assert _resolve_workers(2) == 2


class TestParallelExecution:
    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1
