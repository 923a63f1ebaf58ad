"""Tests for the scenario-pipeline subsystem.

Covers the spec registry, the runner's parallel/serial bit-identity
contract, and that every run measures every point.
"""

import json
import pickle

import pytest

from repro.errors import ExperimentError
from repro.harness import run_experiment
from repro.harness.pipeline import (
    SPECS,
    PipelineRunner,
    ScenarioSpec,
    get_spec,
    mask_timing,
    spec_ids,
)
from repro.harness.pipeline.stages import probe


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_fifteen_specs(self):
        # E14 is retired; its id stays a gap rather than being reused.
        assert len(SPECS) == 15
        assert spec_ids() == [f"E{i}" for i in range(1, 17) if i != 14]

    def test_specs_well_formed(self):
        for eid, spec in SPECS.items():
            assert spec.experiment_id == eid
            assert spec.description
            assert spec.columns
            assert set(spec.timing_columns) <= set(spec.columns)
            # module-level, so it pickles by name into worker processes
            assert pickle.loads(pickle.dumps(spec.measure)) is spec.measure

    def test_get_spec_case_insensitive(self):
        assert get_spec("e3") is SPECS["E3"]

    def test_unknown_spec(self):
        with pytest.raises(ExperimentError):
            get_spec("E99")

    def test_grids_are_jsonable_and_deterministic(self):
        for spec in SPECS.values():
            a = spec.grid(True, 0)
            b = spec.grid(True, 0)
            assert a == b and a, spec.experiment_id
            json.dumps(a)  # payloads are plain JSON-able dicts


# ----------------------------------------------------------------------
# parallel == serial
# ----------------------------------------------------------------------
class TestJobsBitIdentity:
    @pytest.mark.parametrize("eid", ["E2", "E13"])
    def test_jobs_2_matches_jobs_1(self, eid):
        spec = get_spec(eid)
        serial = run_experiment(eid, quick=True, jobs=1)
        parallel = run_experiment(eid, quick=True, jobs=2)
        assert mask_timing(spec, serial.rows) == mask_timing(spec, parallel.rows)
        assert serial.columns == parallel.columns
        assert serial.notes == parallel.notes
        assert serial.derived == parallel.derived

    @pytest.mark.slow
    def test_aggregate_experiment_matches(self):
        # E5's rows are synthesized by the aggregate stage from point facts.
        serial = run_experiment("E5", quick=True, jobs=1)
        parallel = run_experiment("E5", quick=True, jobs=2)
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 3  # one per quick R/B ratio


# ----------------------------------------------------------------------
# every run measures every point
# ----------------------------------------------------------------------
class TestRerun:
    def test_rerun_executes_every_point(self):
        calls = []

        def counting_probe(payload):
            calls.append(payload["label"])
            return probe(payload)

        spec = ScenarioSpec(
            experiment_id="EPROBE",
            title="probe points",
            description="pipeline self-test",
            columns=("label", "n", "m", "ecc", "reachable"),
            grid=lambda quick, seed: [
                {"workload": "grid", "params": {"side": 3 + i}, "label": f"p{i}"}
                for i in range(5)
            ],
            measure=counting_probe,
        )
        runner = PipelineRunner(jobs=1)
        first = runner.run(spec, quick=True)
        second = runner.run(spec, quick=True)
        assert calls == [f"p{i}" for i in range(5)] * 2
        assert first.params == {"quick": True, "seed": 0, "points": 5}
        assert second.params == first.params
        assert second.rows == first.rows


# ----------------------------------------------------------------------
# run_experiment facade
# ----------------------------------------------------------------------
class TestRunExperiment:
    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            run_experiment("E99")
