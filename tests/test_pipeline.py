"""Tests for the scenario-pipeline subsystem.

Covers the spec registry, the runner's parallel/serial bit-identity
contract, JSONL streaming, and resume-from-cache after a simulated
mid-run kill.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.harness import run_experiment
from repro.harness.parallel import resolve_stage
from repro.harness.pipeline import (
    SPECS,
    PipelineRunner,
    ScenarioSpec,
    get_spec,
    mask_timing,
    spec_ids,
)
from repro.harness.pipeline.cache import (
    compact_points,
    load_points,
    points_path,
    stage_fingerprint,
)


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
            assert callable(resolve_stage(spec.measure))

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
            json.dumps(a)  # payloads must survive the JSONL stream


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
# streaming + resume
# ----------------------------------------------------------------------
def _probe_spec(tmp_path, num_points=5) -> ScenarioSpec:
    """A cheap deterministic spec over the probe stage.

    Every executed point appends a marker line to ``touched.log``, so
    tests can count which points actually ran in which process.
    """
    touch = str(tmp_path / "touched.log")

    def grid(quick, seed):
        return [
            {
                "workload": "grid",
                "params": {"side": 3 + i},
                "label": f"p{i}",
                "touch_path": touch,
            }
            for i in range(num_points)
        ]

    return ScenarioSpec(
        experiment_id="EPROBE",
        title="probe points",
        description="pipeline self-test",
        columns=("label", "n", "m", "ecc", "reachable"),
        grid=grid,
        measure="repro.harness.pipeline.stages:probe",
    )


def _touched(tmp_path):
    path = tmp_path / "touched.log"
    return path.read_text().splitlines() if path.exists() else []


class TestStreamingAndResume:
    def test_stream_written_per_point(self, tmp_path):
        spec = _probe_spec(tmp_path)
        runner = PipelineRunner(jobs=1, cache_dir=tmp_path)
        record = runner.run(spec, quick=True)
        assert record.params == {
            "quick": True, "seed": 0, "points": 5, "executed": 5, "cached": 0,
        }
        entries = load_points(points_path(tmp_path, "EPROBE"))
        assert len(entries) == 5
        for entry in entries.values():
            assert entry["result"]["rows"]
            assert entry["elapsed"] >= 0

    def test_full_rerun_hits_cache(self, tmp_path):
        spec = _probe_spec(tmp_path)
        runner = PipelineRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run(spec, quick=True)
        second = runner.run(spec, quick=True)
        assert second.params["cached"] == 5 and second.params["executed"] == 0
        assert first.rows == second.rows
        assert len(_touched(tmp_path)) == 5  # nothing re-executed

    def test_resume_after_simulated_kill(self, tmp_path):
        """Kill mid-run (truncated JSONL + a half-written line), rerun,
        and the final record is identical with only the lost points
        re-measured."""
        spec = _probe_spec(tmp_path)
        runner = PipelineRunner(jobs=1, cache_dir=tmp_path)
        reference = runner.run(spec, quick=True)
        stream = points_path(tmp_path, "EPROBE")
        lines = stream.read_text().splitlines()
        assert len(lines) == 5
        # keep 2 finished points and simulate a kill mid-write of the 3rd
        stream.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        (tmp_path / "touched.log").unlink()

        resumed = PipelineRunner(jobs=1, cache_dir=tmp_path).run(spec, quick=True)
        assert resumed.params["cached"] == 2 and resumed.params["executed"] == 3
        assert len(_touched(tmp_path)) == 3
        assert resumed.rows == reference.rows
        assert resumed.columns == reference.columns
        assert resumed.notes == reference.notes
        assert resumed.derived == reference.derived

    @pytest.mark.slow
    def test_resume_with_parallel_jobs(self, tmp_path):
        spec = _probe_spec(tmp_path)
        reference = PipelineRunner(jobs=1, cache_dir=tmp_path).run(spec, quick=True)
        stream = points_path(tmp_path, "EPROBE")
        stream.write_text("\n".join(stream.read_text().splitlines()[:1]) + "\n")
        resumed = PipelineRunner(jobs=2, cache_dir=tmp_path).run(spec, quick=True)
        assert resumed.params["executed"] == 4
        assert resumed.rows == reference.rows

    def test_fresh_discards_cache(self, tmp_path):
        spec = _probe_spec(tmp_path)
        PipelineRunner(jobs=1, cache_dir=tmp_path).run(spec, quick=True)
        record = PipelineRunner(jobs=1, cache_dir=tmp_path, fresh=True).run(
            spec, quick=True
        )
        assert record.params["executed"] == 5
        assert len(_touched(tmp_path)) == 10

    def test_seed_changes_invalidate_points(self, tmp_path):
        spec = _probe_spec(tmp_path)
        runner = PipelineRunner(jobs=1, cache_dir=tmp_path)
        runner.run(spec, quick=True, seed=0)
        record = runner.run(spec, quick=True, seed=1)
        assert record.params["executed"] == 5  # different key -> re-measured

    def test_no_cache_dir_means_no_stream(self, tmp_path):
        spec = _probe_spec(tmp_path)
        PipelineRunner(jobs=1).run(spec, quick=True)
        assert not points_path(tmp_path, "EPROBE").exists()

    def test_compaction_drops_superseded_generations(self, tmp_path):
        """Dead lines (stale fingerprints, duplicate keys, corruption)
        are atomically rewritten away on load instead of accumulating
        until --fresh."""
        import json as _json

        spec = _probe_spec(tmp_path)
        runner = PipelineRunner(jobs=1, cache_dir=tmp_path)
        reference = runner.run(spec, quick=True)
        stream = points_path(tmp_path, "EPROBE")
        lines = stream.read_text().splitlines()
        assert len(lines) == 5
        # Simulate an accumulated stream: a stale-fingerprint generation,
        # a superseded duplicate of a live key, and a truncated line.
        stale = _json.loads(lines[0])
        stale["key"] = "deadbeef" * 2 + "dead"
        stale["fingerprint"] = "0ld0ld0ld0ld"
        duplicate = lines[1]
        stream.write_text(
            "\n".join([_json.dumps(stale), duplicate, *lines, lines[2][:30]])
            + "\n"
        )
        resumed = PipelineRunner(jobs=1, cache_dir=tmp_path).run(spec, quick=True)
        assert resumed.params["cached"] == 5 and resumed.params["executed"] == 0
        assert resumed.rows == reference.rows
        kept = stream.read_text().splitlines()
        assert len(kept) == 5  # one live line per point, nothing else
        assert all(
            _json.loads(line)["fingerprint"] == stage_fingerprint(spec)
            for line in kept
        )

    def test_compaction_keeps_other_seeds_and_engines(self, tmp_path):
        """Lines for other (seed, engine, quick) configurations share the
        fingerprint and are still-reachable generations - never dropped."""
        spec = _probe_spec(tmp_path)
        runner = PipelineRunner(jobs=1, cache_dir=tmp_path)
        runner.run(spec, quick=True, seed=0)
        runner.run(spec, quick=True, seed=1)
        # A third run at seed 0 compacts on load; the seed-1 generation
        # must survive and both seeds must resume fully cached.
        a = runner.run(spec, quick=True, seed=0)
        b = runner.run(spec, quick=True, seed=1)
        assert a.params["cached"] == 5 and a.params["executed"] == 0
        assert b.params["cached"] == 5 and b.params["executed"] == 0
        stream = points_path(tmp_path, "EPROBE")
        assert len(stream.read_text().splitlines()) == 10

    def test_compaction_skipped_while_another_run_appends(self, tmp_path):
        """An appender's shared lock must block compaction: replacing
        the inode under a live append handle would orphan its points."""
        import json as _json

        fcntl = pytest.importorskip("fcntl")
        from repro.harness.pipeline.cache import open_append_stream

        spec = _probe_spec(tmp_path)
        PipelineRunner(jobs=1, cache_dir=tmp_path).run(spec, quick=True)
        stream = points_path(tmp_path, "EPROBE")
        lines = stream.read_text().splitlines()
        stream.write_text("\n".join([lines[0], *lines]) + "\n")  # dead dup

        writer = open_append_stream(stream)  # simulates a concurrent run
        try:
            entries = compact_points(
                stream, fingerprint=stage_fingerprint(spec)
            )
            assert len(entries) == 5  # loaded fine...
            assert len(stream.read_text().splitlines()) == 6  # ...no rewrite
            writer.write(_json.dumps({"probe": True}) + "\n")
            writer.flush()
        finally:
            writer.close()
        # with the appender gone, the next load compacts (dup + probe line)
        entries = compact_points(stream, fingerprint=stage_fingerprint(spec))
        assert len(entries) == 5
        assert len(stream.read_text().splitlines()) == 5

    def test_compaction_noop_leaves_stream_untouched(self, tmp_path):
        spec = _probe_spec(tmp_path)
        PipelineRunner(jobs=1, cache_dir=tmp_path).run(spec, quick=True)
        stream = points_path(tmp_path, "EPROBE")
        before = stream.stat().st_mtime_ns
        entries = compact_points(stream, fingerprint=stage_fingerprint(spec))
        assert len(entries) == 5
        assert stream.stat().st_mtime_ns == before  # no rewrite happened

    def test_measure_code_fingerprint_busts_cache(self, tmp_path):
        """Cache keys hash the measure stage's source: a code edit must
        invalidate cached points instead of replaying stale rows."""
        from repro.harness.pipeline.cache import point_key, stage_fingerprint

        spec = _probe_spec(tmp_path)
        payload = spec.grid(True, 0)[0]
        assert stage_fingerprint(spec)  # probe source is readable
        a = point_key(spec, payload, quick=True, seed=0, engine=None,
                      fingerprint="deadbeef")
        b = point_key(spec, payload, quick=True, seed=0, engine=None,
                      fingerprint="cafebabe")
        assert a != b


# ----------------------------------------------------------------------
# run_experiment facade
# ----------------------------------------------------------------------
class TestRunExperiment:
    def test_unknown_id(self):
        with pytest.raises(ExperimentError):
            run_experiment("E99")

    def test_cache_dir_roundtrip(self, tmp_path):
        a = run_experiment("E2", quick=True, cache_dir=tmp_path)
        b = run_experiment("E2", quick=True, cache_dir=tmp_path, jobs=2)
        assert b.params["cached"] == b.params["points"]
        assert a.rows == b.rows
