"""Tests for the experiment harness: records, workloads, registry."""

import json

import pytest

from repro.errors import ExperimentError
from repro.graphs import is_connected
from repro.harness import (
    EXPERIMENTS,
    ExperimentRecord,
    experiment_ids,
    run_experiment,
    save_record,
    workload,
    workload_names,
)


class TestRecords:
    def test_add_row_and_render(self):
        rec = ExperimentRecord("EX", "demo", columns=["a", "b"])
        rec.add_row(1, 2)
        rec.note("a note")
        text = rec.render()
        assert "EX" in text and "a note" in text

    def test_row_width_checked(self):
        rec = ExperimentRecord("EX", "demo", columns=["a"])
        with pytest.raises(ValueError):
            rec.add_row(1, 2)

    def test_json_roundtrip(self, tmp_path):
        rec = ExperimentRecord("EX", "demo", columns=["a"])
        rec.add_row(1)
        rec.derived["k"] = 2.5
        path = save_record(rec, base=str(tmp_path))
        assert path == tmp_path / "EX.json"
        loaded = json.loads(path.read_text())
        assert loaded["rows"] == [[1]]
        assert loaded["derived"]["k"] == 2.5
        assert (tmp_path / "EX.txt").exists()

    def test_to_json_valid(self):
        rec = ExperimentRecord("EX", "demo", columns=["a"])
        rec.add_row(1)
        parsed = json.loads(rec.to_json())
        assert parsed["experiment_id"] == "EX"


class TestWorkloads:
    def test_names_sorted(self):
        names = workload_names()
        assert names == sorted(names)
        assert "gnp" in names and "lb51" in names

    @pytest.mark.parametrize("name", ["gnp", "sparse", "grid", "lollipop", "clique_bridge"])
    def test_workloads_connected(self, name):
        g, source = workload(name, n=60, seed=1)
        assert is_connected(g)
        assert 0 <= source < g.num_vertices

    def test_lb_workloads(self):
        g, source = workload("lb51", n=200, eps=0.3)
        assert g.num_vertices > 50
        g2, s2 = workload("lb_deep", d=8, k=2, x=3)
        assert is_connected(g2)

    def test_unknown_workload(self):
        with pytest.raises(ExperimentError):
            workload("nope")

    def test_workload_determinism(self):
        a, _ = workload("gnp", n=50, seed=3)
        b, _ = workload("gnp", n=50, seed=3)
        assert a == b


class TestRegistry:
    def test_ids_ordered(self):
        ids = experiment_ids()
        assert ids[0] == "E1"
        assert len(ids) == len(EXPERIMENTS) == 15

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("E99")

    def test_case_insensitive(self):
        rec = run_experiment("e2", quick=True)
        assert rec.experiment_id == "E2"
        assert rec.elapsed_seconds > 0


class TestQuickExperiments:
    """Every experiment must run in quick mode and produce sane rows."""

    @pytest.mark.parametrize("eid", ["E2", "E5", "E8", "E10", "E12", "E13"])
    def test_runs_with_rows(self, eid):
        rec = run_experiment(eid, quick=True)
        assert rec.rows, f"{eid} produced no rows"
        for row in rec.rows:
            assert len(row) == len(rec.columns)

    @pytest.mark.slow
    @pytest.mark.parametrize("eid", ["E1", "E3", "E4", "E6", "E7", "E9", "E11"])
    def test_heavier_experiments(self, eid):
        rec = run_experiment(eid, quick=True)
        assert rec.rows

    def test_e3_exponent_close(self):
        rec = run_experiment("E3", quick=True)
        for key, value in rec.derived.items():
            if key.startswith("exponent_eps_"):
                eps = float(key.rsplit("_", 1)[1])
                assert abs(value - (1 + eps)) < 0.45

    def test_e10_within_bound(self):
        rec = run_experiment("E10", quick=True)
        col = rec.columns.index("within_bound")
        assert all(row[col] for row in rec.rows)
