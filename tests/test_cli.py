"""Tests for the CLI entry points."""

import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])

    def test_version(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage" in out.lower()


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "gnp" in out

    def test_lists_descriptions(self, capsys):
        from repro.harness import SPECS

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for spec in SPECS.values():
            assert spec.description in out


class TestEngines:
    def test_lists_engines_with_default(self, capsys):
        from repro.engine import available_engines

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "(default)" in out
        assert "weighted_backend:" in out  # per-engine weighted capability line
        assert "replacement:" in out  # weighted-failure-sweep backend
        assert "detours:" in out  # batched multi-source backend
        assert "threads:" not in out  # no engine runs its own threads
        assert "transport:" not in out and "segments:" not in out
        # One header line per engine (detail lines are indented deeper):
        # python and, with numpy, csr - nothing retired comes back.
        listed = [
            line.split()[0]
            for line in out.splitlines()
            if line.startswith("  ") and not line.startswith("   ")
        ]
        assert listed == available_engines()
        assert set(listed) <= {"python", "csr"}
        if "csr" in available_engines():
            assert "csr" in out
            # compiled vs inherited-numpy is resolved live, not hardcoded
            assert (
                "weighted_backend: compiled C levels" in out
                or "weighted_backend: inherited numpy" in out
            )

    def test_build_with_engine_flag(self, capsys):
        from repro.engine import available_engines

        engines = [e for e in ("python", "csr") if e in available_engines()]
        for engine in engines:
            rc = main(
                ["build", "--workload", "gnp", "--n", "40",
                 "--epsilon", "0.3", "--engine", engine]
            )
            assert rc == 0
            assert "verified: True" in capsys.readouterr().out

    def test_engine_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "--engine", "fpga"])

    def test_engine_flag_resets_default(self):
        from repro.engine import get_engine

        before = get_engine().name
        assert main(["build", "--workload", "grid", "--no-verify",
                     "--engine", "python"]) == 0
        assert get_engine().name == before


class TestQuickstart:
    def test_runs(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out


class TestBuild:
    def test_build_and_verify(self, capsys):
        rc = main(["build", "--workload", "gnp", "--n", "40", "--epsilon", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified: True" in out

    def test_build_no_verify(self, capsys):
        rc = main(["build", "--workload", "grid", "--no-verify"])
        assert rc == 0
        assert "verified" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--epsilon", "2"], "epsilon must lie in [0, 1], got 2.0"),
            (["--n", "-5"], "num_vertices must be non-negative, got -5"),
            (["--n", "-5", "--save", "never.snap"],
             "num_vertices must be non-negative, got -5"),
        ],
        ids=["epsilon-out-of-range", "negative-n", "negative-n-save"],
    )
    def test_bad_arguments_are_a_clean_error(self, capsys, monkeypatch,
                                             tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(["build", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "never.snap").exists()


@pytest.fixture
def snapshot_file(tmp_path):
    path = tmp_path / "oracle.snap"
    assert main(["build", "--workload", "gnp", "--n", "60",
                 "--seed", "1", "--save", str(path)]) == 0
    assert path.exists()
    return path


class TestOracleCLI:
    def test_build_save_reports_snapshot(self, capsys, tmp_path):
        path = tmp_path / "s.snap"
        rc = main(["build", "--workload", "gnp", "--n", "50",
                   "--save", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "snapshot ->" in out and "replacement rows" in out
        assert path.exists()

    def test_build_save_retries_a_tie_in_the_replacement_sweep(
        self, tmp_path, monkeypatch
    ):
        """A tie in the sweep that ``save_structure`` runs reseeds like
        one in the SPT: the file equals a direct save at the next seed."""
        from repro.errors import TieBreakError
        from repro.harness.workloads import workload
        from repro.oracle import save_structure
        from repro.spt.replacement import ReplacementEngine
        from repro.spt.spt_tree import build_spt
        from repro.spt.weights import make_weights

        graph, source = workload("gnp", n=50, seed=3)
        expected = tmp_path / "expected.snap"
        save_structure(
            expected, build_spt(graph, make_weights(graph, "random", 4), source)
        )
        real_init = ReplacementEngine.__init__
        armed = [True]

        def tie_once(self, *args, **kwargs):
            if armed:
                armed.pop()
                raise TieBreakError("injected tie")
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(ReplacementEngine, "__init__", tie_once)
        path = tmp_path / "s.snap"
        assert main(["build", "--workload", "gnp", "--n", "50",
                     "--seed", "3", "--save", str(path)]) == 0
        assert not armed
        assert path.read_bytes() == expected.read_bytes()

    def test_query_check_passes(self, capsys, snapshot_file):
        rc = main(["query", str(snapshot_file), "--sample", "6", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check: ok" in out

    def test_query_with_failures_and_path(self, capsys, snapshot_file):
        rc = main(["query", str(snapshot_file), "--target", "7",
                   "--failed", "0,3", "--path", "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "v=7" in out and "path:" in out and "check: ok" in out

    def test_query_check_passes_under_nested_tree_failures(
        self, capsys, snapshot_file
    ):
        """Two failed tree edges, one under the other: the targets inside
        their subtrees read the fallback traversal, and ``--check``
        compares every vertex's answer with a fresh traversal."""
        from repro.oracle import load_structure

        structure = load_structure(snapshot_file, mapped=False)
        n = structure.num_vertices
        parent = structure.arrays["tree_parent"]
        parent_eid = structure.arrays["tree_parent_eid"]
        v = next(
            u for u in range(n)
            if parent_eid[u] >= 0 and parent_eid[parent[u]] >= 0
        )
        failed = f"{parent_eid[parent[v]]},{parent_eid[v]}"
        structure.close()
        rc = main(["query", str(snapshot_file), "--failed", failed,
                   "--sample", str(n), "--check"])
        assert rc == 0
        assert f"check: ok ({n} answers" in capsys.readouterr().out

    def test_query_missing_snapshot_fails_cleanly(self, capsys, tmp_path):
        rc = main(["query", str(tmp_path / "missing.snap")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_query_failed_rejects_non_integer_before_loading(
        self, capsys, tmp_path
    ):
        # The snapshot does not exist: argparse must reject first.
        with pytest.raises(SystemExit) as exc:
            main(["query", str(tmp_path / "missing.snap"), "--failed", "3,x"])
        assert exc.value.code == 2
        assert "argument --failed" in capsys.readouterr().err

    def test_query_failed_out_of_range_is_a_clean_error(
        self, capsys, snapshot_file
    ):
        rc = main(["query", str(snapshot_file), "--failed=-1"])
        assert rc == 1
        assert "error: edge id -1 out of range [0, " in capsys.readouterr().err

    def test_query_failed_skips_blank_parts(self):
        parse = build_parser().parse_args
        assert parse(["query", "s.snap", "--failed", "3, 4,"]).failed == [3, 4]
        assert parse(["query", "s.snap"]).failed == []

    def test_query_engine_flag_resets_default(self, snapshot_file):
        from repro.engine import get_engine

        before = get_engine().name
        assert main(["query", str(snapshot_file), "--sample", "3",
                     "--check", "--engine", "python"]) == 0
        assert get_engine().name == before

    def test_query_engine_env_var_precedence(self, snapshot_file, monkeypatch):
        """The --engine flag beats $REPRO_ENGINE, matching the chain
        pinned for the other subcommands."""
        monkeypatch.setenv("REPRO_ENGINE", "nonexistent-engine")
        assert main(["query", str(snapshot_file), "--sample", "3",
                     "--check", "--engine", "python"]) == 0

    def test_serve_inline_protocol(self, capsys, snapshot_file, monkeypatch):
        requests = [
            {"op": "ping"},
            {"op": "dist", "v": 5},
            {"op": "shutdown"},
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("\n".join(json.dumps(r) for r in requests))
        )
        capsys.readouterr()  # drop the fixture's build output
        rc = main(["serve", str(snapshot_file)])
        assert rc == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[1]["op"] == "dist"
        assert "served 3 requests" in captured.err

    def test_serve_missing_snapshot_fails_cleanly(self, capsys, tmp_path):
        rc = main(["serve", str(tmp_path / "missing.snap")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_single(self, capsys):
        rc = main(["run", "E2", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[E2]" in out and "elapsed" in out

    def test_run_save(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "E2", "--quick", "--save"])
        assert rc == 0
        assert (tmp_path / "bench_artifacts" / "E2.json").exists()
        assert (tmp_path / "bench_artifacts" / "E2.points.jsonl").exists()

    def test_run_jobs_parallel(self, capsys):
        rc = main(["run", "E2", "--quick", "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[E2]" in out and "points" in out

    def test_run_save_resumes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "E2", "--quick", "--save"]) == 0
        capsys.readouterr()
        assert main(["run", "E2", "--quick", "--save"]) == 0
        assert "2 cached" in capsys.readouterr().out

    def test_run_fresh_ignores_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "E2", "--quick", "--save"]) == 0
        capsys.readouterr()
        assert main(["run", "E2", "--quick", "--save", "--fresh"]) == 0
        assert "cached" not in capsys.readouterr().out

    def test_run_unknown_id_fails_before_running_anything(self, capsys):
        """An unknown id (E14 is retired) is a clean error, reported
        before E2 runs: nothing on stdout, the available ids on stderr."""
        assert main(["run", "E2", "E14", "--quick"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unknown experiment 'E14'" in captured.err
        assert "E13, E15, E16" in captured.err
