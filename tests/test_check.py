"""The repo-invariant analyzer (``tools.check``) against its fixtures.

Each seeded ``tests/fixtures/check/*_bad`` tree must be flagged by
exactly its pass (and nothing else), the ``clean`` tree must come back
empty from every pass, the allowlist must suppress keyed violations,
and the CLI exit codes must hold.  Finally: the repo's own source tree
must be clean under the committed allowlist - the same gate CI runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives next to src/, not inside it
    sys.path.insert(0, str(REPO_ROOT))

from tools.check import Violation, load_allowlist, main, run_passes  # noqa: E402
from tools.check.runtime import (  # noqa: E402
    _check_names,
    check_serve_log,
)

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "check"


def _keys(violations):
    return sorted(v.key for v in violations)


class TestFixtures:
    def test_clean_tree_is_clean(self):
        violations, notes = run_passes(FIXTURES / "clean")
        assert violations == []
        assert len(notes) == 5  # every pass actually ran

    def test_boundary_pass_flags_exactly_its_fixture(self):
        violations, _ = run_passes(FIXTURES / "boundary_bad")
        assert _keys(violations) == ["CHK001 app.py::<module>:myproj.engine.csr"]
        (violation,) = violations
        assert violation.line == 3
        assert "myproj.engine.csr" in violation.message

    def test_numpy_pass_flags_exactly_its_fixture(self):
        violations, _ = run_passes(FIXTURES / "numpy_bad")
        assert _keys(violations) == ["CHK002 util.py::<module>"]
        assert violations[0].line == 3

    def test_env_pass_flags_all_three_directions(self):
        violations, _ = run_passes(FIXTURES / "env_bad")
        assert _keys(violations) == [
            "CHK003 cli.py::REPRO_GHOST",       # documented, never read
            "CHK003 worker.py::REPRO_WIDGET",   # read, not in the help table
            "CHK003 worker.py::REPRO_WIDGET@README",  # read, not in README
        ]

    def test_pickle_pass_flags_both_bug_shapes(self):
        violations, _ = run_passes(FIXTURES / "pickle_bad")
        assert _keys(violations) == [
            "CHK005 model.py::Graph",                # boundary class, no pickle methods
            "CHK005 model.py::Payload._blob_cache",  # getstate ignores the cache
        ]

    def test_abi_pass_flags_all_four_drift_kinds(self):
        violations, _ = run_passes(FIXTURES / "abi_bad")
        assert _keys(violations) == [
            "CHK006 engine/_ckernels.c::repro_orphan",   # exported, unbound
            "CHK006 engine/cbuild.py::repro_bfs_order",  # arity drift
            "CHK006 engine/cbuild.py::repro_ghost",      # bound, not exported
            "CHK006 engine/cbuild.py::repro_kinds[0]",   # kind drift
        ]

    def test_pass_filter_restricts_to_one_rule(self):
        violations, notes = run_passes(FIXTURES / "abi_bad", only=["CHK001"])
        assert violations == []
        assert len(notes) == 1


class TestAllowlist:
    def test_allowlist_suppresses_keyed_violation(self, tmp_path, capsys):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text(
            "# justification: fixture import is the point\n"
            "CHK001 app.py::<module>:myproj.engine.csr  # seeded\n"
        )
        code = main(
            [str(FIXTURES / "boundary_bad"), "--allowlist", str(allowlist)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 allowlisted violation(s) suppressed" in out

    def test_no_allowlist_flag_reports_suppressed(self, tmp_path, capsys):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("CHK001 app.py::<module>:myproj.engine.csr\n")
        code = main(
            [
                str(FIXTURES / "boundary_bad"),
                "--allowlist",
                str(allowlist),
                "--no-allowlist",
            ]
        )
        assert code == 1

    def test_stale_entries_warn_but_pass(self, tmp_path, capsys):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text("CHK001 gone.py::<module>:myproj.engine.csr\n")
        code = main([str(FIXTURES / "clean"), "--allowlist", str(allowlist)])
        out = capsys.readouterr().out
        assert code == 0
        assert "stale allowlist entry" in out

    def test_load_allowlist_strips_comments_and_blanks(self, tmp_path):
        allowlist = tmp_path / "allow.txt"
        allowlist.write_text(
            "\n# a full-line comment\nCHK001 a.py::x  # trailing\n"
        )
        assert load_allowlist(allowlist) == {"CHK001 a.py::x"}

    def test_violation_key_and_render_formats(self):
        violation = Violation("CHK009", "a/b.py", 12, "scope", "boom")
        assert violation.key == "CHK009 a/b.py::scope"
        assert violation.render() == "a/b.py:12: CHK009 boom"


class TestCliContract:
    def test_exit_zero_on_clean_tree(self, capsys):
        assert main([str(FIXTURES / "clean")]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_exit_one_on_violations(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main([str(FIXTURES / "boundary_bad"), "--allowlist", str(empty)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHK001" in out

    def test_exit_two_on_bad_root(self, capsys):
        assert main([str(FIXTURES / "no_such_tree")]) == 2

    def test_exit_two_on_missing_allowlist(self, capsys):
        code = main(
            [str(FIXTURES / "clean"), "--allowlist", "/no/such/allow.txt"]
        )
        assert code == 2

    def test_list_passes(self, capsys):
        assert main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        rules = [line.split()[0] for line in out.splitlines()]
        assert rules == ["CHK001", "CHK002", "CHK003", "CHK005", "CHK006"]

    def test_syntax_error_reported_not_crash(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("# broken tree\n")
        (tmp_path / "bad.py").write_text("def broken(:\n")
        code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CHK000" in out and "unparsable" in out


class TestRuntimeEngineNames:
    def test_expected_engines_pass(self):
        assert _check_names(["python", "csr"], ("python", "csr")) == []

    def test_missing_engine_flagged(self):
        (failure,) = _check_names(["python"], ("python", "csr"))
        assert "'csr' not registered" in failure

    def test_retired_engines_flagged(self):
        retired = ["csr-c", "sharded", "csr-mt"]
        failures = _check_names(["python", "csr", *retired], ("python", "csr"))
        assert len(failures) == len(retired)
        for name, failure in zip(retired, failures):
            assert f"engine {name!r} registered" in failure


class TestRuntimeLogChecks:
    def test_serve_log_all_ok_passes(self, tmp_path):
        log = tmp_path / "serve.log"
        log.write_text('{"ok": true, "op": "ping"}\n{"ok": true, "dist": 4}\n')
        assert check_serve_log(log) == []

    def test_serve_log_flags_error_response(self, tmp_path):
        log = tmp_path / "serve.log"
        log.write_text('{"ok": true}\n{"ok": false, "error": "boom"}\n')
        failures = check_serve_log(log)
        assert len(failures) == 1 and "not ok" in failures[0]

    def test_serve_log_flags_empty_transcript(self, tmp_path):
        log = tmp_path / "serve.log"
        log.write_text("")
        assert any("no JSONL responses" in f for f in check_serve_log(log))


class TestRepoIsClean:
    def test_repo_source_tree_passes_with_committed_allowlist(self, capsys):
        # The same gate CI runs: the committed allowlist must cover every
        # intentional violation, with none stale enough to fail.
        assert main([str(REPO_ROOT / "src" / "repro")]) == 0
