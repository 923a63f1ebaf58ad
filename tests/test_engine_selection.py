"""Engine selection precedence and failure modes.

The selection chain - explicit ``engine=`` kwarg > the innermost
:func:`engine_context` / :func:`set_default_engine` override > the
``$REPRO_ENGINE`` environment variable > the registry default (csr when
numpy is available, else python) - was previously only exercised
implicitly through the parity suites.  This file pins each link and
their relative priority, plus the failure modes: unknown names (listed
alternatives, eager validation), and context restoration on normal and
exceptional exit.  Everything here runs on whatever engines are
registered, so the module works on the no-numpy matrix too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.verify import verify_subgraph
from repro.engine import (
    available_engines,
    default_engine_name,
    engine_context,
    get_engine,
    set_default_engine,
)
from repro.errors import EngineError
from repro.graphs import path_graph

#: A registered non-reference engine to test overrides with ("sharded"
#: is always registered, so this works without numpy too).
ALT = next(n for n in available_engines() if n != "python")


@pytest.fixture(autouse=True)
def _clean_selection_state(monkeypatch):
    """Each test starts with no env/process-wide override and leaves none."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    yield
    set_default_engine(None)


class TestPrecedence:
    def test_registry_default_without_any_override(self):
        expected = "csr" if "csr" in available_engines() else "python"
        assert get_engine().name == expected
        assert default_engine_name() == expected

    def test_env_var_beats_registry_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert get_engine().name == "python"

    def test_context_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        with engine_context(ALT):
            assert get_engine().name == ALT
        assert get_engine().name == "python"

    def test_set_default_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", ALT)
        set_default_engine("python")
        assert get_engine().name == "python"
        set_default_engine(None)  # cleared: env var applies again
        assert get_engine().name == ALT

    def test_explicit_name_beats_every_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", ALT)
        set_default_engine(ALT)
        with engine_context(ALT):
            assert get_engine("python").name == "python"

    def test_explicit_kwarg_beats_context_in_callers(self):
        """API call sites honor ``engine=`` over the ambient context:
        the verification oracle resolves the kwarg, not the override."""
        graph = path_graph(5)
        with engine_context(ALT):
            report = verify_subgraph(
                graph, 0, set(range(graph.num_edges)), engine="python"
            )
        assert report.ok  # and no EngineError: "python" was resolvable


class TestFailureModes:
    def test_unknown_engine_error_lists_available(self):
        with pytest.raises(EngineError) as excinfo:
            get_engine("fpga")
        message = str(excinfo.value)
        assert "fpga" in message
        for name in available_engines():
            assert name in message

    def test_context_validates_eagerly(self):
        before = get_engine().name
        with pytest.raises(EngineError):
            with engine_context("fpga"):
                pytest.fail("the body must never run")  # pragma: no cover
        assert get_engine().name == before

    def test_set_default_validates_eagerly(self):
        set_default_engine("python")
        with pytest.raises(EngineError):
            set_default_engine("fpga")
        assert get_engine().name == "python"  # rejected update changed nothing

    def test_kwarg_failure_propagates_from_call_sites(self):
        graph = path_graph(4)
        with pytest.raises(EngineError, match="available"):
            verify_subgraph(graph, 0, set(range(graph.num_edges)), engine="fpga")


class TestContextRestoration:
    def test_nested_contexts_restore_in_order(self):
        with engine_context("python"):
            with engine_context(ALT):
                assert get_engine().name == ALT
            assert get_engine().name == "python"

    def test_context_restores_after_exception(self):
        with engine_context(ALT):
            with pytest.raises(RuntimeError):
                with engine_context("python"):
                    assert get_engine().name == "python"
                    raise RuntimeError("boom")
            assert get_engine().name == ALT

    def test_context_none_is_transparent_when_nested(self):
        with engine_context(ALT):
            with engine_context(None) as engine:
                assert engine.name == ALT
            assert get_engine().name == ALT

    def test_context_restores_prior_set_default(self):
        set_default_engine(ALT)
        with engine_context("python"):
            assert get_engine().name == "python"
        assert get_engine().name == ALT


class TestThreadedWeightedBase:
    """csr-mt windows its *weighted* sweeps over the compiled csr too.

    The unweighted side is pinned in test_engine_compiled; this class
    closes the weighted gap: the base the threaded engine windows its
    weighted sweeps over is csr on its C kernels, and the same csr on
    numpy - same values - when ``REPRO_CC=0`` gates the toolchain out.
    """

    def test_prefers_compiled_base_for_weighted_windows(self):
        from repro.engine import cbuild

        if cbuild.find_compiler() is None:
            pytest.skip("no C compiler: csr runs on numpy only")
        mt = get_engine("csr-mt")
        assert mt.base_engine() is get_engine("csr")
        # The capability lines agree: the weighted sweep is windowed
        # over csr, whose weighted kernels are the compiled ones.
        assert "'csr'" in mt.replacement_backend
        assert mt.base_engine().weighted_backend.startswith("compiled C")

    def test_falls_back_to_csr_base_under_repro_cc_0(self):
        """With the toolchain disabled, the weighted base is csr on its
        numpy kernels and a threaded weighted sweep still produces the
        reference values (checked in a subprocess)."""
        if "csr" not in available_engines():
            pytest.skip("csr-mt needs numpy")
        env = dict(os.environ)
        env.pop("REPRO_ENGINE", None)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CC"] = "0"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.engine import get_engine\n"
                "mt = get_engine('csr-mt')\n"
                "assert mt.base_engine().name == 'csr', mt.base_engine().name\n"
                "assert \"'csr'\" in mt.weighted_backend\n"
                "assert mt.base_engine().weighted_backend.startswith("
                "'inherited numpy')\n"
                "from repro.graphs import connected_gnp_graph\n"
                "from repro.spt import build_spt, make_weights\n"
                "g = connected_gnp_graph(60, 0.08, seed=11)\n"
                "w = make_weights(g, 'random', seed=11)\n"
                "tree = build_spt(g, w, 0)\n"
                "ref = list(get_engine('csr').weighted_failure_sweep(g, w, tree))\n"
                "got = list(mt.weighted_failure_sweep(g, w, tree))\n"
                "assert got == ref\n",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
