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

import pytest

from repro.core.verify import verify_subgraph
from repro.engine import (
    available_engines,
    default_engine_name,
    engine_context,
    get_engine,
    registry,
    set_default_engine,
)
from repro.engine.python_engine import PythonEngine
from repro.errors import EngineError
from repro.graphs import path_graph

#: A throwaway non-reference engine to test overrides with, registered
#: per test so the no-numpy job (python alone) still tests overrides.
ALT = "alt-python"


class _AltEngine(PythonEngine):
    name = ALT


@pytest.fixture(autouse=True)
def _clean_selection_state(monkeypatch):
    """Each test starts with no env/process-wide override and leaves none,
    with the throwaway engine registered only for its duration."""
    available_engines()  # load the builtins before adding to the registry
    monkeypatch.setitem(registry._ENGINES, ALT, _AltEngine())
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
