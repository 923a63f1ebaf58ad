"""Public API surface tests: exports exist, are documented, and cohere."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.graphs",
    "repro.spt",
    "repro.core",
    "repro.decomposition",
    "repro.lower_bounds",
    "repro.harness",
    "repro.oracle",
    "repro.util",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} has no __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} listed but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_packages_have_docstrings(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and mod.__doc__.strip()


def test_every_module_has_docstring():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            mod = importlib.import_module(info.name)
        except ImportError:
            # numpy-gated modules (the csr engine stack) are absent on
            # the no-numpy matrix; any other import failure is a real
            # break this walk exists to catch.
            if importlib.util.find_spec("numpy") is None:
                continue
            raise
        if not (mod.__doc__ and mod.__doc__.strip()):
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_public_callables_have_docstrings():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, type(repro)):
            if not (getattr(obj, "__doc__", None) or "").strip():
                undocumented.append(name)
    assert not undocumented, f"undocumented public callables: {undocumented}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_quickstart_docstring_example_runs():
    """The package docstring's example must actually work."""
    from repro import build_epsilon_ftbfs, connected_gnp_graph, verify_structure

    g = connected_gnp_graph(60, 0.15, seed=1)
    structure = build_epsilon_ftbfs(g, source=0, epsilon=0.3)
    assert verify_structure(structure).ok
