"""The csr engine's C kernels: registration, parity, fallback, caching.

The acceptance bar is the usual one: bit-identity with the numpy
kernels (and through them the python reference) on every accelerated
primitive - masked distances, ordered parent maps, and both ends of the
failure sweep (base BFS + Euler state, per-failure subtree recomputes) -
plus clean degradation on every axis the kernels can be missing:

* no C compiler / ``REPRO_CC=0``: csr stays registered and runs its
  inherited numpy kernels, building the same structures (checked in
  subprocesses);
* compile or load failure: the engine's methods fall back to the
  inherited numpy kernels (same values).

``CSREngine()`` - the numpy superclass, instantiated directly - is the
numpy side of every comparison.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")  # the csr engine is numpy-gated
import numpy as np

from repro.engine import available_engines, distances_equal, get_engine
from repro.engine import cbuild
from repro.engine.compiled import CompiledEngine
from repro.engine.csr_engine import CSREngine
from repro.errors import EngineError
from repro.graphs import connected_gnp_graph

from tests.conftest import graph_with_source
from tests.test_engine_parity import masked_instance

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

HAVE_CC = cbuild.find_compiler() is not None
requires_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C compiler: csr runs on numpy only"
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_py(code: str, **env_overrides) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    # the subprocess asserts default-selection behavior: an ambient
    # engine override (e.g. a REPRO_ENGINE=python matrix run) must not
    # leak in.
    env.pop("REPRO_ENGINE", None)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


#: Builds the random-scheme Theorem 5.1 gadget (3 reinforced edges) on
#: the default engine and prints its edges, reinforced set and verify
#: report as one JSON line.
_BUILD_GADGET = """
import json
from repro.core import build_epsilon_ftbfs, verify_structure
from repro.core.construct import ConstructOptions
from repro.lower_bounds import build_theorem51
lb = build_theorem51(400, 0.2, d=8, k=4, x_size=8)
s = build_epsilon_ftbfs(
    lb.graph, lb.source, 0.2,
    options=ConstructOptions(weight_scheme="random", seed=1),
)
rep = verify_structure(s)
print(json.dumps({
    "edges": sorted(s.edges),
    "reinforced": sorted(s.reinforced),
    "verify": [rep.ok, rep.checked_failures, [str(v) for v in rep.violations]],
}))
"""


class TestRegistration:
    def test_csr_registered_with_or_without_a_compiler(self):
        names = available_engines()
        assert "csr" in names and "csr-c" not in names, names
        assert isinstance(get_engine("csr"), CompiledEngine)

    def test_csr_c_is_no_engine_name(self):
        with pytest.raises(EngineError) as info:
            get_engine("csr-c")
        for name in available_engines():
            assert name in str(info.value)

    @requires_cc
    def test_default_engine_runs_the_c_kernels(self, monkeypatch):
        """With a compiler, the implicit default is the compiled csr, and
        a default random-scheme build calls into the loaded library."""
        from repro.core import build_epsilon_ftbfs
        from repro.core.construct import ConstructOptions

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        engine = get_engine()
        assert isinstance(engine, CompiledEngine) and engine.name == "csr"
        lib = cbuild.kernel_library()
        assert lib is not None
        calls = []
        kernel = lib.weighted_levels

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(lib, "weighted_levels", counted)
        graph = connected_gnp_graph(120, 0.06, seed=2)
        build_epsilon_ftbfs(
            graph, 0, 0.25, options=ConstructOptions(weight_scheme="random")
        )
        assert calls, "the default build never reached the C kernels"

    @requires_cc
    def test_kernels_compile_and_cache(self):
        lib = cbuild.kernel_library()
        assert lib is not None
        assert Path(lib.path).is_file()
        assert Path(lib.path).parent == cbuild.cache_dir()
        # memoized: the second lookup is the same loaded object
        assert cbuild.kernel_library() is lib
        assert str(lib.path) in get_engine("csr").compiler

    def test_repro_cc_0_runs_csr_on_numpy(self):
        """With the toolchain disabled, csr stays registered (and the
        default) on its inherited numpy kernels, and nothing else moves -
        the no-compiler analogue of csr's no-numpy gating."""
        proc = _run_py(
            "from repro.engine import available_engines, cbuild, get_engine\n"
            "names = available_engines()\n"
            "assert names == ['python', 'csr'], names\n"
            "eng = get_engine()\n"
            "assert eng.name == 'csr' and cbuild.kernel_library() is None\n"
            "assert eng.weighted_backend.startswith('inherited numpy')\n"
            "from repro.graphs import connected_gnp_graph\n"
            "from repro.core.verify import verify_subgraph, _resolve_engine\n"
            "g = connected_gnp_graph(40, 0.1, seed=1)\n"
            "assert _resolve_engine(g, None) is eng\n"
            "assert verify_subgraph(g, 0, set(range(g.num_edges))).ok\n",
            REPRO_CC="0",
        )
        assert proc.returncode == 0, proc.stderr

    @requires_cc
    def test_bogus_compiler_degrades_to_numpy_at_runtime(self, tmp_path):
        """A compiler that is found but fails to compile: csr's methods
        fall back (warning once), bit-identically."""
        proc = _run_py(
            "import warnings\n"
            "from repro.engine import get_engine\n"
            "from repro.engine.csr_engine import CSREngine\n"
            "from repro.graphs import connected_gnp_graph\n"
            "g = connected_gnp_graph(30, 0.15, seed=2)\n"
            "eng = get_engine('csr')\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    d = eng.distances(g, 0)\n"
            "assert any('C kernels' in str(w.message) for w in caught), caught\n"
            "assert d == CSREngine().distances(g, 0)\n"
            "ref = CSREngine().sweep(g, 0)\n"
            "got = eng.sweep(g, 0)\n"
            "assert all(list(ref.failed(e)) == list(got.failed(e))\n"
            "           for e in range(g.num_edges))\n",
            REPRO_CC="false",  # /usr/bin/false: found by which, compiles nothing
            REPRO_CC_CACHE=str(tmp_path / "kernels"),
        )
        assert proc.returncode == 0, proc.stderr


class TestFindCompiler:
    """The compiler probe runs once per setting of the variables it
    reads, not once per kernel call."""

    def test_probe_memoized_until_path_changes(self, monkeypatch, tmp_path):
        calls = []

        def which(cmd, path=None):
            calls.append((cmd, path))
            return f"/opt/fake/{cmd}"

        monkeypatch.setattr(cbuild.shutil, "which", which)
        monkeypatch.delenv(cbuild.CC_ENV_VAR, raising=False)
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path / "a"))
        for _ in range(5):
            assert cbuild.find_compiler() == "/opt/fake/cc"
        assert len(calls) == 1
        monkeypatch.setenv("PATH", str(tmp_path / "b"))
        assert cbuild.find_compiler() == "/opt/fake/cc"
        assert calls[-1] == ("cc", str(tmp_path / "b"))
        assert len(calls) == 2

    def test_cc_settings_apply_mid_process(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            cbuild.shutil, "which", lambda cmd, path=None: f"/opt/fake/{cmd}"
        )
        monkeypatch.delenv(cbuild.CC_ENV_VAR, raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.setenv("CC", "clang")
        assert cbuild.find_compiler() == "/opt/fake/clang"
        monkeypatch.setenv(cbuild.CC_ENV_VAR, "gcc")
        assert cbuild.find_compiler() == "/opt/fake/gcc"
        monkeypatch.setenv(cbuild.CC_ENV_VAR, "0")
        assert cbuild.find_compiler() is None
        assert cbuild.kernel_library() is None


@requires_cc
class TestNumpyFallback:
    def test_repro_cc_0_builds_the_same_structure(self):
        """C here, numpy in a ``REPRO_CC=0`` subprocess: the same edges,
        the same reinforced set, the same verify report."""
        assert cbuild.kernel_library() is not None
        on_c = _run_py(_BUILD_GADGET)
        on_numpy = _run_py(_BUILD_GADGET, REPRO_CC="0")
        assert on_c.returncode == 0, on_c.stderr
        assert on_numpy.returncode == 0, on_numpy.stderr
        c_out = json.loads(on_c.stdout)
        assert c_out["reinforced"], "instance lost its reinforced edges"
        assert c_out == json.loads(on_numpy.stdout)


@requires_cc
class TestCcFlags:
    """``$REPRO_CC_FLAGS``: extra flags reach the compile line and key
    the cache, so a sanitizer build never reuses (or poisons) the plain
    cached object."""

    def test_extra_flags_fold_into_cache_key(self, monkeypatch):
        cc = cbuild.find_compiler()
        monkeypatch.delenv(cbuild.CC_FLAGS_ENV_VAR, raising=False)
        base = cbuild._lib_path(cc)
        assert cbuild.extra_cflags() == ()
        assert cbuild.cflags() == cbuild.CFLAGS
        monkeypatch.setenv(cbuild.CC_FLAGS_ENV_VAR, "-g -DREPRO_TEST=1")
        assert cbuild.extra_cflags() == ("-g", "-DREPRO_TEST=1")
        assert cbuild.cflags() == cbuild.CFLAGS + ("-g", "-DREPRO_TEST=1")
        assert cbuild._lib_path(cc) != base

    def test_flag_flip_compiles_a_distinct_library(self, tmp_path):
        """Flipping the flags mid-process compiles into a second cache
        entry and the memo keeps both libraries live independently."""
        proc = _run_py(
            "import os\n"
            "from repro.engine import cbuild\n"
            "plain = cbuild.kernel_library()\n"
            "assert plain is not None\n"
            "os.environ['REPRO_CC_FLAGS'] = '-fno-omit-frame-pointer'\n"
            "flagged = cbuild.kernel_library()\n"
            "assert flagged is not None and flagged is not plain\n"
            "assert flagged.path != plain.path\n"
            "assert cbuild.kernel_library() is flagged\n"
            "desc = cbuild.compiler_description()\n"
            "assert '-fno-omit-frame-pointer' in desc, desc\n"
            "assert '-fno-omit-frame-pointer' in cbuild.toolchain_info()['cflags']\n"
            "del os.environ['REPRO_CC_FLAGS']\n"
            "assert cbuild.kernel_library() is plain\n",
            REPRO_CC_CACHE=str(tmp_path / "kernels"),
        )
        assert proc.returncode == 0, proc.stderr

    def test_flagged_build_stays_bit_identical(self, tmp_path):
        proc = _run_py(
            "from repro.engine import cbuild, get_engine\n"
            "assert cbuild.kernel_library() is not None\n"
            "from repro.graphs import connected_gnp_graph\n"
            "g = connected_gnp_graph(60, 0.1, seed=3)\n"
            "assert get_engine('csr').distances(g, 0) == "
            "get_engine('python').distances(g, 0)\n",
            REPRO_CC_FLAGS="-fno-omit-frame-pointer -g",
            REPRO_CC_CACHE=str(tmp_path / "kernels"),
        )
        assert proc.returncode == 0, proc.stderr


@requires_cc
class TestParity:
    @given(inst=masked_instance())
    @settings(max_examples=60, **COMMON)
    def test_masked_distances_match_reference(self, inst):
        graph, source, kwargs = inst
        assert get_engine("csr").distances(graph, source, **kwargs) == (
            get_engine("python").distances(graph, source, **kwargs)
        )

    @given(gs=graph_with_source(max_vertices=24, connected=False))
    @settings(max_examples=60, **COMMON)
    def test_parents_match_reference_including_order(self, gs):
        graph, source = gs
        mine = get_engine("csr").parents(graph, source)
        ref = get_engine("python").parents(graph, source)
        assert mine == ref
        assert list(mine) == list(ref)  # discovery order, not just mapping

    @given(gs=graph_with_source(max_vertices=20), data=st.data())
    @settings(max_examples=40, **COMMON)
    def test_failure_sweep_bit_identical(self, gs, data):
        graph, source = gs
        m = graph.num_edges
        allowed = None
        if m and data.draw(st.booleans()):
            allowed = set(
                data.draw(st.lists(st.integers(0, m - 1), max_size=m))
            )
        ref, got = (
            get_engine(name).sweep(graph, source, allowed_edges=allowed)
            for name in ("python", "csr")
        )
        for eid in range(m + 1):  # one out-of-range id: no-op on both
            assert distances_equal(ref.failed(eid), got.failed(eid))

    def test_base_state_arrays_bit_identical_to_numpy(self):
        """The C-built handle holds exactly the base BFS and Euler
        arrays the numpy sweep builds (same dtypes, values)."""
        graph = connected_gnp_graph(120, 0.06, seed=9)
        mine = get_engine("csr").sweep(graph, 0)
        ref = CSREngine().sweep(graph, 0)
        attrs = ("base", "_parent", "_parent_eid", "_tin", "_tout", "_preorder")
        for attr in attrs:
            a_mine, a_ref = getattr(mine, attr), getattr(ref, attr)
            assert a_mine.dtype == a_ref.dtype, attr
            assert np.array_equal(a_mine, a_ref), attr

    def test_verify_report_identical(self, monkeypatch):
        """The same report on C and, under ``REPRO_CC=0``, on numpy."""
        from repro.core.verify import verify_subgraph

        graph = connected_gnp_graph(80, 0.08, seed=5)
        h = set(range(0, graph.num_edges, 2)) | {0, 1}
        got = verify_subgraph(graph, 0, h, engine="csr")
        monkeypatch.setenv(cbuild.CC_ENV_VAR, "0")
        ref = verify_subgraph(graph, 0, h, engine="csr")
        assert got.ok == ref.ok
        assert got.checked_failures == ref.checked_failures
        assert got.violations == ref.violations


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("tier", [
    pytest.param("c", marks=requires_cc),
    "numpy",
])
def test_sweep_handle_returns_its_base_for_no_op_failures(tier, masked):
    """The handle contract verify's no-op shortcut reads: ``failed(e) is
    base_distances()`` for every non-tree edge, every masked-out edge
    and every id that names no edge; a base-tree edge gives a fresh
    array equal to the python BFS under that failure.  The tree-edge
    map behind ``tree_child`` agrees with the endpoint test it replaced."""
    graph = connected_gnp_graph(60, 0.1, seed=4)
    m = graph.num_edges
    allowed = {e for e in range(m) if e % 3} if masked else None
    eng = CompiledEngine() if tier == "c" else CSREngine()
    handle = eng.sweep(graph, 0, allowed_edges=allowed)
    if tier == "c":
        assert handle._kernels is not None
    base = handle.base_distances()
    csr, parent_eid = handle.csr, handle._parent_eid
    python = get_engine("python")
    tree_edges = 0
    for eid in range(m):
        u, v = int(csr.edge_u[eid]), int(csr.edge_v[eid])
        child = u if parent_eid[u] == eid else v if parent_eid[v] == eid else None
        assert handle.tree_child(eid) == child
        out = handle.failed(eid)
        if child is None:
            assert out is base
            continue
        tree_edges += 1
        assert allowed is None or eid in allowed
        assert out is not base and out.flags.writeable
        assert out.tolist() == python.distances(
            graph, 0, banned_edges={eid}, allowed_edges=allowed
        )
    assert tree_edges == sum(1 for d in base.tolist() if d > 0)
    for eid in (-1, m, 10**9):
        assert handle.tree_child(eid) is None
        assert handle.failed(eid) is base
