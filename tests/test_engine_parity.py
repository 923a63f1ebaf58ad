"""Engine-parity tests: the csr engine must be bit-identical to python.

The python engine is the executable specification; every kernel of the
csr engine (masked BFS, parent maps, the batched failure sweep) and
everything built on top (verification oracle, unprotected-edge
accounting) must produce *exactly* the same values.  Property-based
tests drive random G(n, p) graphs, random single/dual failures, and
random ``allowed_edges`` masks through both engines.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")  # the csr engine under test is numpy-gated

from repro.core import build_epsilon_ftbfs, unprotected_edges, verify_subgraph
from repro.engine import (
    UNREACHABLE,
    available_engines,
    engine_context,
    get_engine,
)
from repro.engine.csr import csr_view
from repro.errors import EngineError, GraphError
from repro.graphs import connected_gnp_graph, path_graph

from tests.conftest import graph_with_source

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

PY = get_engine("python")
CSR = get_engine("csr")


# ----------------------------------------------------------------------
# registry behavior
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_builtins_registered(self):
        names = available_engines()
        assert names[0] == "python"
        assert "csr" in names

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineError):
            get_engine("fpga")

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert get_engine().name == "python"
        monkeypatch.setenv("REPRO_ENGINE", "csr")
        assert get_engine().name == "csr"

    def test_engine_context_scopes_and_restores(self):
        before = get_engine().name
        with engine_context("python") as engine:
            assert engine.name == "python"
            assert get_engine().name == "python"
            with engine_context("csr"):
                assert get_engine().name == "csr"
            assert get_engine().name == "python"
        assert get_engine().name == before

    def test_engine_context_none_is_noop(self):
        before = get_engine().name
        with engine_context(None) as engine:
            assert engine.name == before


# ----------------------------------------------------------------------
# CSR view
# ----------------------------------------------------------------------
class TestCSRView:
    def test_cached_on_graph(self):
        g = path_graph(5)
        assert csr_view(g) is csr_view(g)

    def test_matches_adjacency_order(self):
        g = connected_gnp_graph(30, 0.2, seed=3)
        csr = csr_view(g)
        for v in range(g.num_vertices):
            lo, hi = int(csr.indptr[v]), int(csr.indptr[v + 1])
            assert list(zip(csr.indices[lo:hi].tolist(), csr.edge_ids[lo:hi].tolist())) == list(
                g.adjacency(v)
            )

    def test_arrays_read_only(self):
        csr = csr_view(path_graph(4))
        with pytest.raises(ValueError):
            csr.indices[0] = 99

    def test_empty_graph(self):
        from repro.graphs import Graph

        csr = csr_view(Graph(3))
        assert csr.indptr.tolist() == [0, 0, 0, 0]
        assert CSR.distances(Graph(3), 0) == [0, UNREACHABLE, UNREACHABLE]


# ----------------------------------------------------------------------
# kernel parity (property-based)
# ----------------------------------------------------------------------
@st.composite
def masked_instance(draw):
    """(graph, source, kwargs) with random failure masks."""
    g, source = draw(graph_with_source(max_vertices=24, connected=False))
    m = g.num_edges
    kwargs = {}
    if m and draw(st.booleans()):
        kwargs["banned_edges"] = set(
            draw(st.lists(st.integers(0, m - 1), max_size=3))
        )
    if m and draw(st.booleans()):
        kwargs["allowed_edges"] = set(
            draw(st.lists(st.integers(0, m - 1), max_size=m))
        )
    return g, source, kwargs


@settings(max_examples=60, **COMMON)
@given(masked_instance())
def test_distances_parity(instance):
    g, source, kwargs = instance
    expected = PY.distances(g, source, **kwargs)
    got = CSR.distances(g, source, **kwargs)
    assert got == expected
    assert all(type(d) is int for d in got)


@settings(max_examples=40, **COMMON)
@given(graph_with_source(max_vertices=24), st.booleans())
def test_parents_parity(pair, mask_edges):
    g, source = pair
    allowed = None
    if mask_edges and g.num_edges:
        rng = random.Random(g.num_edges)
        allowed = {e for e in range(g.num_edges) if rng.random() < 0.7}
    expected = PY.parents(g, source, allowed_edges=allowed)
    got = CSR.parents(g, source, allowed_edges=allowed)
    assert got == expected
    # Same discovery order, not just the same mapping.
    assert list(got) == list(expected)


@settings(max_examples=30, **COMMON)
@given(graph_with_source(max_vertices=20), st.booleans())
def test_failure_sweep_parity_all_edges(pair, mask_edges):
    g, source = pair
    m = g.num_edges
    allowed = None
    if mask_edges and m:
        rng = random.Random(m)
        allowed = {e for e in range(m) if rng.random() < 0.65}
    handles = [eng.sweep(g, source, allowed_edges=allowed) for eng in (PY, CSR)]
    expected, got = ([list(h.failed(e)) for e in range(m)] for h in handles)
    assert got == expected


def test_out_of_range_ids_are_noops_on_both_engines():
    """Ids naming no edge/vertex ban nothing - numpy must not wrap or raise."""
    from repro.graphs import Graph

    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cases = [
        dict(banned_edges={-1}),
        dict(banned_edges={-1, 99}),
        dict(allowed_edges={0, 1, 2, 99}),
    ]
    for kwargs in cases:
        assert CSR.distances(g, 0, **kwargs) == PY.distances(g, 0, **kwargs)
    sweeps = [
        [list(eng.sweep(g, 0).failed(e)) for e in (-1, 0, 10 ** 9)]
        for eng in (PY, CSR)
    ]
    assert sweeps[0] == sweeps[1]


def test_sweep_handle_shares_base():
    g = connected_gnp_graph(30, 0.2, seed=2)
    for eng in (PY, CSR):
        handle = eng.sweep(g, 0)
        base = handle.base_distances()
        assert list(base) == eng.distances(g, 0)
        assert list(handle.failed(10 ** 9)) == list(base)  # no-op failure


def test_source_range_checked_on_both_engines():
    g = path_graph(4)
    for eng in (PY, CSR):
        with pytest.raises(GraphError):
            eng.distances(g, 7)


# ----------------------------------------------------------------------
# verification-oracle parity
# ----------------------------------------------------------------------
def _corrupted(structure):
    """Drop a few structure edges to force violations deterministically."""
    rng = random.Random(7)
    edges = sorted(structure.edges)
    keep = set(edges)
    for eid in rng.sample(edges, min(4, len(edges))):
        keep.discard(eid)
    return keep


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_report_parity(seed):
    g = connected_gnp_graph(70, 0.08, seed=seed)
    s = build_epsilon_ftbfs(g, 0, 0.3)
    reports = {
        name: verify_subgraph(g, 0, s.edges, s.reinforced, engine=name)
        for name in ("python", "csr")
    }
    ref = reports["python"]
    assert ref.ok
    for rep in reports.values():
        assert rep.ok == ref.ok
        assert rep.checked_failures == ref.checked_failures
        assert rep.violations == ref.violations


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_violations_parity_on_corrupted_structure(seed):
    g = connected_gnp_graph(50, 0.1, seed=seed)
    s = build_epsilon_ftbfs(g, 0, 0.3)
    keep = _corrupted(s)
    rep_py = verify_subgraph(g, 0, keep, (), engine="python")
    rep_csr = verify_subgraph(g, 0, keep, (), engine="csr")
    assert rep_py.checked_failures == rep_csr.checked_failures
    assert rep_py.violations == rep_csr.violations
    assert rep_py.ok == rep_csr.ok


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unprotected_edges_parity(seed):
    g = connected_gnp_graph(45, 0.12, seed=seed)
    s = build_epsilon_ftbfs(g, 0, 0.35)
    for edge_set in (s.edges, _corrupted(s), s.tree_edges):
        assert unprotected_edges(g, 0, edge_set, engine="python") == unprotected_edges(
            g, 0, edge_set, engine="csr"
        )


class TestVerificationParity:
    """Reports and E_miss on every registered engine against the
    python spec."""

    @pytest.fixture(scope="class")
    def instance(self):
        graph = connected_gnp_graph(90, 0.08, seed=7)
        return graph, build_epsilon_ftbfs(graph, 0, 0.3)

    def test_verify_report_parity(self, instance):
        graph, structure = instance
        reference = verify_subgraph(
            graph, 0, structure.edges, structure.reinforced, engine="python"
        )
        assert reference.ok
        for name in available_engines():
            report = verify_subgraph(
                graph, 0, structure.edges, structure.reinforced, engine=name
            )
            assert report.ok == reference.ok, name
            assert report.checked_failures == reference.checked_failures, name
            assert report.violations == reference.violations, name

    def test_unprotected_edges_parity(self, instance):
        graph, structure = instance
        tree_only = set(structure.tree_edges)
        reference = unprotected_edges(graph, 0, tree_only, engine="python")
        for name in available_engines():
            assert unprotected_edges(graph, 0, tree_only, engine=name) == reference

    def test_violations_detected_identically(self, instance):
        graph, structure = instance
        # strip backup edges: the bare tree must fail verification the
        # same way under every engine
        tree_only = set(structure.tree_edges)
        reference = verify_subgraph(graph, 0, tree_only, (), engine="python")
        assert not reference.ok
        for name in available_engines():
            report = verify_subgraph(graph, 0, tree_only, (), engine=name)
            assert report.ok == reference.ok, name
            assert report.checked_failures == reference.checked_failures, name
            assert report.violations == reference.violations, name


@settings(max_examples=15, **COMMON)
@given(graph_with_source(max_vertices=14), st.integers(0, 3))
def test_verify_parity_random_subgraphs(pair, salt):
    """Random H (not construction output): verdicts must still agree."""
    g, source = pair
    rng = random.Random(g.num_vertices * 31 + salt)
    h = {e for e in range(g.num_edges) if rng.random() < 0.8}
    rep_py = verify_subgraph(g, source, h, (), engine="python")
    rep_csr = verify_subgraph(g, source, h, (), engine="csr")
    assert rep_py.ok == rep_csr.ok
    assert rep_py.checked_failures == rep_csr.checked_failures
    assert rep_py.violations == rep_csr.violations


def test_sweep_tasks_honor_engine_choice():
    """Stage-task workers run under the engine their task pins: the
    E13 measurement records the engine its construction ran on."""
    from repro.harness import StageTask, run_stage_tasks
    from repro.harness.pipeline.specs.runtime import e13_measure

    payload = {"workload": "gnp", "params": {"n": 60, "seed": 0}, "seed": 0}
    tasks = [
        StageTask(
            func=e13_measure,
            payload=payload,
            engine=name,
        )
        for name in ("python", "csr")
    ]
    rows = {
        index: result["rows"][0]
        for index, result in run_stage_tasks(tasks, max_workers=2)
    }
    assert rows[0][2] == "python" and rows[1][2] == "csr"
    assert rows[0][:2] == rows[1][:2] and rows[0][3] == rows[1][3]


def test_construct_engine_option_changes_nothing():
    from repro.core.construct import ConstructOptions

    g = connected_gnp_graph(50, 0.1, seed=5)
    builds = {
        name: build_epsilon_ftbfs(
            g, 0, 0.3, options=ConstructOptions(engine=name)
        )
        for name in ("python", "csr")
    }
    ref = builds["python"]
    for s in builds.values():
        assert s.edges == ref.edges
        assert s.reinforced == ref.reinforced
