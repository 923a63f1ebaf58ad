"""E13 + micro-benchmarks: wall-clock scaling of the pipeline stages.

Unlike the table benches (rounds=1 on a whole experiment), the micro
benches here use pytest-benchmark properly - several rounds on a fixed
mid-size instance - so regressions in the hot paths show up as timing
changes.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.core import build_epsilon_ftbfs, run_pcons, verify_structure
from repro.core.interference import InterferenceIndex
from repro.decomposition import heavy_path_decomposition
from repro.graphs import connected_gnp_graph
from repro.engine import get_engine
from repro.spt.replacement import ReplacementEngine
from repro.spt.spt_tree import build_spt
from repro.spt.weights import EXACT, make_weights


def test_e13_pipeline_scaling(benchmark, quick_mode, bench_seed):
    record = run_and_report(benchmark, "E13", quick_mode, bench_seed)
    assert record.rows


# ----------------------------------------------------------------------
# micro-benchmarks (multi-round timings on a fixed instance)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instance():
    graph = connected_gnp_graph(200, 0.05, seed=0)
    weights = make_weights(graph, EXACT)
    return graph, weights


def test_micro_dijkstra(benchmark, instance):
    graph, weights = instance
    result = benchmark(get_engine("python").shortest_paths, graph, weights, 0)
    assert result.dist[1] is not None


def test_micro_spt_build(benchmark, instance):
    graph, weights = instance
    tree = benchmark(build_spt, graph, weights, 0)
    assert tree.num_reachable == graph.num_vertices


def test_micro_replacement_engine(benchmark, instance):
    graph, weights = instance
    tree = build_spt(graph, weights, 0)

    engine = benchmark(ReplacementEngine, tree)
    assert engine.export_arrays()["repl_eids"] == tree.tree_edges()


def test_micro_pcons(benchmark, instance):
    graph, _ = instance
    result = benchmark(run_pcons, graph, 0)
    assert result.stats.num_pairs > 0


def test_micro_heavy_path(benchmark, instance):
    graph, weights = instance
    tree = build_spt(graph, weights, 0)
    td = benchmark(heavy_path_decomposition, tree)
    assert td.paths


def test_micro_interference_index(benchmark, instance):
    graph, _ = instance
    pcons = run_pcons(graph, 0)
    uncovered = pcons.pairs.uncovered()
    index = benchmark(InterferenceIndex, pcons.tree, uncovered)
    assert index.pairs is not None


def test_micro_construct_given_pcons(benchmark, instance):
    graph, _ = instance
    pcons = run_pcons(graph, 0)
    structure = benchmark(
        build_epsilon_ftbfs, graph, 0, 0.25, pcons=pcons
    )
    assert structure.num_edges > 0


def test_micro_verify(benchmark, instance):
    graph, _ = instance
    structure = build_epsilon_ftbfs(graph, 0, 0.25)
    report = benchmark(verify_structure, structure)
    assert report.ok
