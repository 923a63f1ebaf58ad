"""Engine benchmark: python reference vs csr kernels (experiment E16).

Regenerates the engine-comparison table through the experiment registry
and saves it twice: as the standard ``E16`` artifact and as
``BENCH_engines.json`` (the engine-record name downstream tooling
watches).  The micro benches time the raw primitives - one masked BFS
and one full verification sweep per engine - so kernel regressions show
up as timing changes independent of the experiment table.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.core import build_epsilon_ftbfs, verify_structure
from repro.engine import get_engine
from repro.graphs import connected_gnp_graph
from repro.harness import save_record


def test_e16_engine_comparison(benchmark, quick_mode, bench_seed):
    record = run_and_report(benchmark, "E16", quick_mode, bench_seed)
    assert record.rows
    assert all(row[-1] for row in record.rows), "engine parity violated"
    record.experiment_id = "BENCH_engines"
    save_record(record)


# ----------------------------------------------------------------------
# micro-benchmarks (multi-round timings on a fixed instance)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instance():
    graph = connected_gnp_graph(300, 0.05, seed=0)
    structure = build_epsilon_ftbfs(graph, 0, 0.25)
    return graph, structure


@pytest.mark.parametrize("engine_name", ["python", "csr"])
def test_micro_bfs_distances(benchmark, instance, engine_name):
    graph, _ = instance
    engine = get_engine(engine_name)
    dist = benchmark(engine.distances, graph, 0)
    assert dist[0] == 0


@pytest.mark.parametrize("engine_name", ["python", "csr"])
def test_micro_verify_structure(benchmark, instance, engine_name):
    _, structure = instance
    report = benchmark.pedantic(
        verify_structure,
        args=(structure,),
        kwargs={"engine": engine_name},
        rounds=3 if engine_name == "csr" else 1,
        iterations=1,
    )
    assert report.ok


@pytest.mark.parametrize("engine_name", ["python", "csr"])
def test_micro_failure_sweep(benchmark, instance, engine_name):
    graph, structure = instance
    engine = get_engine(engine_name)
    h_edges = set(structure.edges)
    eids = sorted(h_edges)[:200]

    def sweep():
        handle = engine.sweep(graph, 0, allowed_edges=h_edges)
        total = 0
        for eid in eids:
            total += int(handle.failed(eid)[0])
        return total

    benchmark.pedantic(sweep, rounds=3 if engine_name == "csr" else 1, iterations=1)
