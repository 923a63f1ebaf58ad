"""E14 + extension micro-benchmarks: vertex faults and the DSO.

These go beyond the paper's evaluation: the vertex-fault FT-BFS of [14]
(the natural companion structure) and the distance-sensitivity-oracle
view of the replacement-path engine.
"""

import pytest

from benchmarks.conftest import run_and_report
from repro.core import build_vertex_fault_ftbfs
from repro.graphs import connected_gnp_graph
from repro.spt import DistanceSensitivityOracle


def test_e14_extensions(benchmark, quick_mode, bench_seed):
    record = run_and_report(benchmark, "E14", quick_mode, bench_seed)
    cols = record.columns
    ok_i = cols.index("vf_verified")
    rate_i = cols.index("dso_queries/s")
    for row in record.rows:
        assert row[ok_i]
        assert row[rate_i] > 1000, "oracle queries should be >> 1k/s"


@pytest.fixture(scope="module")
def instance():
    return connected_gnp_graph(150, 0.06, seed=2)


def test_micro_vertex_fault_build(benchmark, instance):
    structure = benchmark(build_vertex_fault_ftbfs, instance, 0)
    assert structure.num_edges > 0


def test_micro_dso_preprocess(benchmark, instance):
    dso = benchmark(DistanceSensitivityOracle, instance, 0)
    assert dso.tree.num_reachable == instance.num_vertices


def test_micro_dso_query(benchmark, instance):
    dso = DistanceSensitivityOracle(instance, 0)
    eid = dso.tree.tree_edges()[5]

    def run():
        total = 0
        for v in range(instance.num_vertices):
            d = dso.distance(v, eid)
            if d is not None:
                total += d
        return total

    total = benchmark(run)
    assert total > 0
