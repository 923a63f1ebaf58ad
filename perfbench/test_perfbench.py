"""Tests of the benchmark itself: seeded inputs, the scheme guard, metric
names, the timing statistics, and the span recorder's self times.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.core import construct, pcons
from repro.core.construct import build_epsilon_ftbfs
from repro.graphs.generators import gnp_random_graph
from repro.oracle.query import QueryOracle

from perfbench import layers, workloads
from perfbench.run import end_to_end_metrics
from perfbench.spans import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _edges(graph):
    return graph.edge_list()


def _request_lines(seed: int, count: int = 300):
    graph, source = workloads.serve_input(seed)
    tree = workloads.query_tree(graph, source, seed)
    return workloads.request_lines(graph, tree, seed, count).lines


class TestSeededInputs:
    def test_build_inputs_repeat_per_seed(self):
        for make in (workloads.gnp700_input, workloads.gadget_input):
            g1, s1, _ = make(3)
            g2, s2, _ = make(3)
            g3, s3, _ = make(4)
            assert (_edges(g1), s1) == (_edges(g2), s2)
            assert _edges(g1) != _edges(g3)

    def test_verify_h_sample_repeats_per_seed(self):
        g1, s1, h1 = workloads.verify_input(3)
        g2, s2, h2 = workloads.verify_input(3)
        g3, s3, h3 = workloads.verify_input(4)
        assert (_edges(g1), s1, h1) == (_edges(g2), s2, h2)
        assert _edges(g1) != _edges(g3) and h1 != h3
        # One instance, relabeled: the same number of edges in H.
        assert len(h1) == len(h3)

    def test_request_lines_repeat_per_seed(self):
        first = _request_lines(3)
        assert first == _request_lines(3)
        assert first != _request_lines(4)

    def test_request_mix_has_writes_and_every_read_kind(self):
        lines = [json.loads(x) for x in _request_lines(3, 2000)]
        ops = {r["op"] for r in lines}
        assert {"dist", "path", "mark_down", "mark_up"} <= ops
        assert any(len(r.get("failed", ())) == 2 for r in lines)
        assert any(len(r.get("targets", ())) == 32 for r in lines)


class TestSchemeGuard:
    def test_trips_below_the_exact_line(self):
        small = gnp_random_graph(600, 0.05, seed=1)
        assert small.num_edges <= 20_000
        with pytest.raises(workloads.SchemeGuardError):
            workloads.check_scheme(small, "random")

    def test_accepts_the_defined_schemes(self):
        g, _, _ = workloads.gnp700_input(1)
        assert workloads.check_scheme(g, "random") == "random"
        g, _, _ = workloads.gadget_input(1)
        assert workloads.check_scheme(g, "exact") == "exact"


class TestMetricNames:
    def test_names_are_well_formed(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        for section in ("end_to_end", "per_layer"):
            names += [m["name"] for m in BENCHMARK[section]]
        for name in names:
            assert NAME.match(name), name
        assert len(names) == len(set(names))

    def test_every_workload_is_implemented(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(
            workloads.WORKLOADS
        )

    def test_untraced_run_reports_every_end_to_end_metric(self):
        metrics = end_to_end_metrics([0.3, 0.2], [0.6, 0.5, 0.2, 0.9], 100.0, 7)
        assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert all(value > 0 for value in metrics.values())


class TestTimingStatistics:
    def test_each_operation_keeps_its_fastest_pass(self):
        run = workloads.Measurement()
        for times in ([0.3, 0.2, 0.9], [0.1, 0.4, 0.8]):
            attempts = [run.time(k, t) for k, t in enumerate(times)]
        assert attempts == [3, 4, 5]
        assert list(run.best) == [0.1, 0.2, 0.8]
        assert run.attempted == 6
        assert run.busy_s == pytest.approx(2.7)

    def test_metrics_come_from_the_fastest_passes(self):
        metrics = end_to_end_metrics([0.3, 0.2], [0.1, 0.2, 0.8], 1.0, 1)
        assert metrics["setup_s"] == 0.2
        assert metrics["op_ms"] == pytest.approx(200.0)
        assert metrics["op_p99_ms"] == pytest.approx(800.0)
        assert metrics["ops_per_s"] == pytest.approx(3 / 1.1)

    def test_a_serve_pass_is_whole_write_cycles(self):
        graph, source = workloads.serve_input(3)
        tree = workloads.query_tree(graph, source, 3)
        requests = workloads.request_lines(graph, tree, 3)
        ops = [json.loads(x)["op"] for x in requests.lines]
        assert len(ops) == workloads.PASS_LINES
        assert ops.count("mark_down") == ops.count("mark_up") == 10
        assert requests.writes == 20
        assert ops[0] == "mark_down" and ops[-1] not in ("mark_down", "mark_up")
        assert requests.sample and max(requests.sample) < workloads.PASS_LINES


class TestTracer:
    def test_nested_and_generator_spans(self):
        tracer = Tracer()

        def produce():
            for k in range(3):
                yield k

        outer = tracer.open("outer")
        items = list(tracer.drive("gen", produce()))
        inner = tracer.timed("inner", lambda: tracer.timed("inner", sum)([1]))
        assert inner() == 1
        tracer.close("outer", outer)
        assert items == [0, 1, 2]
        # 4 next() calls (the last one hits StopIteration), one "inner"
        # span: the re-entered call is not recorded twice.
        assert tracer.count("gen") == 4
        assert tracer.count("inner") == 1
        assert all(span[3] == 0 for span in tracer.spans[1:])
        self_t = tracer.self_times()
        total = tracer.totals()
        assert self_t["outer"] <= total["outer"]
        assert min(self_t.values()) >= 0

    def test_traced_build_self_times_never_negative(self):
        graph = gnp_random_graph(120, 0.08, seed=2)
        originals = (construct.run_pcons, pcons.build_spt, QueryOracle.path)
        tracer = Tracer()
        patches = layers.install(tracer)
        try:
            tracer.timed("build", build_epsilon_ftbfs)(graph, 0, 0.25)
        finally:
            patches.undo()
        assert (construct.run_pcons, pcons.build_spt, QueryOracle.path) == originals
        assert all(end >= start for _, start, end, _ in tracer.spans)
        assert min(tracer.self_times().values()) >= -1e-9
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        metrics = layers.per_layer_metrics(tracer, {}, names)
        assert list(metrics) == names
        assert metrics["pcons.total_s"] > 0
        assert metrics["pcons.pair_loop_s"] >= -1e-9
        assert metrics["pcons.pairs"] > 0
