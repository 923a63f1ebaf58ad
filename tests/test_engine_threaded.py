"""The thread-parallel engine (``csr-mt``): registration, parity, planning.

The engine's contract mirrors the sharded engine's: windows are an
execution detail, never a semantic one - every primitive must be
bit-identical to the wrapped base engine.  Covers:

* registration - present exactly when numpy is (gated with the csr
  engine), never the implicit default;
* parity - unweighted / masked / subset / weighted sweeps against the
  base engine, with real thread fanout forced via ``min_batch=1``;
* fallbacks - exact-scheme weighted sweeps run inline on the base
  engine (the reference loops are GIL-bound), tiny requests degrade to
  the base engine, harness pool workers never nest thread pools;
* planning - ``$REPRO_THREADS`` budget, ``halved()``, min-batch floors;
* lifecycle - abandoned generators leave the persistent pool reusable.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.engine import (
    ThreadedEngine,
    available_engines,
    distances_equal,
    get_engine,
)
from repro.engine.threaded import THREADS_ENV_VAR
from repro.graphs import connected_gnp_graph
from repro.harness.parallel import WORKER_ENV_VAR
from repro.spt.spt_tree import build_spt
from repro.spt.weights import make_weights


@pytest.fixture(scope="module")
def instance():
    graph = connected_gnp_graph(90, 0.08, seed=7)
    weights = make_weights(graph, "random", seed=3)
    tree = build_spt(graph, weights, 0)
    return graph, weights, tree


def _forced(threads: int = 4) -> ThreadedEngine:
    """An engine that genuinely windows (no min-batch degrade)."""
    return ThreadedEngine(max_threads=threads, min_batch=1)


class TestRegistration:
    def test_registered_with_numpy(self):
        assert "csr-mt" in available_engines()
        assert get_engine("csr-mt").name == "csr-mt"

    def test_never_the_implicit_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert get_engine().name != "csr-mt"

    def test_base_engine_defaults_to_best_kernels(self):
        """csr, whose kernels are C whenever a toolchain built them; any
        forced base still wins."""
        assert get_engine("csr-mt").base_engine() is get_engine("csr")
        assert ThreadedEngine(base="python").base_engine().name == "python"

    def test_advertises_threads_and_segments(self):
        engine = get_engine("csr-mt")
        assert THREADS_ENV_VAR in engine.threads
        assert "zero-copy" in engine.plane_segments
        assert engine.parallel_sweeps is True


class TestParity:
    def test_failure_sweep_bit_identical(self, instance):
        graph, _, _ = instance
        eids = list(range(graph.num_edges))
        reference = list(get_engine("csr").failure_sweep(graph, 0, eids))
        got = list(_forced().failure_sweep(graph, 0, eids))
        assert len(got) == len(reference)
        for ref, item in zip(reference, got):
            assert distances_equal(ref, item)

    def test_masked_sweep_bit_identical(self, instance):
        graph, _, tree = instance
        h_edges = set(tree.tree_edges())
        eids = sorted(h_edges)
        reference = list(
            get_engine("csr").failure_sweep(graph, 0, eids, allowed_edges=h_edges)
        )
        got = list(
            _forced().failure_sweep(graph, 0, eids, allowed_edges=h_edges)
        )
        for ref, item in zip(reference, got):
            assert distances_equal(ref, item)

    def test_subset_preserves_request_order(self, instance):
        graph, _, _ = instance
        eids = list(range(graph.num_edges - 1, -1, -3))  # descending ids
        reference = list(get_engine("csr").failure_sweep(graph, 0, eids))
        got = list(_forced(threads=3).failure_sweep(graph, 0, eids))
        for ref, item in zip(reference, got):
            assert distances_equal(ref, item)

    def test_weighted_sweep_bit_identical(self, instance):
        graph, weights, tree = instance
        assert list(_forced().weighted_failure_sweep(graph, weights, tree)) == list(
            get_engine("csr").weighted_failure_sweep(graph, weights, tree)
        )

    def test_weighted_subset_bit_identical(self, instance):
        graph, weights, tree = instance
        sample = tree.tree_edges()[::2]
        assert list(
            _forced(threads=3).weighted_failure_sweep(
                graph, weights, tree, eids=sample
            )
        ) == list(
            get_engine("csr").weighted_failure_sweep(
                graph, weights, tree, eids=sample
            )
        )

    def test_python_base_parity(self, instance):
        """Any base can be forced; windows run its own sweep handle."""
        graph, _, _ = instance
        eids = list(range(0, graph.num_edges, 2))
        reference = list(get_engine("python").failure_sweep(graph, 0, eids))
        engine = ThreadedEngine(base="python", max_threads=2, min_batch=1)
        got = list(engine.failure_sweep(graph, 0, eids))
        for ref, item in zip(reference, got):
            assert distances_equal(ref, item)

    def test_exact_scheme_falls_back_inline(self, instance):
        """The exact scheme has no array plan: the sweep must run on the
        base engine (bit-identically), not die in a window."""
        graph, _, _ = instance
        exact = make_weights(graph, "exact")
        tree = build_spt(graph, exact, 0)
        sample = tree.tree_edges()[:20]
        assert list(
            _forced().weighted_failure_sweep(graph, exact, tree, eids=sample)
        ) == list(
            get_engine("csr").weighted_failure_sweep(
                graph, exact, tree, eids=sample
            )
        )

    def test_delegated_primitives_match_base(self, instance):
        graph, weights, _ = instance
        engine = get_engine("csr-mt")
        base = get_engine("csr")
        assert distances_equal(
            engine.distances(graph, 0), base.distances(graph, 0)
        )
        assert engine.parents(graph, 0) == base.parents(graph, 0)
        assert engine.shortest_paths(graph, weights, 0).dist == (
            base.shortest_paths(graph, weights, 0).dist
        )


class TestPlanning:
    def test_min_batch_degrades_to_inline(self):
        engine = ThreadedEngine(max_threads=8, min_batch=64)
        assert engine._plan(63) == 1  # below one batch: run on the base
        assert engine._plan(128) == 2

    def test_thread_budget_env_var(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert ThreadedEngine()._thread_budget() == 3
        assert "3 threads" in ThreadedEngine().threads

    def test_explicit_cap_beats_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "16")
        assert ThreadedEngine(max_threads=2)._thread_budget() == 2

    def test_harness_worker_runs_inline(self, instance, monkeypatch):
        """Sweeps inside a harness pool worker must not nest a thread
        pool on top of an already-full machine."""
        monkeypatch.setenv(WORKER_ENV_VAR, "1")
        engine = _forced()
        assert engine._plan(10_000) == 1
        graph, _, _ = instance
        eids = list(range(0, graph.num_edges, 4))
        reference = list(get_engine("csr").failure_sweep(graph, 0, eids))
        for ref, item in zip(reference, engine.failure_sweep(graph, 0, eids)):
            assert distances_equal(ref, item)

    def test_halved_shares_the_budget(self):
        engine = ThreadedEngine(max_threads=6, min_batch=1)
        half = engine.halved()
        assert half._thread_budget() == 3
        assert half._effective_min_batch() == engine._effective_min_batch()
        assert ThreadedEngine(max_threads=1).halved()._thread_budget() == 1

    def test_verify_upgrade_prefers_csr_mt_without_shm(
        self, instance, monkeypatch
    ):
        """Large-graph verification falls back to thread windows when the
        shared-memory shard transport is unavailable - the regime where
        process sharding would re-pickle the graph per shard."""
        from repro.core.verify import _resolve_engine

        graph, _, _ = instance
        monkeypatch.setenv("REPRO_SHARD_THRESHOLD", "1")
        monkeypatch.setenv("REPRO_SHM", "0")
        assert _resolve_engine(graph, None).name == "csr-mt"
        # an explicit engine always wins over the upgrade
        assert _resolve_engine(graph, "csr").name == "csr"


class TestLifecycle:
    def test_abandoned_generator_is_harmless(self, instance):
        """verify's max_violations early exit: close mid-stream, then
        the persistent pool still serves a fresh sweep correctly."""
        graph, _, _ = instance
        engine = _forced()
        eids = list(range(graph.num_edges))
        gen = engine.failure_sweep(graph, 0, eids)
        next(gen)
        gen.close()
        reference = list(get_engine("csr").failure_sweep(graph, 0, eids))
        for ref, item in zip(reference, engine.failure_sweep(graph, 0, eids)):
            assert distances_equal(ref, item)

    def test_sweeps_are_lazy(self, instance):
        """Like every engine: no work (and no error) before first next()."""
        graph, _, _ = instance
        exact = make_weights(graph, "exact")
        tree = build_spt(graph, exact, 0)
        gen = _forced().weighted_failure_sweep(graph, exact, tree)
        gen.close()  # never consumed: must not have started anything
