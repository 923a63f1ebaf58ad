"""Performance acceptance check for the csr traversal engine.

The engine refactor's headline claim: ``verify_structure`` on the
standard G(n=300, p=0.05) workload is at least 3x faster on the csr
engine than on the pure-Python reference (which is byte-for-byte the
pre-refactor implementation).  Measured relative, same process, best of
three - immune to absolute machine speed; the real margin is >10x, so
the 3x floor has plenty of headroom even on loaded CI workers.
"""

import time

import pytest

pytest.importorskip("numpy")  # the csr engine under test is numpy-gated

from repro.core import build_epsilon_ftbfs, verify_structure
from repro.graphs import connected_gnp_graph


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_csr_verify_at_least_3x_faster_than_reference():
    graph = connected_gnp_graph(300, 0.05, seed=0)
    structure = build_epsilon_ftbfs(graph, 0, 0.25)

    # Warm both paths (CSR view build, numpy first-touch) outside timing.
    ref = verify_structure(structure, engine="python")
    fast = verify_structure(structure, engine="csr")
    assert ref.ok and fast.ok
    assert ref.checked_failures == fast.checked_failures

    t_python = _best_of(1, lambda: verify_structure(structure, engine="python"))
    t_csr = _best_of(3, lambda: verify_structure(structure, engine="csr"))
    speedup = t_python / t_csr
    assert speedup >= 3.0, (
        f"csr verify speedup {speedup:.2f}x below the 3x acceptance floor "
        f"(python {t_python:.3f}s, csr {t_csr:.3f}s)"
    )


def _numpy_then_c(monkeypatch, fn, reps=3):
    """``fn()`` timed (best of ``reps``, after a warm-up call whose
    result is returned) on csr's numpy kernels under ``REPRO_CC=0``,
    then on its C kernels: ``(t_numpy, out_numpy, t_c, out_c)``."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_CC", "0")
        out_numpy = fn()
        t_numpy = _best_of(reps, fn)
    out_c = fn()
    return t_numpy, out_numpy, _best_of(reps, fn), out_c


def test_compiled_verify_at_least_1_3x_faster_than_csr(monkeypatch):
    """The compiled kernels' headline claim: end-to-end verification is
    at least 1.3x faster on csr's C kernels than on its numpy kernels
    (``REPRO_CC=0``) on a mid-size G(n, p) (measured ~2-2.5x; the floor
    leaves headroom for loaded CI workers).  Skipped where no C
    toolchain is available."""
    from repro.engine import cbuild

    if cbuild.kernel_library() is None:
        pytest.skip("no C compiler (or the kernels failed to build)")
    from repro.core.verify import verify_subgraph

    graph = connected_gnp_graph(1000, 12.0 / 999, seed=3)
    h_edges = set(range(graph.num_edges))  # H = G: every edge a candidate

    t_np, ref, t_c, fast = _numpy_then_c(
        monkeypatch, lambda: verify_subgraph(graph, 0, h_edges, engine="csr")
    )
    assert ref.ok and fast.ok
    assert ref.checked_failures == fast.checked_failures
    speedup = t_np / t_c
    assert speedup >= 1.3, (
        f"C verify speedup {speedup:.2f}x below the 1.3x acceptance floor "
        f"(numpy {t_np:.3f}s, C {t_c:.3f}s)"
    )


def test_oracle_floors():
    """Tier-1-sized floors for PR 9's query path (the full-size numbers
    with the 50x / 20x acceptance floors live in
    ``benchmarks/bench_oracle.py``).  Scaled down: a cached
    single-failure query must beat a per-query engine recompute by >=
    10x at p50, and ``load_structure`` must beat rebuilding the
    structure (tree + replacement sweep) by >= 5x - margins measured in
    the hundreds, so plenty of headroom on loaded CI workers."""
    import random
    import statistics

    from repro.engine import get_engine
    from repro.oracle import QueryOracle, load_structure, save_structure
    from repro.spt import build_spt, make_weights
    from repro.spt.replacement import ReplacementEngine

    graph = connected_gnp_graph(1000, 8.0 / 999, seed=3)
    weights = make_weights(graph, "random", seed=3)

    def build():
        tree = build_spt(graph, weights, 0)
        ReplacementEngine(tree)
        return tree

    t_build = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        tree = build()
        t_build = min(t_build, time.perf_counter() - t0)

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perf.snap")
        save_structure(path, tree)
        t_load = _best_of(3, lambda: load_structure(path).close())
        load_speedup = t_build / t_load
        assert load_speedup >= 5.0, (
            f"load_structure speedup {load_speedup:.1f}x below the 5x floor "
            f"(build {t_build:.3f}s, load {t_load:.3f}s)"
        )

        structure = load_structure(path)
        oracle = QueryOracle(structure)
        rng = random.Random(7)
        tree_eids = sorted({pe for pe in tree.parent_eid if pe >= 0})
        cases = [
            (rng.randrange(graph.num_vertices), rng.choice(tree_eids))
            for _ in range(64)
        ]
        engine = get_engine()
        oracle.dist(cases[0][0], [cases[0][1]])  # warm

        def timed(fn):
            samples = []
            for v, eid in cases:
                t0 = time.perf_counter()
                fn(v, eid)
                samples.append(time.perf_counter() - t0)
            return statistics.median(samples)

        q_oracle = timed(lambda v, eid: oracle.dist(v, [eid]))
        q_recompute = timed(
            lambda v, eid: engine.shortest_paths(
                graph, weights, 0, banned_edges={eid}
            ).dist[v]
        )
        query_speedup = q_recompute / q_oracle
        structure.close()
        assert query_speedup >= 10.0, (
            f"cached query speedup {query_speedup:.1f}x below the 10x floor "
            f"(recompute p50 {q_recompute * 1e6:.0f}us, "
            f"oracle p50 {q_oracle * 1e6:.0f}us)"
        )


def test_compiled_weighted_floors(monkeypatch):
    """The compiled *weighted* stack's floors, tier-1-sized.

    The real acceptance numbers live in ``benchmarks/bench_weighted.py``
    on the full-size G(5000, ~50k edges) instance (>= 1.3x end-to-end
    ``run_pcons``, >= 1.5x ``weighted_failure_sweep``, C over numpy).
    This test keeps a scaled-down version in every tier-1 run: on
    mid-size instances the pcons margin is already the full one
    (measured ~2.4x at n=1000).  The sweep's floor here stays 1.1x,
    far below its one-pass C margin (~7x at n=2500: 56-69 ms on numpy,
    7.5-9.7 ms in C) - enough to catch the compiled path silently
    degrading to the inherited numpy kernels."""
    from repro.engine import ReplacementRows, cbuild, engine_context, get_engine
    from repro.engine.csr_engine import CSREngine

    if cbuild.kernel_library() is None:
        pytest.skip("no C compiler (or the kernels failed to build)")
    from repro.core.pcons import run_pcons
    from repro.spt import build_spt, make_weights

    graph = connected_gnp_graph(1000, 12.0 / 999, seed=3)
    with engine_context("csr"):
        t_np, on_np, t_c, on_c = _numpy_then_c(
            monkeypatch,
            lambda: run_pcons(graph, 0, weight_scheme="random", seed=1),
            reps=1,
        )
    assert on_np.pairs.pairs == on_c.pairs.pairs
    pcons_speedup = t_np / t_c
    assert pcons_speedup >= 1.3, (
        f"C run_pcons speedup {pcons_speedup:.2f}x below the 1.3x floor "
        f"(numpy {t_np:.3f}s, C {t_c:.3f}s)"
    )

    sweep_graph = connected_gnp_graph(2500, 16.0 / 2499, seed=3)
    weights = make_weights(sweep_graph, "random", seed=3)
    tree = build_spt(sweep_graph, weights, 0)
    sweeps = {}
    for name, eng in (("numpy", CSREngine()), ("c", get_engine("csr"))):
        def sweep():
            return ReplacementRows.concat(
                eng.weighted_failure_sweep(sweep_graph, weights, tree)
            )

        out = sweep()
        sweeps[name] = (_best_of(3, sweep), out)
    # The contract binds the concatenated rows, not the blocking.
    assert sweeps["numpy"][1] == sweeps["c"][1]
    sweep_speedup = sweeps["numpy"][0] / sweeps["c"][0]
    assert sweep_speedup >= 1.1, (
        f"C weighted sweep speedup {sweep_speedup:.2f}x below the 1.1x "
        f"floor (numpy {sweeps['numpy'][0]:.3f}s, C {sweeps['c'][0]:.3f}s)"
    )


#: Traced-memory bound of the C weighted sweep, per row entry.
SWEEP_BYTES_PER_ENTRY = 1024


def test_compiled_sweep_memory_grows_with_its_rows():
    """The C sweep writes each failure's row straight into the output
    planes and keeps scratch the size of its largest subtree, so the
    traced peak of a whole sweep grows with its row entries, not with
    failures times n: at most ``SWEEP_BYTES_PER_ENTRY`` per entry on
    G(1500, 30/1499), 3,932 entries (~220 B each measured).  A stacked
    ``B * n`` relaxation state reads ~20 KB per entry there."""
    import tracemalloc

    from repro.engine import ReplacementRows, cbuild, get_engine
    from repro.spt import build_spt, make_weights

    if cbuild.kernel_library() is None:
        pytest.skip("no C compiler (or the kernels failed to build)")
    graph = connected_gnp_graph(1500, 30 / 1499, seed=4)
    weights = make_weights(graph, "random", seed=1)
    tree = build_spt(graph, weights, 0)
    engine = get_engine("csr")

    def sweep():
        return ReplacementRows.concat(
            engine.weighted_failure_sweep(graph, weights, tree)
        )

    sweep()  # builds the cached CSR view and perturbation export
    tracemalloc.start()
    try:
        rows = sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = len(rows.repl_hop)
    assert peak <= SWEEP_BYTES_PER_ENTRY * entries, (
        f"sweep peak {peak} B over {entries} row entries "
        f"({peak / entries:.0f} B each) above the "
        f"{SWEEP_BYTES_PER_ENTRY} B bound"
    )


def test_phase_s1_at_least_5x_faster_on_csr():
    """Phase S1's interference classification in C: ``run_phase_s1``
    on a Theorem 5.1 gadget (two S1 iterations, ~1400 uncovered pairs)
    is at least 5x faster under csr than under the python spec, with
    identical output (measured ~20x; the C path's per-index array build
    is inside the timed region, as it is inside a build).  Best of
    three, each on a fresh index."""
    import math

    from repro.core.interference import InterferenceIndex
    from repro.core.pcons import run_pcons
    from repro.core.phase_s1 import run_phase_s1
    from repro.engine import cbuild, engine_context
    from repro.lower_bounds import build_theorem51

    if cbuild.kernel_library() is None:
        pytest.skip("no C compiler (or the kernels failed to build)")
    lb = build_theorem51(700, 0.2, d=10, k=4, x_size=10)
    pc = run_pcons(lb.graph, lb.source)
    uncovered = pc.pairs.uncovered()
    n_eps = math.ceil(lb.graph.num_vertices ** 0.2)

    def phase_s1(engine):
        best, out = float("inf"), None
        for _ in range(3):
            index = InterferenceIndex(pc.tree, uncovered)
            edges = set(pc.tree.tree_edges())
            with engine_context(engine):
                t0 = time.perf_counter()
                s1 = run_phase_s1(
                    index, uncovered, n_eps=n_eps, k_bound=7,
                    structure_edges=edges,
                )
                best = min(best, time.perf_counter() - t0)
            out = (
                [r.pair_id for r in s1.i2],
                [[r.pair_id for r in c] for c in s1.c_sets],
                s1.iteration_log,
                sorted(edges),
            )
        return best, out

    t_python, ref = phase_s1("python")
    t_csr, fast = phase_s1("csr")
    assert fast == ref
    assert len(ref[2]) == 2, "the gadget no longer runs two S1 iterations"
    speedup = t_python / t_csr
    assert speedup >= 5.0, (
        f"csr Phase S1 speedup {speedup:.1f}x below the 5x floor "
        f"(python {t_python:.3f}s, csr {t_csr:.3f}s)"
    )
