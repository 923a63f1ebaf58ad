"""Compiled kernel benchmark: csr's C vs numpy kernels.

Times the sweep hot pair on growing G(n, p) instances on csr's numpy
kernels (``CSREngine()``, or ``REPRO_CC=0`` where a call goes through
the registry) and on the default csr's C kernels, at three levels:

* ``base``: sweep-handle construction - the ordered base BFS plus the
  Euler walk (one foreign call in C);
* ``sweep``: a full all-edges failure sweep - dominated by the
  per-failure subtree recomputes;
* ``verify``: end-to-end ``verify_subgraph`` with H = G (two sweep
  sides plus the engine-independent oracle bookkeeping).

Floor asserted on the full-size run: the compiled sweep must beat the
numpy kernels by ``_SWEEP_FLOOR`` on the G(4000, ~48k edges) row
(measured ~3.5-4x).  Parity is asserted row by row, so every timing doubles as a bit-identity
certificate.  The compile toolchain (cc version, flags, kernel cache
path) is stamped into the record's params so the trajectory stays
comparable across hosts.  The floor keys keep their names: ``csr`` is
the numpy kernels, ``csrc`` the C kernels.  Saves
``BENCH_compiled.json``.  Skips without numpy or a C compiler (the
no-numpy and no-compiler CI jobs assert the corresponding gating).
"""

import os
import time

import pytest

pytest.importorskip("numpy")

from repro.engine import distances_equal, get_engine
from repro.engine import cbuild
from repro.engine.csr_engine import CSREngine
from repro.core.verify import verify_subgraph
from repro.graphs import connected_gnp_graph
from repro.harness import ExperimentRecord, save_record

#: The compiled sweep hot pair must beat the numpy kernels by this much
#: end to end on the largest instance (measured ~3.5-4x).
_SWEEP_FLOOR = 1.3


def _instances(quick: bool):
    if quick:
        return [(300, 10.0), (1200, 14.0)]
    return [(1000, 12.0), (4000, 24.0)]


def _sweep_all(engine, graph, eids):
    """Every failure of ``eids`` on a fresh sweep handle (base BFS
    included, so both tiers pay the same work per timing)."""
    handle = engine.sweep(graph, 0)
    return [handle.failed(eid) for eid in eids]


def _best_of(reps, fn):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_compiled_kernels_vs_csr(benchmark, quick_mode, bench_seed, monkeypatch):
    if cbuild.kernel_library() is None:
        pytest.skip("no C compiler (or the kernels failed to build)")

    def on_numpy(fn):
        """``fn`` with csr on its numpy kernels (``REPRO_CC=0``)."""
        def run():
            with monkeypatch.context() as patch:
                patch.setenv(cbuild.CC_ENV_VAR, "0")
                return fn()
        return run

    record = ExperimentRecord(
        experiment_id="BENCH_compiled",
        title="compiled sweep kernels: csr C vs numpy wall-clock",
        params={
            "quick": quick_mode,
            "seed": bench_seed,
            "cores": os.cpu_count() or 1,
            "toolchain": cbuild.toolchain_info(),
        },
        columns=[
            "n", "m",
            "base_csr_s", "base_c_s",
            "sweep_csr_s", "sweep_c_s",
            "verify_csr_s", "verify_c_s",
        ],
    )
    csr = CSREngine()
    compiled = get_engine("csr")
    reps = 2 if quick_mode else 3

    for index, (n, deg) in enumerate(_instances(quick_mode)):
        graph = connected_gnp_graph(n, deg / (n - 1), seed=bench_seed)
        eids = list(range(graph.num_edges))
        h_edges = set(eids)

        base_csr, _ = _best_of(reps, lambda: csr.sweep(graph, 0))
        base_c, _ = _best_of(reps, lambda: compiled.sweep(graph, 0))

        sweep_csr, ref = _best_of(reps, lambda: _sweep_all(csr, graph, eids))
        if index == len(_instances(quick_mode)) - 1:
            t0 = time.perf_counter()
            got = benchmark.pedantic(
                lambda: _sweep_all(compiled, graph, eids),
                rounds=1, iterations=1,
            )
            sweep_c = time.perf_counter() - t0
        else:
            sweep_c, got = _best_of(
                reps, lambda: _sweep_all(compiled, graph, eids)
            )
        assert len(got) == len(ref)
        for r, g in zip(ref, got):
            assert distances_equal(r, g)

        verify_csr, rep_ref = _best_of(
            reps,
            on_numpy(lambda: verify_subgraph(graph, 0, h_edges, engine="csr")),
        )
        verify_c, rep_c = _best_of(
            reps, lambda: verify_subgraph(graph, 0, h_edges, engine="csr")
        )
        assert rep_ref.ok and rep_c.ok
        assert rep_c.checked_failures == rep_ref.checked_failures

        record.add_row(
            n, graph.num_edges,
            round(base_csr, 4), round(base_c, 4),
            round(sweep_csr, 4), round(sweep_c, 4),
            round(verify_csr, 4), round(verify_c, 4),
        )
        if index == len(_instances(quick_mode)) - 1:
            # Floor + measured ratio for tools/perf_guard.py (quick runs
            # stamp a sanity floor; the assert below stays
            # full-size-only).
            record.params["floors"] = {
                "sweep_csrc_vs_csr": 0.7 if quick_mode else _SWEEP_FLOOR,
            }
            record.derived["speedups"] = {
                "sweep_csrc_vs_csr": round(sweep_csr / max(sweep_c, 1e-9), 3),
            }
        if not quick_mode and index == len(_instances(quick_mode)) - 1:
            assert sweep_c <= sweep_csr / _SWEEP_FLOOR, (
                f"compiled sweep speedup below the {_SWEEP_FLOOR}x floor on "
                f"n={n}: numpy {sweep_csr:.3f}s vs C {sweep_c:.3f}s"
            )

    record.note(
        "best-of timing per cell.  base = sweep-handle build (ordered BFS "
        "+ Euler walk); sweep = all-edges failure sweep; verify = "
        "verify_subgraph with H = G.  The sweep floor is asserted only "
        "on full-size runs; the verify floor lives in "
        "tests/test_engine_perf.py."
    )
    print()
    print(record.render())
    save_record(record)
