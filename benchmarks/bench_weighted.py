"""Weighted fast path benchmark: construction runtime per engine.

Measures what the PR 3 refactor is for: the *construction* traversals
(the tree Dijkstra of ``build_spt``, the subtree-restricted replacement
recomputes, and the detour Dijkstras of ``Pcons``) under the random
weight scheme, on a G(n, p) with >= 50k edges, across the backend
stack: the python reference, the csr engine on its numpy kernels
(``REPRO_CC=0``; ``CSREngine()`` for the standalone sweep), and - when
a C compiler is around - the default csr on its C kernels, whose
weighted relaxation runs in ``_ckernels.c``.  Since PR 4 the csr engine
runs the replacement recomputes through the stacked
``weighted_failure_sweep`` and the detours through
``batched_shortest_paths``, which raised the acceptance floor from 3x
to a 4.5x end-to-end ``run_pcons`` speedup (``bench_replacement.py``
breaks the two components out); PR 8 adds the compiled rows with their
own floors - ``run_pcons`` and the standalone weighted failure sweep, C
over numpy.  The speedup keys keep their names: ``csr`` is the numpy
kernels, ``csrc`` the C kernels.  Outputs are asserted bit-identical
between backends first, so every timing row doubles as a parity
certificate.  The compile toolchain (cc version, flags, kernel
cache path) is stamped into the record's params, and the floors plus
the measured speedups land in ``params["floors"]`` /
``derived["speedups"]`` where ``tools/perf_guard.py`` reads them.
Saves ``BENCH_weighted.json``.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the instance so CI stays
short; the real floors apply only to the full-size run (tiny instances
sit in the regime where per-call numpy overhead flattens the margin),
quick mode asserts parity plus relaxed sanity floors.
"""

import time

from repro.core.pcons import run_pcons
from repro.engine import cbuild, engine_context, get_engine
from repro.engine.csr_engine import CSREngine
from repro.graphs import connected_gnp_graph
from repro.harness import ExperimentRecord, save_record

#: Acceptance floor for the full-size run (>= 50k edges, random scheme).
#: PR 3's weighted fast path measured ~3.6x; PR 4's batched replacement
#: subsystem (stacked sweep + detour batch) raised it past 4.5x.
SPEEDUP_FLOOR = 4.5

#: Compiled floors, C over numpy on the full-size instance: end-to-end
#: ``run_pcons`` (measured ~3x) and the standalone weighted failure
#: sweep (measured ~1.8x; the numpy seed intake the csr path keeps is a
#: large shared fraction of the sweep, so its margin is structurally
#: thinner than the pcons one).
COMPILED_PCONS_FLOOR = 1.3
COMPILED_SWEEP_FLOOR = 1.5

#: Quick-mode sanity floor for the compiled ratios: tiny instances only
#: prove the C kernels are not pathologically slower, not the real
#: margins.
_QUICK_SANITY = 0.7


def _instance(quick: bool):
    n, deg = (1500, 12.0) if quick else (5000, 20.0)
    return connected_gnp_graph(n, deg / (n - 1), seed=0)


#: The row of csr on its numpy kernels: the ``csr`` of the speedup keys.
NUMPY_ROW = "csr REPRO_CC=0"


def _rows():
    """Row labels: python, csr on numpy, and csr on C where it builds."""
    rows = ["python", NUMPY_ROW]
    if cbuild.kernel_library() is not None:
        rows.append("csr")
    return rows


def _best_of(reps, fn):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_weighted_construction_speedup(
    benchmark, quick_mode, bench_seed, monkeypatch
):
    graph = _instance(quick_mode)
    assert quick_mode or graph.num_edges >= 50_000
    engines = _rows()

    results = {}
    timings = {}
    backends = {}
    for name in engines:
        engine = "python" if name == "python" else "csr"
        with monkeypatch.context() as patch, engine_context(engine):
            if name == NUMPY_ROW:
                patch.setenv(cbuild.CC_ENV_VAR, "0")
            backends[name] = get_engine().weighted_backend
            if name == NUMPY_ROW:
                t0 = time.perf_counter()
                results[name] = benchmark.pedantic(
                    run_pcons,
                    args=(graph, 0),
                    kwargs={"weight_scheme": "random", "seed": bench_seed},
                    rounds=1,
                    iterations=1,
                )
                timings[name] = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                results[name] = run_pcons(
                    graph, 0, weight_scheme="random", seed=bench_seed
                )
                timings[name] = time.perf_counter() - t0

    # Bit-identical construction output is a precondition of the timing
    # comparison: same tree, same replacement distances, same pairs.
    ref = results["python"]
    for name in engines[1:]:
        fast = results[name]
        assert ref.tree.dist == fast.tree.dist, name
        assert ref.tree.parent == fast.tree.parent, name
        assert ref.tree.parent_eid == fast.tree.parent_eid, name
        assert ref.pairs.pairs == fast.pairs.pairs, name

    # The standalone weighted failure sweep, numpy vs C: the hot
    # primitive behind the replacement recomputes (and the shm/threaded
    # sharding), timed over one shared tree.
    sweep_engines = {NUMPY_ROW: CSREngine()}
    if "csr" in engines:
        sweep_engines["csr"] = get_engine("csr")
    tree, weights = results[NUMPY_ROW].tree, results[NUMPY_ROW].weights
    sweep_t = {}
    sweep_out = {}
    reps = 2 if quick_mode else 3
    for name, eng in sweep_engines.items():
        sweep_t[name], sweep_out[name] = _best_of(
            reps, lambda: list(eng.weighted_failure_sweep(graph, weights, tree))
        )
    for name in sweep_engines:
        assert sweep_out[name] == sweep_out[NUMPY_ROW], name

    if quick_mode:
        floors = {
            "pcons_csr_vs_python": 1.0,
            "pcons_csrc_vs_csr": _QUICK_SANITY,
            "sweep_csrc_vs_csr": _QUICK_SANITY,
        }
    else:
        floors = {
            "pcons_csr_vs_python": SPEEDUP_FLOOR,
            "pcons_csrc_vs_csr": COMPILED_PCONS_FLOOR,
            "sweep_csrc_vs_csr": COMPILED_SWEEP_FLOOR,
        }
    speedups = {
        "pcons_csr_vs_python": round(
            timings["python"] / max(timings[NUMPY_ROW], 1e-9), 3
        ),
    }
    if "csr" in engines:
        speedups["pcons_csrc_vs_csr"] = round(
            timings[NUMPY_ROW] / max(timings["csr"], 1e-9), 3
        )
        speedups["sweep_csrc_vs_csr"] = round(
            sweep_t[NUMPY_ROW] / max(sweep_t["csr"], 1e-9), 3
        )

    record = ExperimentRecord(
        experiment_id="BENCH_weighted",
        title="Weighted fast path: run_pcons + failure sweep per engine "
              "(random scheme)",
        columns=[
            "n", "m", "weight_scheme", "engine", "weighted_backend",
            "t_pcons_s", "speedup_vs_python", "t_sweep_s",
            "sweep_speedup_vs_csr", "pairs", "uncovered",
        ],
        params={
            "quick": quick_mode,
            "seed": bench_seed,
            "toolchain": cbuild.toolchain_info(),
            "floors": floors,
        },
    )
    record.derived["speedups"] = speedups
    for name in engines:
        record.add_row(
            graph.num_vertices,
            graph.num_edges,
            results[name].weights.scheme,
            name,
            backends[name],
            round(timings[name], 3),
            round(timings["python"] / max(timings[name], 1e-9), 2),
            round(sweep_t[name], 3) if name in sweep_t else None,
            round(sweep_t[NUMPY_ROW] / max(sweep_t[name], 1e-9), 2)
            if name in sweep_t else None,
            results[name].stats.num_pairs,
            results[name].stats.num_uncovered,
        )
    record.note(
        "construction path = build_spt + subtree replacement recomputes + "
        "detour Dijkstras (run_pcons end to end); t_sweep_s = standalone "
        "weighted_failure_sweep over the shared tree (best of "
        f"{reps}; python omitted: its reference loop is out of scale)"
    )
    record.note(
        f"acceptance floors (full-size, >= 50k edges, random scheme): "
        f"{SPEEDUP_FLOOR}x csr numpy vs python pcons; "
        f"{COMPILED_PCONS_FLOOR}x / {COMPILED_SWEEP_FLOOR}x C vs numpy "
        "pcons / sweep"
    )
    print()
    print(record.render())
    save_record(record)

    failures = [
        f"{key}: {speedups[key]:.2f}x below the {floors[key]}x floor"
        for key in speedups
        if speedups[key] < floors[key]
    ]
    assert not failures, "; ".join(failures)


def test_micro_weighted_sssp(benchmark, quick_mode):
    """One full random-scheme traversal on the default csr (multi-round)."""
    from repro.spt.weights import make_weights

    graph = _instance(True)
    weights = make_weights(graph, "random", seed=0)
    engine = get_engine("csr")
    engine.shortest_paths(graph, weights, 0)  # warm CSR view + pert cache
    result = benchmark(engine.shortest_paths, graph, weights, 0)
    assert result.dist[0] == 0
