"""Batched replacement subsystem benchmark: sweep + detour batch (PR 4).

Times the two primitives the PR 4 refactor introduced, per engine, on
the same G(n, p) instance as ``bench_weighted.py``:

* the ``ReplacementEngine`` constructor - its fill of every tree-edge
  failure, which rides ``weighted_failure_sweep`` (stacked subtree
  recomputes on the csr engine vs the per-edge reference loop on
  python);
* the Pcons detour batch - ``batched_shortest_paths`` over the T0
  paths of a deep-vertex sample, the exact shape ``run_pcons`` submits:
  each search bans its path's interior, stops at the radius of the
  path's off-path neighbours and hands back its escape table.

Outputs are asserted bit-identical between engines first (the
replacement rows, and every search's escape table), so each timing row
doubles as a parity certificate.  The acceptance floor is a 2x
csr-over-python speedup on the combined (sweep + detours) time of the
full-size instance - the detours dominate it - plus a looser
per-component sanity floor (the sweep's absolute time is sub-second on
G(n, p), so its ratio is noise-prone).  The floors and the measured
ratios land in ``params["floors"]`` / ``derived["speedups"]``, where
``tools/perf_guard.py`` reads them.  Quick mode
(``REPRO_BENCH_QUICK=1``) shrinks the instance and holds the ratios to
relaxed sanity floors only.  Saves ``BENCH_replacement.json``.

The csr-only stacked paths are exercised implicitly: without numpy this
module skips entirely (the no-numpy CI job proves the library itself
imports and passes tier-1 on the pure-python engine).
"""

import gc
import hashlib
import time

import pytest

pytest.importorskip("numpy")

from repro.engine import engine_context, get_engine
from repro.graphs import connected_gnp_graph
from repro.harness import ExperimentRecord, save_record
from repro.spt.replacement import ReplacementEngine
from repro.spt.spt_tree import build_spt
from repro.spt.weights import make_weights

#: Acceptance floor for the combined sweep + detours time, full-size run.
SPEEDUP_FLOOR = 2.0

#: Per-component regression sanity floor (full-size run).
COMPONENT_FLOOR = 1.2

#: Quick-mode sanity floor for every ratio: the small instance only
#: proves csr is not pathologically slower, not the real margins.
_QUICK_SANITY = 1.0

#: Detour sample cap: enough sources to dominate dispatch overhead
#: without turning the python row into a full pcons run.
_MAX_DETOUR_SOURCES = 1200


def _instance(quick: bool):
    n, deg = (1500, 12.0) if quick else (5000, 20.0)
    return connected_gnp_graph(n, deg / (n - 1), seed=0)


def test_replacement_sweep_and_detour_speedup(benchmark, quick_mode, bench_seed):
    graph = _instance(quick_mode)
    assert quick_mode or graph.num_edges >= 50_000
    weights = make_weights(graph, "random", seed=bench_seed)
    tree = build_spt(graph, weights, 0)

    # The Pcons detour shape: the T0 paths of deep vertices (sampled
    # deterministically; the floor is about relative engine speed, not
    # workload size).
    deep = [v for v in tree.preorder if tree.depth[v] >= 2]
    step = max(1, len(deep) // _MAX_DETOUR_SOURCES)
    sources = deep[::step][:_MAX_DETOUR_SOURCES]
    paths = [tree.path_vertices(v) for v in sources]

    timings = {"python": {}, "csr": {}}

    # Sweeps first, in a clean process state (the detour phase below
    # materializes millions of big-int distances whose memory pressure
    # would otherwise pollute these sub-second timings); best-of-3 with
    # a fresh engine per round keeps the row noise-robust.
    rows = {}
    for name in ("python", "csr"):
        gc.collect()
        with engine_context(name):
            sweep_times = []
            for round_ in range(3):
                t0 = time.perf_counter()
                if name == "csr" and round_ == 0:
                    engine = benchmark.pedantic(
                        ReplacementEngine, (tree,), rounds=1, iterations=1
                    )
                else:
                    engine = ReplacementEngine(tree)
                sweep_times.append(time.perf_counter() - t0)
        timings[name]["sweep"] = min(sweep_times)
        rows[name] = engine.export_arrays()
        del engine

    # Bit-identical output is a precondition of the timing comparison.
    assert rows["python"] == rows["csr"]
    rows.clear()

    # Detours: parity via per-search digests of the escape tables, so
    # neither engine's searches stay resident while the other is timed.
    digests = {}
    for name in ("python", "csr"):
        gc.collect()
        with engine_context(name):
            t0 = time.perf_counter()
            digests[name] = [
                hashlib.sha256(repr(found.escapes).encode()).hexdigest()
                for found in get_engine().batched_shortest_paths(
                    graph, weights, paths
                )
            ]
            timings[name]["detours"] = time.perf_counter() - t0
    assert digests["python"] == digests["csr"]

    if quick_mode:
        floors = dict.fromkeys(("combined", "sweep", "detours"), _QUICK_SANITY)
    else:
        floors = {
            "combined": SPEEDUP_FLOOR,
            "sweep": COMPONENT_FLOOR,
            "detours": COMPONENT_FLOOR,
        }

    record = ExperimentRecord(
        experiment_id="BENCH_replacement",
        title="Batched replacement subsystem: sweep + detour batch per engine",
        columns=[
            "component", "engine", "backend", "n", "m",
            "batches", "t_s", "speedup_vs_python",
        ],
        params={
            "quick": quick_mode,
            "seed": bench_seed,
            "floors": floors,
        },
    )
    speedups = {}
    for component, backend_attr, batches in (
        ("sweep", "replacement_backend", tree.num_reachable - 1),
        ("detours", "detour_backend", len(sources)),
        ("combined", "replacement_backend", None),
    ):
        for name in ("python", "csr"):
            if component == "combined":
                t = sum(timings[name].values())
                backend = "sweep + detours"
                batches = tree.num_reachable - 1 + len(sources)
            else:
                t = timings[name][component]
                backend = getattr(get_engine(name), backend_attr)
            speedup = (
                sum(timings["python"].values())
                if component == "combined"
                else timings["python"][component]
            ) / max(t, 1e-9)
            speedups[component] = round(speedup, 3)  # last (csr) wins
            record.add_row(
                component, name, backend,
                graph.num_vertices, graph.num_edges, batches,
                round(t, 3), round(speedup, 2),
            )
    record.derived["speedups"] = speedups
    record.note(
        "sweep = the ReplacementEngine constructor via weighted_failure_sweep; "
        "detours = batched_shortest_paths over the T0 paths of deep "
        "vertices, each search handing back its escape table"
    )
    record.note(
        f"acceptance floors (full-size instance, >= 50k edges, random "
        f"scheme): {SPEEDUP_FLOOR}x combined, {COMPONENT_FLOOR}x per "
        f"component; quick mode: {_QUICK_SANITY}x sanity floors"
    )
    print()
    print(record.render())
    save_record(record)

    failures = [
        f"{key}: {speedups[key]:.2f}x below the {floors[key]}x floor"
        for key in floors
        if speedups[key] < floors[key]
    ]
    assert not failures, "; ".join(failures)
