"""Batched replacement subsystem benchmark: sweep + detour batch (PR 4).

Times the two primitives the PR 4 refactor introduced, per engine, on
the same G(n, p) instance as ``bench_weighted.py``:

* the ``ReplacementEngine`` constructor - its fill of every tree-edge
  failure, which rides ``weighted_failure_sweep`` (stacked subtree
  recomputes on the csr engine vs the per-edge reference loop on
  python);
* the Pcons detour batch - ``batched_shortest_paths`` over a deep-vertex
  sample with path-interior bans and the off-path neighbours of each
  path as targets, the exact shape ``run_pcons`` submits.

Outputs are asserted bit-identical between engines first, so each
timing row doubles as a parity certificate.  The acceptance floor is a
2x csr-over-python speedup on the combined (sweep + detours) time of
the full-size instance - the detours dominate it - plus a looser
per-component sanity floor (the sweep's absolute time is sub-second on
G(n, p), whose shallow trees leave it mostly dict-building; its
measured margin is ~2x but noise-prone).  Quick mode
(``REPRO_BENCH_QUICK=1``) shrinks the instance and asserts parity only.
Saves ``BENCH_replacement.json``.

The csr-only stacked paths are exercised implicitly: without numpy this
module skips entirely (the no-numpy CI job proves the library itself
imports and passes tier-1 on the pure-python engine).
"""

import gc
import hashlib
import time

import pytest

pytest.importorskip("numpy")

from repro.core.pcons import _detour_targets
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

    # The Pcons detour shape: deep vertices banned from their own path
    # interiors, each stopping at the radius of its path's off-path
    # neighbours (sampled deterministically; the floor is about relative
    # engine speed, not workload size).
    deep = [v for v in tree.preorder if tree.depth[v] >= 2]
    step = max(1, len(deep) // _MAX_DETOUR_SOURCES)
    sources = deep[::step][:_MAX_DETOUR_SOURCES]
    bans = [set(tree.path_vertices(v)) - {v} for v in sources]
    targets = [_detour_targets(graph, tree.path_vertices(v)) for v in sources]

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

    # Detours: parity via per-source digests so neither engine's full
    # result set stays resident while the other is timed.
    digests = {}
    for name in ("python", "csr"):
        gc.collect()
        with engine_context(name):
            t0 = time.perf_counter()
            detours = list(
                get_engine().batched_shortest_paths(
                    graph, weights, sources, bans, targets
                )
            )
            t1 = time.perf_counter()
        timings[name]["detours"] = t1 - t0
        digests[name] = [
            hashlib.sha256(
                repr((sp.dist, sp.parent, sp.parent_eid)).encode()
            ).hexdigest()
            for sp in detours
        ]
        del detours
    assert digests["python"] == digests["csr"]

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
            "speedup_floor": SPEEDUP_FLOOR if not quick_mode else 1.0,
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
            speedups[component] = speedup  # last (csr) wins
            record.add_row(
                component, name, backend,
                graph.num_vertices, graph.num_edges, batches,
                round(t, 3), round(speedup, 2),
            )
    record.note(
        "sweep = the ReplacementEngine constructor via weighted_failure_sweep; "
        "detours = batched_shortest_paths over deep vertices with path bans "
        "and Pcons's target sets"
    )
    record.note(
        f"acceptance floors (full-size instance, >= 50k edges, random "
        f"scheme): {SPEEDUP_FLOOR}x combined, {COMPONENT_FLOOR}x per "
        "component; quick mode asserts parity only"
    )
    print()
    print(record.render())
    save_record(record)

    if quick_mode:
        return
    for component, speedup in speedups.items():
        floor = SPEEDUP_FLOOR if component == "combined" else COMPONENT_FLOOR
        assert speedup >= floor, (
            f"{component} speedup {speedup:.2f}x below the {floor}x floor"
        )
