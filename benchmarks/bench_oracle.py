"""Persistent oracle benchmark: snapshot load vs rebuild, query vs recompute.

Measures what the PR 9 oracle subsystem is for: answering
``dist(s, v | failed_edge)`` from the precomputed replacement rows in
O(path) array lookups instead of re-running a traversal, and bringing a
finished structure back with one ``mmap`` instead of rebuilding it.
Two ratios, both floor-asserted on the full-size run:

* ``load_vs_build`` - ``load_structure`` on a saved snapshot vs
  rebuilding the same structure live (``build_spt`` + the full
  replacement sweep a ``ReplacementEngine`` runs at construction).
  Floor 20x; measured in the thousands (the load is a header parse
  plus page mapping, so the ratio grows with instance size).
* ``query_cached_vs_recompute`` - p50 of a cached single-tree-failure
  ``QueryOracle.dist`` vs p50 of answering the same query with a fresh
  banned-edge traversal on the default engine.  Floor 50x; measured in
  the thousands.

A parity subsample is asserted before the timings, so the speedup rows
double as correctness certificates.  The toolchain, floors, and
measured speedups land in ``params["toolchain"]`` /
``params["floors"]`` / ``derived["speedups"]`` where
``tools/perf_guard.py`` reads them.  Saves ``BENCH_oracle.json``.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the instance and relaxes
the floors to sanity levels: tiny graphs sit where fixed per-call
overhead (engine dispatch, CSR cache lookups) flattens the margins the
full-size floors certify.
"""

import os
import random
import statistics
import time

from repro.engine import cbuild, get_engine
from repro.errors import TieBreakError
from repro.graphs import connected_gnp_graph
from repro.harness import ExperimentRecord, save_record
from repro.oracle import QueryOracle, load_structure, save_structure
from repro.spt import build_spt, make_weights
from repro.spt.replacement import ReplacementEngine

#: Full-size acceptance floors (ISSUE 9): cached query >= 50x a fresh
#: banned-edge traversal at p50, snapshot load >= 20x a live rebuild.
QUERY_FLOOR = 50.0
LOAD_FLOOR = 20.0

#: Quick-mode sanity floors: prove the oracle path is not degenerating
#: into recomputes, not the real margins.
_QUICK_QUERY_FLOOR = 5.0
_QUICK_LOAD_FLOOR = 3.0


def _instance(quick, seed):
    n, deg = (400, 6.0) if quick else (2500, 10.0)
    graph = connected_gnp_graph(n, deg / (n - 1), seed=seed)
    for attempt in range(8):
        weights = make_weights(graph, "random", seed=seed + attempt)
        try:
            build_spt(graph, weights, 0)
        except TieBreakError:
            continue
        return graph, weights
    raise AssertionError("no tie-free random weight assignment in 8 draws")


def _best_of(reps, fn):
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _percentiles(samples):
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    return p50, p99


def test_oracle_load_and_query_speedup(benchmark, quick_mode, bench_seed,
                                       tmp_path):
    graph, weights = _instance(quick_mode, bench_seed)

    def build():
        tree = build_spt(graph, weights, 0)
        ReplacementEngine(tree)
        return tree

    # The rebuild baseline: tree Dijkstra + the full replacement sweep,
    # i.e. everything the snapshot lets a consumer skip.
    benchmark.pedantic(build, rounds=1, iterations=1)
    t_build, tree = _best_of(1, build)

    # The save sweeps the replacement rows again before it writes.
    path = tmp_path / "oracle.snap"
    t_save, _ = _best_of(1, lambda: save_structure(path, tree))
    snapshot_bytes = os.path.getsize(path)
    reps = 3 if quick_mode else 5
    t_load, _ = _best_of(reps, lambda: load_structure(path).close())

    structure = load_structure(path)
    oracle = QueryOracle(structure)

    rng = random.Random(bench_seed + 17)
    tree_eids = sorted({pe for pe in tree.parent_eid if pe >= 0})
    num_cases = 64 if quick_mode else 256
    cases = [
        (rng.randrange(graph.num_vertices), rng.choice(tree_eids))
        for _ in range(num_cases)
    ]
    engine = get_engine()

    # Parity certificate on a subsample before anything is timed: the
    # cached answer must be bit-identical to a fresh banned-edge
    # traversal, including None for unreachable.
    for v, eid in cases[:16]:
        sp = engine.shortest_paths(graph, weights, 0, banned_edge=eid)
        assert oracle.dist(v, [eid]) == sp.dist[v], (v, eid)

    oracle.dist(cases[0][0], [cases[0][1]])  # warm
    q_samples = []
    for v, eid in cases:
        t0 = time.perf_counter()
        oracle.dist(v, [eid])
        q_samples.append(time.perf_counter() - t0)
    q_p50, q_p99 = _percentiles(q_samples)

    recompute_cases = cases[: 32 if quick_mode else 64]
    r_samples = []
    for v, eid in recompute_cases:
        t0 = time.perf_counter()
        engine.shortest_paths(graph, weights, 0, banned_edge=eid).dist[v]
        r_samples.append(time.perf_counter() - t0)
    r_p50, _ = _percentiles(r_samples)
    stats = oracle.stats.as_dict()
    structure.close()

    if quick_mode:
        floors = {"query_cached_vs_recompute": _QUICK_QUERY_FLOOR,
                  "load_vs_build": _QUICK_LOAD_FLOOR}
    else:
        floors = {"query_cached_vs_recompute": QUERY_FLOOR,
                  "load_vs_build": LOAD_FLOOR}
    speedups = {
        "query_cached_vs_recompute": round(r_p50 / max(q_p50, 1e-9), 1),
        "load_vs_build": round(t_build / max(t_load, 1e-9), 1),
    }

    record = ExperimentRecord(
        experiment_id="BENCH_oracle",
        title="Persistent oracle: snapshot load vs rebuild, cached query "
              "vs banned-edge recompute (random scheme)",
        columns=[
            "n", "m", "repl_rows", "snapshot_mib", "engine",
            "t_build_s", "t_save_s", "t_load_s", "load_speedup",
            "q_oracle_p50_us", "q_oracle_p99_us", "q_recompute_p50_us",
            "query_speedup",
        ],
        params={
            "quick": quick_mode,
            "seed": bench_seed,
            "toolchain": cbuild.toolchain_info(),
            "floors": floors,
        },
    )
    record.derived["speedups"] = speedups
    record.derived["query_stats"] = stats
    record.add_row(
        graph.num_vertices,
        graph.num_edges,
        len(tree_eids),
        round(snapshot_bytes / 2**20, 2),
        engine.name,
        round(t_build, 3),
        round(t_save, 3),
        round(t_load, 6),
        speedups["load_vs_build"],
        round(q_p50 * 1e6, 1),
        round(q_p99 * 1e6, 1),
        round(r_p50 * 1e6, 1),
        speedups["query_cached_vs_recompute"],
    )
    record.note(
        "build = build_spt + the ReplacementEngine sweep (what the "
        "snapshot lets a consumer skip); save includes its own sweep; "
        f"load = best of {reps} "
        "load_structure + close; queries are single-tree-failure dist() "
        f"over {num_cases} (vertex, tree edge) cases, recompute baseline "
        f"over the first {len(recompute_cases)} on the default engine "
        f"({engine.name}); parity asserted on a 16-case subsample first"
    )
    record.note(
        f"acceptance floors (full-size): {QUERY_FLOOR:.0f}x cached query "
        f"vs recompute at p50, {LOAD_FLOOR:.0f}x load vs rebuild; quick "
        f"mode asserts {_QUICK_QUERY_FLOOR:.0f}x / {_QUICK_LOAD_FLOOR:.0f}x "
        "sanity only"
    )
    print()
    print(record.render())
    save_record(record)

    failures = [
        f"{key}: {speedups[key]:.1f}x below the {floors[key]}x floor"
        for key in speedups
        if speedups[key] < floors[key]
    ]
    assert not failures, "; ".join(failures)


def test_micro_oracle_cached_query(benchmark, quick_mode, bench_seed):
    """One cached single-failure query, multi-round (the serve hot path)."""
    graph, weights = _instance(True, bench_seed)
    tree = build_spt(graph, weights, 0)
    oracle = QueryOracle.from_tree(tree)
    eid = next(pe for pe in tree.parent_eid if pe >= 0)
    v = max(range(graph.num_vertices), key=lambda u: tree.depth[u])
    result = benchmark(oracle.dist, v, [eid])
    assert result is None or result >= 0
