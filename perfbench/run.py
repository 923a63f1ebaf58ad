"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with no
tracing; with ``--trace 1`` it runs one untraced and one traced pass of
the same work and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is the JSON result.

Everything the run writes (the kernel cache, temp files, snapshots, the
span dump) stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"

#: The measured seconds are cut into this many rounds.  Set-up probes,
#: each in a fresh interpreter, run before every round and after the
#: last, so they meet the host at ``ROUNDS + 1`` points of the run.
ROUNDS = 4
#: Set-up probes at each of those points; ``setup_s`` is the fastest of
#: them all, since interference from the host only ever adds time.
PROBES_PER_POINT = 2

#: The program module a user of each kind of workload imports.
USER_MODULES = {
    "build": "repro.core.construct",
    "verify": "repro.core.verify",
    "serve": "repro.oracle.serve",
}


def benchmark_units(section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``, the one
    place metric names and units are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def prepare_environment() -> None:
    """Program defaults only, and every file the run writes in the
    checkout: drop ``REPRO_*`` settings, point the kernel cache and temp
    files under ``.bench_build/``, import the program from ``src/``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    cache = ROOT / ".bench_build" / "cache"
    tmp = ROOT / ".bench_build" / "tmp"
    for path in (WORKDIR, cache, tmp):
        path.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(cache)
    os.environ["TMPDIR"] = str(tmp)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def probe_setup(workload: str, seed: int) -> float:
    """One set-up in this (fresh) interpreter: the program's imports and
    engine loading, then the workload's own set-up (for serve, snapshot
    build, save and load; its input generation is not timed)."""
    t0 = perf_counter()
    importlib.import_module(USER_MODULES[workload.partition("-")[0]])
    from repro.engine.registry import get_engine

    get_engine()
    imports_s = perf_counter() - t0
    from perfbench import workloads

    return imports_s + workloads.make(workload, WORKDIR).setup_probe(seed)


def setup_samples(workload: str, seed: int, count: int) -> list:
    """``count`` set-up times, each from a child interpreter that is
    waited for before the next starts."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_workers() -> None:
    """Shut down the verify shard pool and wait for its processes."""
    import multiprocessing

    from repro.engine import sharded

    for pool, _size in list(sharded._POOLS.values()):
        pool.shutdown(wait=True)
    sharded._POOLS.clear()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def resolved_record(w, args) -> dict:
    """What resolved for this run: engines, weight scheme, toolchain."""
    import numpy

    from repro.engine import cbuild

    record = dict(w.resolved())
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        toolchain=cbuild.toolchain_info(),
        numpy=numpy.__version__,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        machine=platform.machine(),
    )
    record["toolchain"].pop("kernel_lib", None)
    return record


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end_metrics(setup, best, rss: float, backup_edges: int) -> dict:
    """The end-to-end metrics of one untraced run.  ``best`` holds each
    operation's fastest time over the run's passes: interference from the
    host only ever adds time, so that is the best estimate of what the
    operation costs undisturbed."""
    return {
        "setup_s": min(setup),
        "op_ms": statistics.median(best) * 1e3,
        "op_p99_ms": percentile(best, 99) * 1e3,
        "ops_per_s": len(best) / sum(best),
        "peak_rss_mib": rss,
        "backup_edges": backup_edges,
    }


def run_untraced(w, args) -> tuple:
    from perfbench.workloads import Measurement

    run = Measurement()
    setup = []
    w.prepare(args.seed)
    w.setup()
    for _ in range(ROUNDS):
        setup += setup_samples(args.workload, args.seed, PROBES_PER_POINT)
        w.measure(run, seconds=args.seconds / ROUNDS)
    rss = peak_rss_mib()
    setup += setup_samples(args.workload, args.seed, PROBES_PER_POINT)
    w.check_run(run)
    metrics = end_to_end_metrics(setup, run.best, rss, w.backup_edges())
    over = (f"{len(run.best)} ops, each its fastest of "
            f"{run.attempted // len(run.best)} passes")
    notes = {
        "setup_s": f"fastest of {len(setup)} set-ups, slowest {max(setup):.4f}",
        "op_ms": f"median over {over}",
        "op_p99_ms": f"p99 over {over}",
        "ops_per_s": f"ops over their summed fastest times; over all "
        f"{run.attempted} ops {run.attempted / run.busy_s:.4f}",
        "peak_rss_mib": "process high-water mark",
        "backup_edges": "of the structure",
    }
    return [run], metrics, benchmark_units("end_to_end"), notes


def run_traced(w, args) -> tuple:
    """One untraced and one traced pass of the same work."""
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import Measurement

    units = benchmark_units("per_layer")
    w.prepare(args.seed)
    w.setup()
    untraced = Measurement()
    w.measure(untraced, count=1)
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        w.setup(tracer)
        traced = Measurement()
        w.measure(traced, count=1, tracer=tracer)
    finally:
        patches.undo()
    w.check_run(traced)
    facts = dict(w.facts())
    facts["trace.overhead_s"] = traced.busy_s - untraced.busy_s
    metrics = layers.per_layer_metrics(tracer, facts, units)
    tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.json")
    notes = {
        name: f"{'work count' if units[name] in layers.COUNT_UNITS else 'traced'}"
        f" over {traced.attempted} ops"
        for name in metrics
    }
    notes["trace.overhead_s"] = (
        f"traced {traced.busy_s:.4f}s - untraced {untraced.busy_s:.4f}s"
    )
    return [untraced, traced], metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare_environment()
    if args.probe_setup:
        print(probe_setup(args.workload, args.seed))
        return 0

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.make(args.workload, WORKDIR)
    try:
        runner = run_traced if args.trace else run_untraced
        runs, metrics, units, notes = runner(w, args)
        record = resolved_record(w, args)
    finally:
        w.close()
        stop_workers()

    attempted = sum(r.attempted for r in runs)
    failures = [msg for r in runs for msg in r.failures.values()]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("resolved: " + json.dumps(record, sort_keys=True))
    for message in failures[:10]:
        print(f"FAILED: {message}")
    print(f"error_rate: {len(failures)}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]:<6} {notes[name]}")
    (WORKDIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "resolved": record, "metrics": metrics,
         "best": [r.best[:1000].tolist() for r in runs],
     }))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
