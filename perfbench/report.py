"""Run the benchmark over workloads and seeds and summarise it.

    python3 perfbench/report.py                      # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10 --workloads serve-gnp5k
    python3 perfbench/report.py --trace              # per-layer, run twice

Untraced: prints each end-to-end metric by workload with its unit, the
median over the runs, the quartiles, their spread as a share of the
median (what ``BENCHMARK.json``'s bounds are checked against), and the
number of runs; a spread above a third of the metric's bound is flagged.
Each workload's error rate and what its first run resolved (engines,
weight scheme, reinforced edges) come first.
``--trace`` runs each workload's traced run twice on one seed, prints the
per-layer metrics, and fails when a work count differs between the two.
Each run is a separate ``run.py`` process, run one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Entries of a run's ``resolved:`` record shown once per workload.
RESOLVED_KEYS = ("build_engine", "verify_engine", "weight_scheme",
                 "reinforced_edges", "checked_failures")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process: its JSON result, plus the ``resolved:``
    record it printed under the key ``resolved``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    for line in lines:
        if line.startswith("resolved: "):
            result["resolved"] = json.loads(line[len("resolved: "):])
    return result


def spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` as the bounds use them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def untraced_report(bench: dict, workloads, seeds, seconds: int) -> bool:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload in workloads:
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, seconds, 0))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, error_rate "
              f"{failed}/{attempted}")
        resolved = results[0]["resolved"]
        print("  resolved: " + ", ".join(
            f"{key}={resolved[key]}" for key in RESOLVED_KEYS if key in resolved
        ))
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            flag = ""
            if rel > spec["bound"] / 3:
                flag = f"  > bound/3 ({spec['bound'] / 3:.3f})"
                steady = False
            print(f"  {name:<14} {spec['unit']:<6} median {med:>14.4f}  "
                  f"q1 {q1:>14.4f}  q3 {q3:>14.4f}  spread {rel:.4f}  "
                  f"n={len(values)}{flag}")
    return steady


def traced_report(workloads, seed: int, seconds: int) -> bool:
    repeat = True
    for workload in workloads:
        first = run_once(workload, seed, seconds, 1)["metrics"]
        second = run_once(workload, seed, seconds, 1)["metrics"]
        print(f"\n{workload} (seed {seed}, traced twice)")
        for name, entry in first.items():
            again = second[name]["value"]
            mark = ""
            if entry["unit"] in ("count", "bytes") and again != entry["value"]:
                mark = f"  COUNT DIFFERS: {again}"
                repeat = False
            print(f"  {name:<36} {entry['unit']:<6} {entry['value']:>16.6f}"
                  f"{mark}")
    return repeat


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    if args.trace:
        ok = traced_report(workloads, seeds[0], args.seconds)
    else:
        ok = untraced_report(bench, workloads, seeds, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
