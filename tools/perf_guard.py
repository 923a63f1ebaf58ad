#!/usr/bin/env python3
"""Perf-regression guard over the ``BENCH_*`` artifacts (stdlib only).

The benchmarks stamp their acceptance floors into ``params["floors"]``
and the measured ratios into ``derived["speedups"]`` (matching keys).
This tool re-checks every artifact in a directory against those floors,
so a CI job - or a human after a fresh bench run - gets one pass/fail
answer without re-running the benchmarks:

    python tools/perf_guard.py                       # ./bench_artifacts
    python tools/perf_guard.py fresh_artifacts
    python tools/perf_guard.py fresh --baseline bench_artifacts

``--baseline`` points at the committed artifacts: for *full-size* fresh
runs, any floor key the fresh artifact did not stamp is taken from the
committed artifact of the same experiment, so a bench edit that drops a
floor still gets guarded by the committed one.  Quick-mode runs
(``params["quick"]``) are only held to the relaxed sanity floors they
stamp themselves - tiny CI instances do not prove the real margins.

Artifacts without stamped speedups (older records, experiments that are
not ratio benchmarks) are listed as skipped, never failed: the guard
grows with the benchmarks instead of blocking them.  Artifacts that
*do* stamp speedups but no floors at all (and get none from the
baseline) fail with a distinct message - un-floored ratios would
escape regression checking forever.  Exit status 1 on any floor
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["check_artifact", "check_dir", "main"]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_artifact(
    data: dict, baseline: Optional[dict] = None
) -> Tuple[List[str], List[str]]:
    """Check one record dict; returns ``(report_lines, failures)``.

    ``baseline`` (optional, same experiment) contributes floor keys the
    fresh record lacks - only for full-size fresh runs.
    """
    params = data.get("params") or {}
    speedups: Dict[str, float] = (data.get("derived") or {}).get(
        "speedups"
    ) or {}
    floors: Dict[str, float] = dict(params.get("floors") or {})
    quick = bool(params.get("quick"))
    eid = data.get("experiment_id", "?")
    if not speedups:
        return [f"{eid}: no stamped speedups (skipped)"], []
    if baseline is not None and not quick:
        for key, floor in (
            (baseline.get("params") or {}).get("floors") or {}
        ).items():
            floors.setdefault(key, floor)
    if not floors:
        # Speedups with no floors at all (and none to borrow from a
        # baseline) is a stamping bug, not an older record: the measured
        # ratios would escape regression checking forever while the
        # guard happily reports success.
        message = (
            f"{eid}: speedups stamped but no params[\"floors\"] - "
            "the benchmark must stamp its acceptance floors FAIL"
        )
        return [message], [message]
    lines: List[str] = []
    failures: List[str] = []
    mode = "quick" if quick else "full"
    for key in sorted(floors):
        floor = floors[key]
        got = speedups.get(key)
        if got is None:
            # The ratio was never measured this run (e.g. no compiler
            # built the C kernels) - nothing to guard.
            lines.append(f"{eid} [{mode}] {key}: not measured (skipped)")
            continue
        if got >= floor:
            lines.append(f"{eid} [{mode}] {key}: {got:.2f}x >= {floor}x ok")
        else:
            message = f"{eid} [{mode}] {key}: {got:.2f}x < {floor}x FAIL"
            lines.append(message)
            failures.append(message)
    return lines, failures


def check_dir(
    directory: Path, baseline_dir: Optional[Path] = None
) -> Tuple[List[str], List[str]]:
    """Check every ``BENCH_*.json`` under ``directory``."""
    lines: List[str] = []
    failures: List[str] = []
    artifacts = sorted(directory.glob("BENCH_*.json"))
    if not artifacts:
        return [f"{directory}: no BENCH_*.json artifacts"], []
    for path in artifacts:
        baseline = None
        if baseline_dir is not None:
            candidate = baseline_dir / path.name
            if candidate.exists() and candidate.resolve() != path.resolve():
                baseline = _load(candidate)
        sub_lines, sub_failures = check_artifact(_load(path), baseline)
        lines.extend(sub_lines)
        failures.extend(sub_failures)
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "directory",
        nargs="?",
        default="bench_artifacts",
        help="artifact directory to check (default: bench_artifacts)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed artifact directory whose floors backstop full runs",
    )
    args = parser.parse_args(argv)
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"perf_guard: {directory} is not a directory", file=sys.stderr)
        return 2
    baseline_dir = Path(args.baseline) if args.baseline else None
    lines, failures = check_dir(directory, baseline_dir)
    for line in lines:
        print(line)
    if failures:
        print(f"perf_guard: {len(failures)} floor violation(s)", file=sys.stderr)
        return 1
    print("perf_guard: all floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
