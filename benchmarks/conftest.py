"""Shared benchmark fixtures.

Each ``bench_*`` module regenerates one (or two) of the paper's
tables/figures via the experiment registry: the ``benchmark`` fixture
times the run, the resulting table is printed to the terminal (run with
``-s`` to see it live) and saved under ``bench_artifacts/``.

Set ``REPRO_BENCH_QUICK=1`` to shrink every sweep (CI mode).
"""

from __future__ import annotations

import os

import pytest

from repro.harness import run_experiment, save_record


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0", "false")


@pytest.fixture(scope="session")
def quick_mode() -> bool:
    return _quick()


@pytest.fixture(scope="session")
def bench_seed() -> int:
    return 0


def run_and_report(benchmark, experiment_id: str, quick: bool, seed: int):
    """Time one experiment run, print its table, save the artifact."""
    record = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"quick": quick, "seed": seed},
        rounds=1,
        iterations=1,
    )
    print()
    print(record.render())
    save_record(record)
    return record
