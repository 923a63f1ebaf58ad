"""Declarative experiment descriptions: the :class:`ScenarioSpec` contract.

A scenario is a *grid* of independent measurement points plus an
optional in-process aggregation.  The split mirrors how the runner
executes it:

``grid(quick, seed) -> [payload, ...]``
    Enumerates the sweep points as plain JSON-able dicts.  Runs
    in-process; must be cheap and deterministic (payload order *is* row
    order in the final record).
``measure`` (a ``"package.module:function"`` stage reference)
    Runs once per point, possibly in a worker process, so it must be a
    module-level function of one payload dict.  It returns
    ``{"rows": [...], "facts": {...}}`` — rows go straight into the
    record in point order; facts are JSON-able intermediates for the
    aggregate stage.  Results are canonicalized through JSON by the
    runner, so a point replayed from the cache is bit-identical to a
    freshly measured one.
``aggregate(record, results)``
    Optional, in-process, after all points land: cross-point fits,
    derived values, synthesized rows (e.g. E5's cost table).

``timing_columns`` names the wall-clock columns.  Everything else must
be deterministic given (quick, seed, engine); the parallel/serial and
resume bit-identity tests compare rows with timing columns masked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ScenarioSpec", "PointResult", "mask_timing"]


@dataclass(frozen=True)
class PointResult:
    """One measured point, post JSON-canonicalization."""

    rows: List[List[Any]]
    facts: Dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def from_payload(data: Any) -> "PointResult":
        """Build from a measure stage's raw return value."""
        if isinstance(data, PointResult):
            return data
        if not isinstance(data, dict):
            raise TypeError(
                f"measure stage must return a dict with 'rows', got {type(data)!r}"
            )
        return PointResult(
            rows=list(data.get("rows") or []),
            facts=dict(data.get("facts") or {}),
        )

    def as_payload(self) -> Dict[str, Any]:
        return {"rows": self.rows, "facts": self.facts}


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative experiment: workload grid + measure + aggregate stages."""

    experiment_id: str
    title: str
    #: One-line summary shown by ``repro list``.
    description: str
    columns: Tuple[str, ...]
    #: ``(quick, seed) -> [payload dict, ...]`` — JSON-able, deterministic.
    grid: Callable[[bool, int], List[Dict[str, Any]]]
    #: ``"package.module:function"`` reference to the per-point stage.
    measure: str
    #: Optional in-process cross-point stage.
    aggregate: Optional[Callable[..., None]] = None
    #: Static notes appended after aggregation (original table footer).
    notes: Tuple[str, ...] = ()
    #: Wall-clock columns, excluded from bit-identity comparisons.
    timing_columns: Tuple[str, ...] = ()


def mask_timing(spec: ScenarioSpec, rows: Sequence[Sequence[Any]]) -> List[List[Any]]:
    """Rows with the spec's timing columns blanked (for identity checks)."""
    timing = {spec.columns.index(c) for c in spec.timing_columns}
    return [
        [None if i in timing else cell for i, cell in enumerate(row)]
        for row in rows
    ]
