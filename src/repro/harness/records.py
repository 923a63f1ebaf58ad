"""Experiment result records: JSON-serializable, artifact-friendly.

Every experiment produces an :class:`ExperimentRecord` with tabular rows
plus free-form notes; the benchmarks print the rendered tables and save
the records under ``bench_artifacts/`` so EXPERIMENTS.md numbers can be
traced back to a concrete run.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.util.tables import Table

__all__ = ["ExperimentRecord", "artifacts_dir", "save_record"]

_DEFAULT_ARTIFACTS = "bench_artifacts"


@dataclass
class ExperimentRecord:
    """Result of one experiment run."""

    experiment_id: str
    title: str
    params: Dict[str, Any] = field(default_factory=dict)
    columns: List[str] = field(default_factory=list)
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    derived: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    created_unix: float = field(default_factory=time.time)

    def add_row(self, *cells: Any) -> None:
        """Append a data row (must match ``columns``)."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row width {len(cells)} != column count {len(self.columns)}"
            )
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        """Attach a free-form note."""
        self.notes.append(text)

    def table(self) -> Table:
        """Render the rows as an ASCII table."""
        t = Table(
            title=f"[{self.experiment_id}] {self.title}", columns=self.columns
        )
        for row in self.rows:
            t.add_row(*row)
        for n in self.notes:
            t.add_note(n)
        return t

    def render(self) -> str:
        return self.table().render()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)


def artifacts_dir(base: Optional[str] = None) -> Path:
    """The artifacts directory (created on demand)."""
    path = Path(base or _DEFAULT_ARTIFACTS)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_record(record: ExperimentRecord, base: Optional[str] = None) -> Path:
    """Write a record (JSON + rendered table) into the artifacts directory."""
    directory = artifacts_dir(base)
    json_path = directory / f"{record.experiment_id}.json"
    json_path.write_text(record.to_json())
    txt_path = directory / f"{record.experiment_id}.txt"
    txt_path.write_text(record.render() + "\n")
    return json_path

