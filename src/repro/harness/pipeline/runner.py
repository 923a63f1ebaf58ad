"""The shared :class:`PipelineRunner`: one executor for every experiment.

The runner turns a :class:`~repro.harness.pipeline.spec.ScenarioSpec`
into an :class:`~repro.harness.records.ExperimentRecord`:

1. expand the spec's grid into point payloads (in-process, cheap);
2. fan every point's measure stage out through the generic stage-task
   layer (:func:`repro.harness.parallel.run_stage_tasks`) with ``jobs``
   workers;
3. reassemble results in grid order, append rows, run the aggregate
   stage, attach notes.

Every run measures every point.  Determinism contract: with timing
columns masked, the record is bit-identical across ``jobs=1`` and
``jobs=N`` (results are re-ordered by point index, and each is
canonicalized through JSON before use).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional, Union

from repro.harness.parallel import StageTask, run_stage_tasks
from repro.harness.pipeline.spec import PointResult, ScenarioSpec
from repro.harness.records import ExperimentRecord

__all__ = ["PipelineRunner"]


def _canonicalize(result: Any) -> Dict[str, Any]:
    """JSON round-trip a measure result, so the record holds what its
    saved JSON holds (tuples as lists, non-JSON values as strings)."""
    payload = PointResult.from_payload(result).as_payload()
    return json.loads(json.dumps(payload, default=str))


class PipelineRunner:
    """Executes scenario specs over the parallel stage-task layer.

    ``jobs``: worker processes for measure stages (1 = in-process,
    0/None = :func:`~repro.harness.parallel.default_worker_count`).
    ``engine``: pins the traversal engine exported to measure workers
    (None = each worker's default).
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = 1,
        engine: Optional[str] = None,
    ) -> None:
        self.jobs = jobs
        self.engine = engine

    # ------------------------------------------------------------------
    def run(
        self,
        spec: Union[str, ScenarioSpec],
        *,
        quick: bool = False,
        seed: int = 0,
    ) -> ExperimentRecord:
        """Run one scenario and return its assembled record."""
        if isinstance(spec, str):
            from repro.harness.pipeline.specs import get_spec

            spec = get_spec(spec)
        start = time.perf_counter()

        tasks = [
            StageTask(func=spec.measure, payload=payload, engine=self.engine)
            for payload in spec.grid(quick, seed)
        ]
        results = dict(run_stage_tasks(tasks, max_workers=self.jobs))
        points = [
            PointResult.from_payload(_canonicalize(results[index]))
            for index in range(len(tasks))
        ]
        record = ExperimentRecord(
            experiment_id=spec.experiment_id,
            title=spec.title,
            columns=list(spec.columns),
            params={"quick": quick, "seed": seed, "points": len(points)},
        )
        for point in points:
            for row in point.rows:
                record.add_row(*row)
        if spec.aggregate is not None:
            spec.aggregate(record, points)
        for note in spec.notes:
            record.note(note)
        record.elapsed_seconds = time.perf_counter() - start
        return record
