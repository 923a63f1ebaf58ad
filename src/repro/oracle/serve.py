"""Long-lived query serving over a loaded snapshot (``repro serve``).

:class:`OracleServer` wraps an :class:`~repro.oracle.snapshot.OracleStructure`
behind a line-oriented JSON protocol (one request object per line, one
response object per line) and optionally fans queries out to a pool of
**zero-copy reader workers**: the parent republishes the snapshot's
planes through the PR-5 shared-memory transport
(:func:`~repro.engine.shm.publish_plane_arrays` for graph + weights +
tree, :func:`~repro.engine.shm.publish_aux_arrays` for the replacement
rows), each worker attaches the segments once at pool init and builds
its own :class:`~repro.oracle.query.QueryOracle` over the mapped
arrays - no per-query serialization of the structure ever happens.

Consistency model: the standing failure set (``mark_down``/``mark_up``)
lives in the parent only; every query ships its *effective* failure set
(standing ∪ per-request) to whichever process answers, so workers are
stateless and any interleaving of marks and queries reads as if applied
serially at the parent.  Batched ``dist`` requests split across the
pool; single-target requests round-robin through it.  Without workers
(or without numpy / shared memory) the server answers inline in the
parent process - same protocol, same answers.

Protocol ops (all responses carry ``ok`` and the answering ``pid``):

``{"op": "dist", "v": 3}`` or ``{"op": "dist", "targets": [...]}``
    Composite distance(s) + hop count(s); optional ``"failed": [eids]``.
``{"op": "path", "v": 3}``
    Path vertices + edge ids; optional ``"failed"`` as above.
``{"op": "mark_down", "eid": e}`` / ``{"op": "mark_up", "eid": e}``
    Update the standing failure set; echoes the new set.
``{"op": "stats"}`` / ``{"op": "ping"}`` / ``{"op": "shutdown"}``
    Introspection / liveness / orderly stop.

Ids (``v``, ``targets``, ``failed``, ``eid``) must be JSON integers: a
bool, float or string answers ``ok: false`` naming the field instead of
being coerced to some other vertex or edge.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, Iterable, List, Optional

from repro.errors import ReproError
from repro.oracle.query import QueryOracle
from repro.oracle.snapshot import (
    OracleStructure,
    PLANE_NAMES,
    REPL_PLANE_NAMES,
    TREE_PLANE_NAMES,
)

__all__ = ["OracleServer", "serve_structure"]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_ORACLE: Optional[QueryOracle] = None


def _worker_init(plane_handle, aux_handle, engine_name) -> None:
    """Pool initializer: attach the published planes, build the oracle."""
    global _WORKER_ORACLE
    from repro.engine.shm import attach_aux_arrays, attach_plane_arrays
    from repro.harness.parallel import mark_worker
    from repro.spt.replacement import ReplacementEngine

    mark_worker()
    graph, weights, tree, arrays = attach_plane_arrays(plane_handle)
    repl = attach_aux_arrays(aux_handle)
    merged: Dict[str, Any] = dict(arrays)
    merged.update(repl)
    structure = OracleStructure(
        graph=graph,
        weights=weights,
        tree=tree,
        source=tree.source,
        arrays=merged,
        meta={"shared": True},
        replacement=ReplacementEngine.from_arrays(tree, merged),
    )
    _WORKER_ORACLE = QueryOracle(structure, engine=engine_name)


def _worker_answer(request: Dict[str, Any]) -> Dict[str, Any]:
    return _answer(_WORKER_ORACLE, request)


def _json_id(value: Any, field: str) -> int:
    """``value`` if it is a JSON integer; no coercion (``int(True)`` is
    vertex 1, ``int(2.9)`` vertex 2), so anything else is a ValueError
    naming ``field``."""
    if type(value) is not int:
        raise ValueError(
            f"field {field!r}: ids must be JSON integers, "
            f"got {type(value).__name__}"
        )
    return value


def _json_ids(values: Any, field: str) -> List[int]:
    """A JSON list of integer ids (see :func:`_json_id`)."""
    if type(values) is not list:
        raise ValueError(
            f"field {field!r}: expected a list of ids, got {type(values).__name__}"
        )
    return [_json_id(x, field) for x in values]


def _answer(oracle: QueryOracle, request: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one dist/path request; never raises (errors become
    ``ok: false`` responses so a bad query cannot kill the server)."""
    pid = os.getpid()
    op = request.get("op")
    failed = request.get("failed") or []
    try:
        if op == "dist":
            targets = request.get("targets")
            single = targets is None
            if single:
                targets = [_json_id(request["v"], "v")]
            else:
                targets = _json_ids(targets, "targets")
            shift = oracle.structure.shift
            dists = oracle.dist_many(targets, failed)
            resp: Dict[str, Any] = {
                "ok": True,
                "op": "dist",
                "targets": targets,
                "dist": [None if d is None else int(d) for d in dists],
                "hops": [None if d is None else int(d) >> shift for d in dists],
                "pid": pid,
            }
            if single:
                resp["v"] = targets[0]
            return resp
        if op == "path":
            v = _json_id(request["v"], "v")
            vertices = oracle.path(v, failed)
            edges = oracle.path_edges(v, failed)
            return {
                "ok": True,
                "op": "path",
                "v": v,
                "path": [int(x) for x in vertices],
                "edges": [int(e) for e in edges],
                "hops": len(edges),
                "pid": pid,
            }
        return {"ok": False, "error": f"unknown op {op!r}", "pid": pid}
    except KeyError as exc:
        return {"ok": False, "op": op, "error": f"missing field {exc}", "pid": pid}
    except (TypeError, ValueError, ReproError) as exc:
        return {"ok": False, "op": op, "error": str(exc), "pid": pid}


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class OracleServer:
    """Serve queries over a structure, inline or through a worker pool.

    ``workers > 0`` requests the zero-copy pool; the server silently
    degrades to inline answering when the shared-memory transport is
    unavailable (no numpy, ``REPRO_SHM=0``) or the structure has no
    serialized CSR planes (a live :meth:`OracleStructure.from_live`
    wrapper) - check :attr:`workers` for what actually started.
    """

    def __init__(
        self,
        structure: OracleStructure,
        *,
        workers: int = 0,
        engine: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.structure = structure
        self.oracle = QueryOracle(structure, engine=engine)
        self._engine = engine
        self._pool = None
        self._plane = None
        self._aux = None
        self.workers = 0
        if workers > 0:
            self._start_pool(workers, start_method)

    # -- pool lifecycle -------------------------------------------------
    def _start_pool(self, workers: int, start_method: Optional[str]) -> None:
        from repro.engine.shm import (
            publish_aux_arrays,
            publish_plane_arrays,
            transport_enabled,
        )

        if not transport_enabled():
            return
        arrays = self.structure.arrays
        if any(name not in arrays for name in PLANE_NAMES):
            return
        weights = self.structure.weights
        wmeta = self.structure.meta.get("weights") or {}
        pert = arrays["pert"]
        max_pert = int(
            wmeta.get("max_pert", max(pert) if len(pert) else 0)
        )
        plane = publish_plane_arrays(
            [(name, arrays[name]) for name in TREE_PLANE_NAMES],
            num_vertices=self.structure.num_vertices,
            num_edges=self.structure.num_edges,
            graph_name=self.structure.graph.name,
            weights_meta=(weights.shift, weights.scheme, weights.seed, max_pert),
            tree_source=self.structure.source,
        )
        if plane is None:
            return
        aux = publish_aux_arrays(
            [(name, arrays[name]) for name in REPL_PLANE_NAMES]
        )
        if aux is None:
            plane.unlink()
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = (
            multiprocessing.get_context(start_method) if start_method else None
        )
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(plane.handle, aux.handle, self._engine),
                mp_context=ctx,
            )
        except (OSError, ValueError):
            plane.unlink()
            aux.unlink()
            return
        self._plane = plane
        self._aux = aux
        self._pool = pool
        self.workers = workers

    def close(self) -> None:
        """Stop the pool and unlink the published segments (idempotent).

        The structure itself stays open - the caller owns it."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for seg_attr in ("_plane", "_aux"):
            seg = getattr(self, seg_attr)
            setattr(self, seg_attr, None)
            if seg is not None:
                seg.unlink()
        self.workers = 0

    def __enter__(self) -> "OracleServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the serving loop ----------------------------------------------
    def serve(self, lines: Iterable[str], out: IO[str]) -> Dict[str, int]:
        """Answer JSONL requests from ``lines`` until shutdown or EOF.

        Returns ``{"requests": ..., "errors": ..., "workers": ...}``.
        """
        requests = errors = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            requests += 1
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                errors += 1
                self._emit(out, {
                    "ok": False,
                    "error": f"bad request: {exc}",
                    "pid": os.getpid(),
                })
                continue
            if request.get("op") == "shutdown":
                self._emit(out, {
                    "ok": True, "op": "shutdown", "pid": os.getpid(),
                })
                break
            response = self._dispatch(request)
            if not response.get("ok"):
                errors += 1
            self._emit(out, response)
        return {
            "requests": requests,
            "errors": errors,
            "workers": self.workers,
        }

    @staticmethod
    def _emit(out: IO[str], obj: Dict[str, Any]) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        pid = os.getpid()
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "pid": pid}
        if op == "stats":
            return {
                "ok": True,
                "op": "stats",
                "stats": self.oracle.stats.as_dict(),
                "workers": self.workers,
                "marked": sorted(self.oracle.marked),
                "pid": pid,
            }
        if op in ("mark_down", "mark_up"):
            try:
                getattr(self.oracle, op)(_json_id(request["eid"], "eid"))
            except KeyError as exc:
                return {
                    "ok": False, "op": op,
                    "error": f"missing field {exc}", "pid": pid,
                }
            except (TypeError, ValueError, ReproError) as exc:
                return {"ok": False, "op": op, "error": str(exc), "pid": pid}
            return {
                "ok": True,
                "op": op,
                "marked": sorted(self.oracle.marked),
                "pid": pid,
            }
        if op in ("dist", "path"):
            failed = request.get("failed")
            try:
                explicit = set(_json_ids([] if failed is None else failed, "failed"))
            except ValueError as exc:
                return {"ok": False, "op": op, "error": str(exc), "pid": pid}
            payload = dict(request)
            # Effective failure set resolved here so workers stay
            # stateless (see the module docstring's consistency model).
            payload["failed"] = sorted(explicit | self.oracle.marked)
            if self._pool is not None:
                return self._pool_answer(payload)
            return _answer(self.oracle, payload)
        return {"ok": False, "error": f"unknown op {op!r}", "pid": pid}

    def _pool_answer(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        targets = payload.get("targets")
        try:
            if (
                payload["op"] == "dist"
                and targets
                and len(targets) > 1
                and self.workers > 1
            ):
                return self._scatter_dist(payload, list(targets))
            return self._pool.submit(_worker_answer, payload).result()
        except Exception:
            # Broken pool (a killed worker, a spawn failure): degrade to
            # inline answering rather than dropping the request.
            return _answer(self.oracle, payload)

    def _scatter_dist(
        self, payload: Dict[str, Any], targets: List[Any]
    ) -> Dict[str, Any]:
        """Split a batched dist across the pool and merge in order."""
        step = (len(targets) + self.workers - 1) // self.workers
        chunks = [targets[i : i + step] for i in range(0, len(targets), step)]
        futures = [
            self._pool.submit(_worker_answer, {**payload, "targets": chunk})
            for chunk in chunks
        ]
        parts = [f.result() for f in futures]
        for part in parts:
            if not part.get("ok"):
                return part
        return {
            "ok": True,
            "op": "dist",
            "targets": [t for part in parts for t in part["targets"]],
            "dist": [d for part in parts for d in part["dist"]],
            "hops": [h for part in parts for h in part["hops"]],
            "pid": parts[0]["pid"],
            "pids": sorted({part["pid"] for part in parts}),
        }


def serve_structure(
    structure: OracleStructure,
    lines: Iterable[str],
    out: IO[str],
    *,
    workers: int = 0,
    engine: Optional[str] = None,
    start_method: Optional[str] = None,
) -> Dict[str, int]:
    """One-shot convenience: start a server, drain ``lines``, clean up."""
    server = OracleServer(
        structure, workers=workers, engine=engine, start_method=start_method
    )
    try:
        return server.serve(lines, out)
    finally:
        server.close()
