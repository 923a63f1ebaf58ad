"""Long-lived query serving over a loaded snapshot (``repro serve``).

:class:`OracleServer` wraps an :class:`~repro.oracle.snapshot.OracleStructure`
behind a line-oriented JSON protocol (one request object per line, one
response object per line) and answers every query inline in its own
process.  To serve in parallel, run one ``repro serve`` process per core
over the same snapshot file: each maps it read-only, so they share the
page cache and load without parsing the planes.

Consistency model: the standing failure set (``mark_down``/``mark_up``)
belongs to the server process; every query is answered under its
*effective* failure set (standing ∪ per-request), so any interleaving
of marks and queries reads as if applied serially.

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
from repro.oracle.snapshot import OracleStructure

__all__ = ["OracleServer", "serve_structure"]


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
    failed = request.get("failed")
    try:
        # The oracle merges its standing marks into every failure set.
        failed = _json_ids([] if failed is None else failed, "failed")
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
            vertices, edges = oracle.route(v, failed)
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


class OracleServer:
    """Serve queries over a structure, answering each inline."""

    def __init__(
        self,
        structure: OracleStructure,
        *,
        engine: Optional[str] = None,
    ) -> None:
        self.structure = structure
        self.oracle = QueryOracle(structure, engine=engine)

    def close(self) -> None:
        """Nothing to release: the server holds no process or segment,
        and the structure stays open (the caller owns it).  Kept for
        callers that close every server they start."""

    # -- the serving loop ----------------------------------------------
    def serve(self, lines: Iterable[str], out: IO[str]) -> Dict[str, int]:
        """Answer JSONL requests from ``lines`` until shutdown or EOF.

        Returns ``{"requests": ..., "errors": ...}``.
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
            except (ValueError, RecursionError) as exc:
                # RecursionError: the decoder gives up on deep nesting.
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
        return {"requests": requests, "errors": errors}

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
            return _answer(self.oracle, request)
        return {"ok": False, "error": f"unknown op {op!r}", "pid": pid}


def serve_structure(
    structure: OracleStructure,
    lines: Iterable[str],
    out: IO[str],
    *,
    engine: Optional[str] = None,
) -> Dict[str, int]:
    """One-shot convenience: start a server, drain ``lines``."""
    return OracleServer(structure, engine=engine).serve(lines, out)
