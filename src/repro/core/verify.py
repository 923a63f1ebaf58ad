"""Verification oracle for ``(b, r)`` FT-BFS structures (Definition 2.1).

The oracle is deliberately independent of the construction: it re-derives
everything with plain hop BFS and compares, per possible failure,

``dist(s, v, H \\ {e})  ==  dist(s, v, G \\ {e})``   for every ``v``,

treating unreachable as unreachable on both sides ("the surviving part").
Only failures of *tree* edges of some BFS tree can change distances, but
the oracle does not assume the structure contains ``T0``: it checks

* the no-failure case (``H`` spans the same distances as ``G``);
* every non-reinforced edge of ``H`` whose removal could matter;
* every edge of ``G`` outside ``H`` (cheaply, via a monotonicity
  argument: if ``H`` preserves no-failure distances, failures of edges
  absent from ``H`` are automatically fine *unless* the failure changes
  distances in ``G`` - those edges are re-checked explicitly).

All per-failure distances come from the traversal engine's **batched
failure sweep** (:meth:`~repro.engine.base.TraversalEngine.failure_sweep`):
one lazy sweep over the graph side and one over the structure side.  On
the csr engine each sweep reuses a single base BFS tree and recomputes
only the subtree hanging under a failed tree edge (in C when the kernels
compile, else on numpy), which is what makes ``verify_structure`` fast
at scale; the python engine runs the historical two-BFS-per-failure
loop.  Graphs above ``REPRO_SHARD_THRESHOLD`` edges
(default 100000 when a zero-copy parallel runner exists - the
shared-memory shard transport or the thread-parallel ``csr-mt`` engine -
200000 when only the pickle transport does) are automatically verified
under a parallel engine: process-sharded sweeps
(:mod:`repro.engine.sharded`) when the shm transport is available, else
thread-windowed sweeps (:mod:`repro.engine.threaded`).  Verdicts,
counts, and violations are bit-identical across engines — parallel
wrappers included (enforced by the parity tests).

It also exposes :func:`unprotected_edges`, the measured set the paper
calls ``E_miss(H)`` - handy for evaluating *any* candidate subgraph, not
just ours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro._types import EdgeId, Vertex
from repro.engine.base import UNREACHABLE, distances_equal
from repro.engine.registry import get_engine
from repro.errors import VerificationError
from repro.graphs.graph import Graph
from repro.core.structure import FTBFSStructure
from repro.util.validation import env_int

__all__ = [
    "Violation",
    "VerificationReport",
    "verify_structure",
    "verify_subgraph",
    "unprotected_edges",
]


@dataclass(frozen=True)
class Violation:
    """One concrete counterexample to Definition 2.1."""

    failed_edge: Optional[EdgeId]  # None = the no-failure case
    vertex: Vertex
    dist_in_structure: int  # UNREACHABLE = -1
    dist_in_graph: int

    def __str__(self) -> str:
        where = "no failure" if self.failed_edge is None else f"edge {self.failed_edge} failed"
        return (
            f"[{where}] vertex {self.vertex}: structure dist "
            f"{self.dist_in_structure} != graph dist {self.dist_in_graph}"
        )


@dataclass
class VerificationReport:
    """Outcome of a verification run."""

    ok: bool
    checked_failures: int
    violations: List[Violation] = field(default_factory=list)

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` when not ok."""
        if not self.ok:
            first = self.violations[0] if self.violations else "(no detail)"
            raise VerificationError(
                f"structure verification failed with {len(self.violations)} "
                f"violations; first: {first}"
            )


#: Edge count above which verification auto-upgrades to a parallel engine.
SHARD_THRESHOLD_ENV_VAR = "REPRO_SHARD_THRESHOLD"

#: Pickle transport: each shard re-pickles and rebuilds the whole graph,
#: so sharding only pays on very large sweeps (the historical default).
_DEFAULT_SHARD_THRESHOLD = 200_000

#: Zero-fixed-cost sweeps (PR 6): under the shared-memory transport the
#: shard payload is O(1) and all per-sweep state (the base traversal,
#: the weighted setup) arrives through the plane or is memoized per
#: (plane, request), and the threaded engine has no transport at all -
#: either way parallel sweeps break even at roughly half the pickle
#: transport's edge count (see ``benchmarks/bench_sharded.py``).
_DEFAULT_SHARD_THRESHOLD_SHM = 100_000


def _default_shard_threshold() -> int:
    """The auto-upgrade default for whichever runner sweeps would use."""
    from repro.engine import shm
    from repro.engine.registry import available_engines

    if shm.transport_enabled() or "csr-mt" in available_engines():
        return _DEFAULT_SHARD_THRESHOLD_SHM
    return _DEFAULT_SHARD_THRESHOLD


def _resolve_engine(graph: Graph, engine: Optional[str]):
    """The engine to verify under: explicit > parallel-if-large > default.

    Large graphs upgrade to the process-sharded engine when the
    shared-memory transport is available (isolated per-core memory
    bandwidth, zero-copy attach), else to the thread-parallel ``csr-mt``
    engine when registered (zero-copy without any transport - exactly
    the regime where the sharded engine would be stuck re-pickling the
    graph per shard), else to sharded-over-pickle.  The upgrade only
    changes *where* sweeps run, never their values (the wrappers are
    bit-identical to their base by construction), so the report is the
    same either way.
    """
    eng = get_engine(engine)
    if engine is not None or getattr(eng, "parallel_sweeps", False):
        return eng
    threshold = env_int(SHARD_THRESHOLD_ENV_VAR, _default_shard_threshold())
    if graph.num_edges >= threshold:
        from repro.engine import shm
        from repro.engine.registry import available_engines

        try:
            if not shm.transport_enabled() and "csr-mt" in available_engines():
                return get_engine("csr-mt")
            return get_engine("sharded")
        except Exception:  # pragma: no cover - both are always registered
            return eng
    return eng


def _two_sided_sweep(
    eng,
    graph: Graph,
    source: Vertex,
    h_edges: Set[EdgeId],
    *,
    need_base_h: bool = True,
):
    """``(base_g, base_h, pairs)`` for the oracle's two sweep sides.

    ``pairs(candidates)`` yields ``(eid, dist_g, dist_h)`` per failure.
    Plain in-process engines go through one shared sweep handle per
    side, so the base traversal is computed exactly once and reused by
    every failure.  Parallel engines (``parallel_sweeps`` - the sharded
    process fanout and the thread-windowed csr-mt) stream both sides
    through their own ``failure_sweep`` instead — each side gets a
    half-budget copy so the two concurrently consumed sweeps share the
    machine's worker/thread budget rather than doubling it; callers
    that never look at the structure-side base (``unprotected_edges``)
    pass ``need_base_h=False`` to skip that traversal.  Values are
    identical either way (parallelism never affects results).
    """
    if getattr(eng, "parallel_sweeps", False):
        base_g = eng.distances(graph, source)
        base_h = (
            eng.distances(graph, source, allowed_edges=h_edges)
            if need_base_h
            else None
        )

        def pairs(candidates: List[EdgeId]):
            sweep_g = eng.halved().failure_sweep(graph, source, candidates)
            sweep_h = eng.halved().failure_sweep(
                graph, source, candidates, allowed_edges=h_edges
            )
            return zip(candidates, sweep_g, sweep_h)

        return base_g, base_h, pairs

    handle_g = eng.sweep(graph, source)
    handle_h = eng.sweep(graph, source, allowed_edges=h_edges)

    def pairs(candidates: List[EdgeId]):
        return (
            (eid, handle_g.failed(eid), handle_h.failed(eid))
            for eid in candidates
        )

    return handle_g.base_distances(), handle_h.base_distances(), pairs


def verify_structure(
    structure: FTBFSStructure,
    *,
    max_violations: int = 10,
    engine: Optional[str] = None,
) -> VerificationReport:
    """Verify an :class:`FTBFSStructure` against its graph."""
    return verify_subgraph(
        structure.graph,
        structure.source,
        structure.edges,
        structure.reinforced,
        max_violations=max_violations,
        engine=engine,
    )


def _fault_candidates(
    graph: Graph,
    base_g: Sequence[int],
    h_edges: Set[EdgeId],
    skip: Set[EdgeId],
) -> List[EdgeId]:
    """Edges whose failure could matter, in edge-id order.

    An edge failure in G changes some distance only if the edge is
    "BFS-critical"; rather than guess, check every fault-prone edge of G.
    Edges outside H with unchanged G-distances are skipped via a quick
    necessity filter: e = (u, v) can only matter if it is tight in G
    (lies on some shortest path: dist(u) + 1 == dist(v) or vice versa).
    """
    candidates: List[EdgeId] = []
    for eid, u, v in graph.edges():
        if eid in skip:
            continue  # reinforced edges never fail
        du, dv = base_g[u], base_g[v]
        tight = (
            (du != UNREACHABLE and dv == du + 1)
            or (dv != UNREACHABLE and du == dv + 1)
        )
        if not tight and eid not in h_edges:
            # Removing a non-tight, non-structure edge changes neither side.
            continue
        candidates.append(eid)
    return candidates


def verify_subgraph(
    graph: Graph,
    source: Vertex,
    structure_edges: Iterable[EdgeId],
    reinforced: Iterable[EdgeId] = (),
    *,
    max_violations: int = 10,
    engine: Optional[str] = None,
) -> VerificationReport:
    """Verify an arbitrary edge set ``H`` with reinforced subset ``E'``."""
    eng = _resolve_engine(graph, engine)
    h_edges: Set[EdgeId] = set(structure_edges)
    e_prime: Set[EdgeId] = set(reinforced)
    violations: List[Violation] = []
    checked = 0
    base_g, base_h, pairs = _two_sided_sweep(eng, graph, source, h_edges)

    # --- no-failure case ------------------------------------------------
    checked += 1
    _compare(None, base_h, base_g, violations, max_violations)
    if len(violations) >= max_violations:
        return VerificationReport(False, checked, violations)

    # --- failures (two batched sweeps, consumed in lockstep) -------------
    # Early exit on max_violations just stops consuming the pair stream.
    for eid, dist_g, dist_h in pairs(
        _fault_candidates(graph, base_g, h_edges, e_prime)
    ):
        checked += 1
        if distances_equal(dist_h, dist_g):
            continue
        _compare(eid, dist_h, dist_g, violations, max_violations)
        if len(violations) >= max_violations:
            break

    return VerificationReport(not violations, checked, violations)


def _compare(
    eid: Optional[EdgeId],
    dist_h: Sequence[int],
    dist_g: Sequence[int],
    violations: List[Violation],
    max_violations: int,
) -> None:
    for v, (dh, dg) in enumerate(zip(dist_h, dist_g)):
        if dh != dg:
            violations.append(Violation(eid, v, int(dh), int(dg)))
            if len(violations) >= max_violations:
                return


def unprotected_edges(
    graph: Graph,
    source: Vertex,
    structure_edges: Iterable[EdgeId],
    *,
    engine: Optional[str] = None,
) -> Set[EdgeId]:
    """The measured ``E_miss(H)``: edges whose failure ``H`` fails to cover.

    An edge ``e`` is *unprotected* in ``H`` when some vertex has
    ``dist(s, v, H \\ e) != dist(s, v, G \\ e)``.  The returned set is the
    minimal valid reinforcement set for ``H`` - useful to evaluate
    candidate structures produced by any method.
    """
    eng = _resolve_engine(graph, engine)
    h_edges: Set[EdgeId] = set(structure_edges)
    base_g, _base_h, pairs = _two_sided_sweep(
        eng, graph, source, h_edges, need_base_h=False
    )
    result: Set[EdgeId] = set()
    for eid, dist_g, dist_h in pairs(
        _fault_candidates(graph, base_g, h_edges, set())
    ):
        if not distances_equal(dist_h, dist_g):
            result.add(eid)
    return result
