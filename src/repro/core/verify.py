"""Verification oracle for ``(b, r)`` FT-BFS structures (Definition 2.1).

The oracle is deliberately independent of the construction: it re-derives
everything with plain hop BFS and compares, per possible failure,

``dist(s, v, H \\ {e})  ==  dist(s, v, G \\ {e})``   for every ``v``,

treating unreachable as unreachable on both sides ("the surviving part").
Only failures of *tree* edges of some BFS tree can change distances, but
the oracle does not assume the structure contains ``T0``: it checks

* the no-failure case (``H`` spans the same distances as ``G``);
* every non-reinforced edge of ``H``;
* every non-reinforced edge of ``G`` outside ``H`` that is tight in
  ``G`` (on some shortest path).  If ``H`` preserves the no-failure
  distances, the failure of an edge absent from ``H`` can only matter
  when it changes distances in ``G``, which a non-tight edge never does
  (:func:`~repro.engine.base.fault_candidates`).

``checked_failures`` counts the no-failure case plus each candidate
failure the run reached: every candidate, unless ``max_violations``
stopped it early.  A candidate counts whether it was compared or
decided by the no-failure verdict (below).

All per-failure distances come from the traversal engine's **failure
sweep** handles (:meth:`~repro.engine.base.TraversalEngine.sweep`): one
over the graph side and one over the structure side.  On the csr engine
each handle reuses a single base BFS tree and recomputes only the
subtree hanging under a failed tree edge (in C when the kernels
compile, else on numpy); a failure off its base tree changes nothing,
and the handle gives back its base vector itself.  A failure that
leaves *both* sides' base vectors in place is decided by the no-failure
verdict, with no comparison; it is compared in full (and reported
violation by violation) only when the no-failure case itself had
violations.  The python engine runs the historical two-BFS-per-failure
loop and compares every failure.  Verification runs on the engine it
is given (the usual selection chain when none is named).  Verdicts,
counts, and violations are bit-identical across engines (enforced by
the parity tests).

It also exposes :func:`unprotected_edges`, the measured set the paper
calls ``E_miss(H)`` - handy for evaluating *any* candidate subgraph, not
just ours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro._types import EdgeId, Vertex
from repro.engine.base import distances_equal, fault_candidates
from repro.engine.registry import get_engine
from repro.errors import VerificationError
from repro.graphs.graph import Graph
from repro.core.structure import FTBFSStructure

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


def _resolve_engine(graph: Graph, engine: Optional[str]):
    """The engine a verify of ``graph`` runs on: ``get_engine(engine)``.

    Kept for callers that record the resolved engine
    (``perfbench/workloads.py``); ``graph`` plays no part.
    """
    return get_engine(engine)


def _two_sided_sweep(
    eng,
    graph: Graph,
    source: Vertex,
    h_edges: Set[EdgeId],
):
    """``(base_g, base_h, pairs)`` for the oracle's two sweep sides.

    ``pairs(candidates)`` yields ``(eid, dist_g, dist_h)`` per failure.
    Each side goes through one sweep handle, so its base traversal is
    computed exactly once and reused by every failure.
    """
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


def verify_subgraph(
    graph: Graph,
    source: Vertex,
    structure_edges: Iterable[EdgeId],
    reinforced: Iterable[EdgeId] = (),
    *,
    max_violations: int = 10,
    engine: Optional[str] = None,
) -> VerificationReport:
    """Verify an arbitrary edge set ``H`` with reinforced subset ``E'``.

    Stops after ``max_violations`` violations, which must be at least 1
    (:class:`ValueError` otherwise).
    """
    if max_violations < 1:
        raise ValueError(f"max_violations must be >= 1, got {max_violations}")
    eng = get_engine(engine)
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
    base_ok = not violations

    # --- failures (two batched sweeps, consumed in lockstep) -------------
    # Early exit on max_violations just stops consuming the pair stream.
    for eid, dist_g, dist_h in pairs(
        fault_candidates(graph, base_g, h_edges, e_prime)
    ):
        checked += 1
        if dist_g is base_g and dist_h is base_h:
            if base_ok:
                continue  # changes neither side: the no-failure verdict
        elif distances_equal(dist_h, dist_g):
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
    eng = get_engine(engine)
    h_edges: Set[EdgeId] = set(structure_edges)
    base_g, base_h, pairs = _two_sided_sweep(eng, graph, source, h_edges)
    base_ok = distances_equal(base_h, base_g)
    result: Set[EdgeId] = set()
    for eid, dist_g, dist_h in pairs(
        fault_candidates(graph, base_g, h_edges, set())
    ):
        if dist_g is base_g and dist_h is base_h:
            if base_ok:
                continue  # changes neither side: the no-failure verdict
        elif distances_equal(dist_h, dist_g):
            continue
        result.add(eid)
    return result
