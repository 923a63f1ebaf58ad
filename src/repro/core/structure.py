"""The output object: a ``(b, r)`` FT-BFS structure.

``FTBFSStructure`` bundles the subgraph ``H`` (edge-id set), the
reinforced set ``E'`` and the provenance/bookkeeping the benchmarks
report: which phase added what, the interference/iteration counters, and
the size quantities ``b(n)`` (backup edges) and ``r(n)`` (reinforced
edges) that Theorem 3.1 bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet

from repro._types import EdgeId, Vertex
from repro.errors import ParameterError
from repro.graphs.graph import Graph

__all__ = ["ConstructStats", "FTBFSStructure"]


@dataclass
class ConstructStats:
    """Phase-by-phase counters recorded during construction."""

    num_pairs: int = 0
    num_covered: int = 0
    num_uncovered: int = 0
    num_disconnected: int = 0
    i1_size: int = 0
    i2_size: int = 0
    s1_iterations: int = 0
    s1_k_bound: int = 0
    s1_within_bound: bool = True
    s1_edges_added: int = 0
    s1_cap_hit: bool = False
    s2_edges_added: int = 0
    s2_glue_pairs: int = 0
    num_sim_sets: int = 0
    #: Weight scheme the construction actually ran under ("exact" or
    #: "random") - records the ``make_weights(scheme="auto")`` decision,
    #: which is otherwise invisible in saved results.
    weight_scheme: str = ""
    #: Traversal engine the construction ran under.
    engine: str = ""
    elapsed_seconds: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Flatten to plain JSON-serializable values."""
        out: Dict[str, object] = {
            k: v for k, v in self.__dict__.items() if k != "elapsed_seconds"
        }
        out.update({f"time_{k}": v for k, v in self.elapsed_seconds.items()})
        return out


@dataclass(frozen=True)
class FTBFSStructure:
    """A ``(b, r)`` FT-BFS structure for ``graph`` rooted at ``source``.

    ``edges`` is ``E(H)``; ``reinforced`` is ``E' subseteq E(H)``
    (reinforced edges never fail); all other edges of ``H`` are backup
    edges.  By construction ``T0 subseteq H`` and ``E' subseteq E(T0)``.
    """

    graph: Graph
    source: Vertex
    epsilon: float
    edges: FrozenSet[EdgeId]
    reinforced: FrozenSet[EdgeId]
    tree_edges: FrozenSet[EdgeId]
    stats: ConstructStats = field(default_factory=ConstructStats, compare=False)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """``|E(H)|``."""
        return len(self.edges)

    @property
    def num_backup(self) -> int:
        """``b(n) = |E(H) \\ E'|``."""
        return len(self.edges) - len(self.reinforced)

    @property
    def num_reinforced(self) -> int:
        """``r(n) = |E'|``."""
        return len(self.reinforced)

    @property
    def backup_edges(self) -> FrozenSet[EdgeId]:
        """The backup edge set ``E(H) \\ E'``."""
        return self.edges - self.reinforced

    def cost(self, backup_cost: float, reinforce_cost: float) -> float:
        """Total cost ``B * b(n) + R * r(n)`` of the mixed design."""
        if backup_cost < 0 or reinforce_cost < 0:
            raise ParameterError("edge costs must be non-negative")
        return backup_cost * self.num_backup + reinforce_cost * self.num_reinforced

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    def subgraph(self) -> Graph:
        """Materialize ``H`` as a standalone :class:`Graph`."""
        return self.graph.edge_subgraph(self.edges, name="H")

    def summary(self) -> str:
        """One-line human-readable summary."""
        n = self.graph.num_vertices
        return (
            f"FT-BFS(eps={self.epsilon:g}) on n={n}, m={self.graph.num_edges}: "
            f"|H|={self.num_edges} backup={self.num_backup} "
            f"reinforced={self.num_reinforced}"
        )

    def __repr__(self) -> str:
        return f"<{self.summary()}>"
