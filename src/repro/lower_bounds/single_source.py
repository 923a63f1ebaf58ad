"""The Theorem 5.1 lower-bound graph ``G_eps`` (Section 5, Fig. 10).

Structure (parameters ``d ~ n^eps / 4`` and ``k ~ n^(1-2eps)``): ``k``
identical gadget copies hang off the source ``s``.  Copy ``i`` contains

* a path ``pi_i = [s_i = v_1, ..., v_{d+1} = v*_i]`` of ``d`` edges;
* ``d`` "ladder" paths ``Pbar_j`` of strictly decreasing length
  ``t_j = 6 + 2(d - j)`` connecting ``v_j`` to a terminal ``z_j``
  (``Z_i = {z_1..z_d}``);
* a vertex set ``X_i`` fully connected to the terminal ``v*_i``;
* the complete bipartite graph ``B_i = X_i x Z_i``.

Claim 5.3: when edge ``e_j = (v_j, v_{j+1})`` fails, the *unique*
replacement path to each ``x in X_i`` is
``pi[s, v_j] o Pbar_j o (z_j, x)`` - so unless ``e_j`` is reinforced,
*every* edge of ``E^i_j = {(x, z_j) : x in X_i}`` is forced into any
valid structure.  With at most ``|Pi|/6`` reinforced edges this forces
``Omega(n^(1+eps))`` backup edges.

The builder keeps full layout metadata so benchmarks can enumerate the
forced sets and tests can check Claim 5.3 computationally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro._types import EdgeId, Vertex
from repro.errors import ParameterError
from repro.graphs.graph import Graph
from repro.util.validation import check_epsilon

__all__ = ["GadgetCopy", "LowerBoundGraph", "build_theorem51", "lower_bound_parameters"]


@dataclass
class GadgetCopy:
    """Vertex layout of one copy ``G_{eps,i}``."""

    index: int
    #: path vertices ``[s_i = v_1, ..., v_{d+1} = v*_i]``.
    pi_vertices: List[Vertex]
    #: ``z_j`` terminals, index j-1 -> vertex.
    z_vertices: List[Vertex]
    #: the ``X_i`` block.
    x_vertices: List[Vertex]
    #: ladder paths: index j-1 -> full vertex list ``v_j .. z_j``.
    ladder_paths: List[List[Vertex]]
    #: path edge ids ``e_j = (v_j, v_{j+1})``, index j-1.
    pi_edge_ids: List[EdgeId] = field(default_factory=list)
    #: forced bipartite sets ``E^i_j``, index j-1 -> edge ids ``(x, z_j)``.
    forced_sets: List[List[EdgeId]] = field(default_factory=list)

    @property
    def terminal(self) -> Vertex:
        """``v*_i`` (the deep end of ``pi_i``)."""
        return self.pi_vertices[-1]


@dataclass
class LowerBoundGraph:
    """The built gadget plus all layout metadata."""

    graph: Graph
    source: Vertex
    epsilon: float
    d: int
    k: int
    x_size: int
    copies: List[GadgetCopy]

    @property
    def num_pi_edges(self) -> int:
        """``|E(Pi)| = k * d`` - the "costly" edges."""
        return self.d * self.k

    def pi_edges(self) -> List[EdgeId]:
        """All path edges across copies."""
        return [eid for c in self.copies for eid in c.pi_edge_ids]

    def certified_backup_lower_bound(self, reinforcement_budget: int) -> int:
        """Provable minimum backup size for any structure within budget.

        Claim 5.3: every unreinforced path edge ``e_j`` forces its
        (pairwise disjoint) set ``E^i_j`` of ``|X_i|`` edges into the
        structure.  With at most ``r`` reinforcements, at least
        ``(k*d - r)`` path edges stay fault-prone.
        """
        unreinforced = max(0, self.num_pi_edges - max(0, reinforcement_budget))
        return unreinforced * self.x_size

    def expected_replacement_distance(self, j: int) -> int:
        """Claim 5.3 arithmetic: ``dist(s, x, G \\ e_j) = 2d - j + 7``."""
        if not 1 <= j <= self.d:
            raise ParameterError(f"j must be in [1, {self.d}], got {j}")
        return 2 * self.d - j + 7


def lower_bound_parameters(n_target: int, epsilon: float) -> Tuple[int, int, int]:
    """Derive ``(d, k, x_size)`` from a target vertex count.

    ``d = max(1, floor(n^eps / 4))``, ``k = max(1, floor(n^(1-2eps)))``;
    ``x_size`` absorbs the remaining vertex budget per copy (at least 2 so
    the bipartite forcing is visible).  The realized vertex count is
    reported by the builder; all benchmark fits use realized sizes.
    """
    eps = check_epsilon(epsilon)
    if n_target < 16:
        raise ParameterError(f"lower-bound gadget needs n_target >= 16, got {n_target}")
    d = max(1, int(n_target**eps) // 4)
    k = max(1, int(math.floor(n_target ** max(0.0, 1.0 - 2.0 * eps))))
    # Per-copy fixed vertices: path (d+1) + Z (d) + ladder interiors.
    ladder_interior = sum(6 + 2 * (d - j) - 1 for j in range(1, d + 1))
    fixed = (d + 1) + d + ladder_interior
    per_copy_budget = max(1, (n_target - 1) // k)
    x_size = max(2, per_copy_budget - fixed)
    return d, k, x_size


def build_theorem51(
    n_target: int,
    epsilon: float,
    *,
    d: Optional[int] = None,
    k: Optional[int] = None,
    x_size: Optional[int] = None,
) -> LowerBoundGraph:
    """Build ``G_eps``; parameters derived from ``n_target`` unless given."""
    eps = check_epsilon(epsilon)
    if d is None or k is None or x_size is None:
        d0, k0, x0 = lower_bound_parameters(n_target, epsilon)
        d = d if d is not None else d0
        k = k if k is not None else k0
        x_size = x_size if x_size is not None else x0
    if d < 1 or k < 1 or x_size < 1:
        raise ParameterError(f"invalid gadget parameters d={d}, k={k}, x_size={x_size}")

    edges: List[Tuple[int, int]] = []
    next_id = 1  # vertex 0 is the source s
    copies: List[GadgetCopy] = []

    def fresh(count: int) -> List[int]:
        nonlocal next_id
        ids = list(range(next_id, next_id + count))
        next_id += count
        return ids

    for i in range(k):
        pi_vertices = fresh(d + 1)
        z_vertices = fresh(d)
        x_vertices = fresh(x_size)
        # path pi_i
        for a, b in zip(pi_vertices, pi_vertices[1:]):
            edges.append((a, b))
        # s -- s_i
        edges.append((0, pi_vertices[0]))
        # ladders Pbar_j: v_j .. z_j with t_j = 6 + 2(d - j) edges
        ladder_paths: List[List[int]] = []
        for j in range(1, d + 1):
            t_j = 6 + 2 * (d - j)
            interior = fresh(t_j - 1)
            full = [pi_vertices[j - 1], *interior, z_vertices[j - 1]]
            for a, b in zip(full, full[1:]):
                edges.append((a, b))
            ladder_paths.append(full)
        # terminal star to X_i
        for x in x_vertices:
            edges.append((pi_vertices[-1], x))
        # complete bipartite X_i x Z_i
        for x in x_vertices:
            for z in z_vertices:
                edges.append((x, z))
        copies.append(
            GadgetCopy(
                index=i,
                pi_vertices=pi_vertices,
                z_vertices=z_vertices,
                x_vertices=x_vertices,
                ladder_paths=ladder_paths,
            )
        )

    graph = Graph(next_id, edges, name=f"G_eps(n~{n_target},eps={eps:g})")

    # Resolve edge ids for the metadata.
    for copy in copies:
        copy.pi_edge_ids = [
            graph.edge_id(a, b)
            for a, b in zip(copy.pi_vertices, copy.pi_vertices[1:])
        ]
        copy.forced_sets = [
            [graph.edge_id(x, z) for x in copy.x_vertices]
            for z in copy.z_vertices
        ]

    return LowerBoundGraph(
        graph=graph,
        source=0,
        epsilon=eps,
        d=d,
        k=k,
        x_size=x_size,
        copies=copies,
    )
