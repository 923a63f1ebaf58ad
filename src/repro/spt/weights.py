"""Tie-breaking weight assignments ``W`` making shortest paths unique.

The paper (Section 2) assumes a positive weight assignment ``W`` chosen so
that the weighted shortest path between any pair of vertices is *unique in
every subgraph* ``G' of G``, and uses it purely to break hop-count ties
consistently.  We realize this with composite integer weights

``W(e) = BIG + pert(e)``            with ``sum of perturbations < BIG``,

so that comparing path weights compares ``(hop count, perturbation sum)``
lexicographically.  Two schemes are provided:

* ``exact``  - ``pert(e) = 2**e``.  Simple paths have distinct edge sets,
  so their perturbation sums (subset sums of distinct powers of two) are
  distinct: shortest paths are *provably* unique in every subgraph.  The
  weights are big Python ints of ~m bits; ideal for small/medium graphs
  (tests, examples) and still perfectly usable for the benchmark sizes.
* ``random`` - ``pert(e)`` drawn uniformly from ``[1, 2**44)``.  Constant
  size, much faster on large graphs; uniqueness holds with overwhelming
  probability (isolation lemma).  The Dijkstra engine *detects* ties at
  relaxation time and raises :class:`repro.errors.TieBreakError` so the
  caller can reseed - uniqueness failures are loud, never silent.

``hops(weight)`` recovers the hop count as ``weight >> shift``.

Array export (the weighted fast path)
-------------------------------------
A composite distance is the lexicographic pair ``(hops, pert_sum)``.
``hops`` never overflows, and for the random scheme any simple path's
``pert_sum`` is below ``2**19 * 2**44 < 2**63`` - so both components fit
``int64`` *separately* even though the composite ``hops << 63`` does
not.  :meth:`WeightAssignment.pert_array` exports the per-edge
perturbations as a memoized read-only ``int64`` array for the array
kernels in :mod:`repro.engine.weighted_kernels`; the export is ``None``
whenever a perturbation cannot be represented (the exact scheme's
``2**eid`` overflows ``int64`` past 62 edges).  The exact scheme needs
no export: the csr engine's C kernels compare its sums of distinct
powers of two by their largest edge id, and without them engines fall
back to the big-int reference Dijkstra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import ParameterError
from repro.graphs.graph import Graph

__all__ = [
    "WeightAssignment",
    "make_weights",
    "scheme_shift",
    "EXACT",
    "RANDOM",
    "AUTO",
]

EXACT = "exact"
RANDOM = "random"
AUTO = "auto"

#: Above this edge count, ``auto`` switches from exact to random weights.
_AUTO_EXACT_LIMIT = 20_000

_RANDOM_PERT_BITS = 44
_RANDOM_SHIFT = 63  # BIG = 2**63: supports paths of ~2**19 hops safely.


@dataclass(frozen=True)
class WeightAssignment:
    """Per-edge composite weights.  Index with an edge id.

    Attributes
    ----------
    weights:
        ``weights[eid]`` is the integer weight ``BIG + pert(eid)``.
    shift:
        ``BIG = 1 << shift``; ``hops(x) = x >> shift``.
    scheme:
        ``"exact"`` or ``"random"``.  ``"exact"`` promises
        ``weights[e] == BIG + 2**e``: the csr engine's C kernels order
        exact-scheme paths by their edge ids, not by these weights.
    seed:
        Seed used for the random scheme (0 for exact).
    """

    weights: Sequence[int]
    shift: int
    scheme: str
    seed: int = 0
    #: Memoized numpy export (see :meth:`pert_array`); never compared.
    _pert_cache: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def big(self) -> int:
        """The hop unit ``BIG``."""
        return 1 << self.shift

    def hops(self, weight: int) -> int:
        """Extract the hop count encoded in a path weight."""
        return weight >> self.shift

    def perturbation(self, weight: int) -> int:
        """Extract the perturbation sum encoded in a path weight."""
        return weight & (self.big - 1)

    def path_weight(self, edge_ids: Sequence[int]) -> int:
        """Total weight of a path given as edge ids."""
        w = self.weights
        return sum(w[e] for e in edge_ids)

    def __getitem__(self, eid: int) -> int:
        return self.weights[eid]

    def __len__(self) -> int:
        return len(self.weights)

    def pert_array(self):
        """Per-edge perturbations as a read-only ``int64`` numpy array.

        Returns ``(perts, max_pert)`` where ``perts[eid] = weights[eid] -
        BIG``, or ``None`` when the assignment cannot be represented in
        fixed width: numpy unavailable, a negative perturbation (weights
        below ``BIG``), or a perturbation past ``int64`` (the exact
        scheme's ``2**eid`` for ``eid >= 63``).  The export is memoized
        on the assignment (like the Graph's cached CSR view), so
        repeated engine calls never re-export.
        """
        cached = self._pert_cache
        if cached is None:
            cached = self._export_perts()
            object.__setattr__(self, "_pert_cache", cached)
        return None if cached == "unsupported" else cached

    def _export_perts(self):
        try:
            import numpy as np
        except ImportError:
            return "unsupported"
        big = self.big
        perts = [w - big for w in self.weights]
        if perts and (min(perts) < 0 or max(perts) >= 2**63):
            return "unsupported"
        arr = np.asarray(perts, dtype=np.int64)
        arr.setflags(write=False)
        return arr, (max(perts) if perts else 0)

    def __getstate__(self):
        """Pickle everything except the memoized numpy export.

        Like ``Graph._csr_cache``, the export is a rebuildable memo:
        shipping it would bloat every worker payload with a second copy
        of the per-edge perturbations once any engine has exported them.
        """
        state = dict(self.__dict__)
        state["_pert_cache"] = None
        return state

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def reseeded(self, new_seed: int) -> "WeightAssignment":
        """Return a random-scheme assignment with a fresh seed.

        Only meaningful for the random scheme; the exact scheme is
        deterministic and cannot be reseeded.
        """
        if self.scheme != RANDOM:
            raise ParameterError("only random weight assignments can be reseeded")
        return _make_random(len(self.weights), new_seed)


def make_weights(graph: Graph, scheme: str = AUTO, seed: int = 0) -> WeightAssignment:
    """Create a :class:`WeightAssignment` for ``graph``.

    ``scheme`` is ``"exact"``, ``"random"`` or ``"auto"`` (exact for small
    graphs, random above ``20000`` edges).
    """
    m = graph.num_edges
    if scheme == AUTO:
        scheme = EXACT if m <= _AUTO_EXACT_LIMIT else RANDOM
    if scheme == EXACT:
        return _make_exact(m)
    if scheme == RANDOM:
        return _make_random(m, seed)
    raise ParameterError(f"unknown weight scheme {scheme!r}")


def scheme_shift(scheme: str, num_edges: int) -> int:
    """The ``shift`` (``BIG = 1 << shift``) that ``scheme`` gives a graph
    of ``num_edges`` edges: ``num_edges + 2`` exact, 63 random."""
    if scheme == EXACT:
        # Perturbation sum over any simple path is < 2**m, so BIG =
        # 2**(m+1) guarantees hop counts dominate.  A couple of guard
        # bits cost nothing.
        return num_edges + 2
    if scheme == RANDOM:
        return _RANDOM_SHIFT
    raise ParameterError(f"unknown weight scheme {scheme!r}")


def _make_exact(m: int) -> WeightAssignment:
    shift = scheme_shift(EXACT, m)
    big = 1 << shift
    weights: List[int] = [big + (1 << e) for e in range(m)]
    return WeightAssignment(weights=weights, shift=shift, scheme=EXACT, seed=0)


def _make_random(m: int, seed: int) -> WeightAssignment:
    # CPython's ``randrange(1, 2**44)`` step by step, at a quarter of its
    # cost: 1 + a 44-bit draw, redrawn while it is the one value past
    # the range.  The same seed keeps giving the same weights.
    draw = random.Random(seed ^ 0xD1F7_55AA_C0FF_EE00).getrandbits
    bits = _RANDOM_PERT_BITS
    past_range = (1 << bits) - 1
    base = (1 << _RANDOM_SHIFT) + 1
    weights = []
    for _ in range(m):
        r = draw(bits)
        while r == past_range:
            r = draw(bits)
        weights.append(base + r)
    return WeightAssignment(
        weights=weights, shift=_RANDOM_SHIFT, scheme=RANDOM, seed=seed
    )
