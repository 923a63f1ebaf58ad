"""Vertex-edge pair records: the ``<v, e>`` objects of the paper.

A pair ``<v, e>`` consists of a terminal ``v`` and a tree edge
``e in pi(s, v)``; Algorithm Pcons assigns each a replacement path
``P_{v,e}``.  :class:`PairRecord` stores everything later phases need:
whether the pair is *covered* (its path's last edge already lies in
``T0``), the replacement distance, the chosen last edge, and - for
uncovered pairs - the divergence point and full detour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro._types import EdgeId, Vertex

__all__ = ["PairRecord", "PairSet"]


@dataclass
class PairRecord:
    """One ``<v, e>`` pair with its Pcons replacement path data.

    Attributes
    ----------
    pair_id:
        Dense index of this pair (position in ``PconsResult.pairs``).
    v:
        The terminal vertex.
    eid:
        The failing tree edge.
    child:
        The deeper endpoint of ``eid`` (identifies the edge on ``T0``).
    edge_depth:
        ``dist(s, e)``: depth of ``child``.
    dist_to_v:
        ``dist(v, e, pi(s, v))`` in edges - the quantity the S1 orderings
        sort by (``depth(v) - edge_depth``).
    covered:
        True if some replacement path's last edge is a ``T0`` edge.
    disconnected:
        True if ``v`` is unreachable in ``G \\ {e}`` (no protection needed).
    new_dist:
        ``dist_W(s, v, G \\ {e})`` (``None`` iff disconnected).
    last_eid:
        Last edge of the chosen replacement path ``P_{v,e}``
        (``None`` iff disconnected).
    divergence / div_index:
        For uncovered pairs: the unique divergence point ``d(P)`` and its
        index along ``pi(s, v)``.
    detour:
        For uncovered pairs: the detour ``D(P)`` as a vertex tuple
        ``(d(P), ..., v)``; internally disjoint from ``pi(s, v)``.
    """

    pair_id: int
    v: Vertex
    eid: EdgeId
    child: Vertex
    edge_depth: int
    dist_to_v: int
    covered: bool = False
    disconnected: bool = False
    new_dist: Optional[int] = None
    last_eid: Optional[EdgeId] = None
    divergence: Optional[Vertex] = None
    div_index: Optional[int] = None
    detour: Optional[Tuple[Vertex, ...]] = None

    @property
    def uncovered(self) -> bool:
        """True for pairs whose replacement path is new-ending."""
        return not self.covered and not self.disconnected

    def detour_internal(self) -> Tuple[Vertex, ...]:
        """Internal vertices of the detour (excluding ``d(P)`` and ``v``)."""
        if self.detour is None:
            return ()
        return self.detour[1:-1]

    def key(self) -> Tuple[Vertex, EdgeId]:
        """The ``(v, eid)`` identity of the pair."""
        return (self.v, self.eid)


class PairSet:
    """An indexed collection of pair records.

    Provides the groupings the construction phases keep asking for:
    by terminal vertex, by failing edge, and by pair id.
    """

    def __init__(self, pairs: Sequence[PairRecord]) -> None:
        self.pairs: List[PairRecord] = list(pairs)
        self.by_vertex: Dict[Vertex, List[PairRecord]] = {}
        self.by_edge: Dict[EdgeId, List[PairRecord]] = {}
        self.by_key: Dict[Tuple[Vertex, EdgeId], PairRecord] = {}
        for rec in self.pairs:
            self.by_vertex.setdefault(rec.v, []).append(rec)
            self.by_edge.setdefault(rec.eid, []).append(rec)
            self.by_key[rec.key()] = rec

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def get(self, v: Vertex, eid: EdgeId) -> Optional[PairRecord]:
        """Look up the record for ``<v, e>`` (``None`` if absent)."""
        return self.by_key.get((v, eid))

    def uncovered(self) -> List[PairRecord]:
        """All uncovered pairs (the paper's ``UP``)."""
        return [p for p in self.pairs if p.uncovered]
