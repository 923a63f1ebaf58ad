"""O(path) failure-distance queries over a built FT-BFS structure.

:class:`QueryOracle` answers ``dist(s, v | failed_edges)`` and
``path(...)`` from the precomputed planes of an
:class:`~repro.oracle.snapshot.OracleStructure` - live or
snapshot-mapped, the oracle never cares which.  Composite weights make
the shortest path to every vertex unique in *every* subgraph, so under
a failure set ``F`` only a vertex below a failed tree edge can change
its answer: any other vertex keeps its tree path, which survives in
``G \\ F`` and so stays its unique shortest path there.  Each failure
set falls in one of three classes:

* no failed edge lies on the base tree -> the base planes answer every
  target.
* exactly one edge failed and it is a tree edge with a cached
  replacement row -> the Euler-keyed row answers.  Vertices outside the
  failed subtree keep their base values; vertices inside read the row
  at position ``tin[v] - tin[child]``, which the sweep proved
  bit-identical to a fresh banned-edge traversal.
* any other set with a failed tree edge -> each target on its own.  The
  children ``c`` of the failed tree edges give Euler intervals
  ``[tin[c], tout[c])``.  A target outside all of them reads the base
  planes.  A target inside one reads the *fallback*: one engine
  traversal of the whole graph with every edge of ``F`` banned, run
  only for a query with a target inside, at most once per query, and
  memoized in a small LRU keyed by the frozen failure set.

Every answer is therefore bit-identical to recomputing from scratch
under the same failure set - the parity tests pin this per engine; a
tie met by the fallback traversal raises
:class:`~repro.errors.TieBreakError`.  ``mark_down``/``mark_up``
maintain an incremental failure state merged into every query's failed
set, so a serving process can model a slowly changing fault pattern
without per-query plumbing.

Outside the fallback, the query kernels are O(path-length) array
lookups plus an O(|failed|) classification and Euler test.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro._types import EdgeId, Vertex
from repro.errors import GraphError
from repro.oracle.snapshot import OracleStructure
from repro.spt.spt_tree import ShortestPathTree

__all__ = ["OracleStats", "QueryOracle"]

#: Fallback traversals kept, least recently used evicted first; keyed
#: by the frozen failure set, each holds the engine's n-long result.
_FALLBACK_CACHE_SIZE = 16


class OracleStats:
    """Where the oracle's answers came from, counted per target.

    A query counts once for each target it answers (``dist_many`` each
    of its targets, ``route`` its one ``v``), under the class of that
    target's answer, so ``queries == base_answers + row_answers +
    fallback_answers`` always holds:

    * ``base_answers``: the base planes - no failed tree edge, or, under
      any other failure set with one, a target outside every failed
      subtree;
    * ``row_answers``: a sole failed tree edge's cached row (a target
      outside its subtree reads base planes, but counts here);
    * ``fallback_answers``: under any other failure set with a failed
      tree edge, a target inside a failed subtree, read from the
      fallback traversal.

    ``fallback_traversals`` counts fallback traversals run, and
    ``fallback_hits`` those taken from the LRU instead; a query adds to
    at most one of them, and only when a target lies inside.
    """

    __slots__ = (
        "queries",
        "base_answers",
        "row_answers",
        "fallback_answers",
        "fallback_traversals",
        "fallback_hits",
    )

    def __init__(
        self,
        queries: int = 0,
        base_answers: int = 0,
        row_answers: int = 0,
        fallback_answers: int = 0,
        fallback_traversals: int = 0,
        fallback_hits: int = 0,
    ) -> None:
        self.queries = queries
        self.base_answers = base_answers
        self.row_answers = row_answers
        self.fallback_answers = fallback_answers
        self.fallback_traversals = fallback_traversals
        self.fallback_hits = fallback_hits

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"OracleStats({inner})"


def _as_list(plane: Sequence[int]) -> List[int]:
    """A plane's values as a list of ints: live planes already are one;
    mapped (numpy) and decoded (``array('q')``) planes are copied."""
    return plane if type(plane) is list else plane.tolist()


class _FailedSubtrees:
    """One query's failed subtrees: the failure set, the Euler interval
    ``(tin[c], tout[c])`` of each failed tree edge's child ``c``, and the
    fallback traversal once a target inside needs it."""

    __slots__ = ("fset", "intervals", "result")

    def __init__(
        self, fset: FrozenSet[EdgeId], intervals: List[Tuple[int, int]]
    ) -> None:
        self.fset = fset
        self.intervals = intervals
        self.result = None


class QueryOracle:
    """Answer failure-distance queries in O(path) from precomputed planes.

    Construct over an :class:`~repro.oracle.snapshot.OracleStructure`
    (``QueryOracle(structure)``), from live objects
    (:meth:`from_tree`), or straight from a snapshot file
    (:meth:`load`).  ``engine`` names the traversal engine that runs
    the fallback traversals; it follows the standard selection chain
    when omitted.
    """

    def __init__(
        self,
        structure: OracleStructure,
        *,
        engine: Optional[str] = None,
    ) -> None:
        self.structure = structure
        self._engine_name = engine
        arrays = structure.arrays
        self._hop = arrays["tree_hop"]
        self._pert = arrays["tree_pert"]
        self._parent = arrays["tree_parent"]
        self._parent_eid = arrays["tree_parent_eid"]
        self._tin = arrays["tree_tin"]
        self._tout = arrays["tree_tout"]
        self._repl_child = arrays["repl_child"]
        self._repl_offsets = arrays["repl_offsets"]
        self._repl_hop = arrays["repl_hop"]
        self._repl_pert = arrays["repl_pert"]
        self._repl_parent = arrays["repl_parent"]
        self._repl_parent_eid = arrays["repl_parent_eid"]
        self._shift = structure.shift
        self._source = structure.source
        self._n = structure.num_vertices
        self._m = structure.num_edges
        # Tree edges are exactly the parent edges of reachable non-root
        # vertices; O(n) to map each to its child, no adjacency walk.
        # Both maps read one list copy of their plane, not its elements.
        self._child_of: Dict[EdgeId, Vertex] = {
            pe: v for v, pe in enumerate(_as_list(self._parent_eid)) if pe >= 0
        }
        self._row_by_eid: Dict[EdgeId, int] = {
            eid: row for row, eid in enumerate(_as_list(arrays["repl_eids"]))
        }
        self._marked: Set[EdgeId] = set()
        self._fallback: "OrderedDict[FrozenSet[EdgeId], object]" = OrderedDict()
        self.stats = OracleStats()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls, tree: ShortestPathTree, *, engine: Optional[str] = None
    ) -> "QueryOracle":
        """Oracle over live objects (no snapshot file involved): the
        replacement rows of every tree edge are swept here, once."""
        return cls(OracleStructure.from_live(tree), engine=engine)

    @classmethod
    def load(
        cls,
        path,
        *,
        engine: Optional[str] = None,
        mapped: Optional[bool] = None,
    ) -> "QueryOracle":
        """Oracle over a snapshot file (see
        :func:`~repro.oracle.snapshot.load_structure`)."""
        from repro.oracle.snapshot import load_structure

        return cls(load_structure(path, mapped=mapped), engine=engine)

    # ------------------------------------------------------------------
    # incremental failure state
    # ------------------------------------------------------------------
    def mark_down(self, eid: EdgeId) -> None:
        """Add ``eid`` to the standing failure set of every query."""
        self._check_eid(eid)
        self._marked.add(int(eid))

    def mark_up(self, eid: EdgeId) -> None:
        """Remove ``eid`` from the standing failure set (no-op if absent)."""
        self._check_eid(eid)
        self._marked.discard(int(eid))

    @property
    def marked(self) -> FrozenSet[EdgeId]:
        """The standing failure set maintained by ``mark_down``/``mark_up``."""
        return frozenset(self._marked)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def dist(
        self, v: Vertex, failed: Optional[Iterable[EdgeId]] = None
    ) -> Optional[int]:
        """Composite distance from the source to ``v`` avoiding the
        failed edges (``None`` when disconnected)."""
        self._check_vertex(v)
        kind, payload = self._classify(failed)
        d = self._dist_via(kind, payload, v)
        self._count(kind, payload, (v,))
        return d

    def hops(
        self, v: Vertex, failed: Optional[Iterable[EdgeId]] = None
    ) -> Optional[int]:
        """Hop count (BFS distance) to ``v`` avoiding the failed edges."""
        d = self.dist(v, failed)
        return None if d is None else d >> self._shift

    def dist_many(
        self,
        targets: Sequence[Vertex],
        failed: Optional[Iterable[EdgeId]] = None,
    ) -> List[Optional[int]]:
        """Batched :meth:`dist`: one classification, many targets."""
        for v in targets:
            self._check_vertex(v)
        kind, payload = self._classify(failed)
        dists = [self._dist_via(kind, payload, v) for v in targets]
        self._count(kind, payload, targets)
        return dists

    def parent_of(
        self, v: Vertex, failed: Optional[Iterable[EdgeId]] = None
    ) -> Tuple[Vertex, EdgeId]:
        """``(parent, parent_eid)`` of ``v`` on its unique surviving
        shortest path (``(-1, -1)`` for the source or unreachable)."""
        self._check_vertex(v)
        kind, payload = self._classify(failed)
        parent = self._parent_via(kind, payload, v)
        self._count(kind, payload, (v,))
        return parent

    def path(
        self, v: Vertex, failed: Optional[Iterable[EdgeId]] = None
    ) -> List[Vertex]:
        """Vertices of the unique shortest path source -> ``v`` avoiding
        the failed edges; :class:`~repro.errors.GraphError` when none."""
        return self.route(v, failed)[0]

    def path_edges(
        self, v: Vertex, failed: Optional[Iterable[EdgeId]] = None
    ) -> List[EdgeId]:
        """Edge ids of the unique shortest path source -> ``v``."""
        return self.route(v, failed)[1]

    def route(
        self, v: Vertex, failed: Optional[Iterable[EdgeId]] = None
    ) -> Tuple[List[Vertex], List[EdgeId]]:
        """``(vertices, edge ids)`` of the unique shortest path source ->
        ``v`` avoiding the failed edges, from one walk counted as one
        query; :class:`~repro.errors.GraphError` when none."""
        self._check_vertex(v)
        kind, payload = self._classify(failed)
        d = self._dist_via(kind, payload, v)
        self._count(kind, payload, (v,))
        if d is None:
            raise GraphError(
                f"vertex {v} unreachable from {self._source} under the "
                "failure set"
            )
        vertices = [v]
        edges: List[EdgeId] = []
        cur = v
        while cur != self._source:
            parent, parent_eid = self._parent_via(kind, payload, cur)
            if parent < 0:  # pragma: no cover - guarded by the dist check
                raise GraphError(f"broken parent chain at vertex {cur}")
            edges.append(parent_eid)
            vertices.append(parent)
            cur = parent
        vertices.reverse()
        edges.reverse()
        return vertices, edges

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range [0, {self._n})")

    def _check_eid(self, eid: EdgeId) -> None:
        if not 0 <= eid < self._m:
            raise GraphError(f"edge id {eid} out of range [0, {self._m})")

    def _failed_set(
        self, failed: Optional[Iterable[EdgeId]]
    ) -> FrozenSet[EdgeId]:
        merged: Set[EdgeId] = set(self._marked)
        if failed is not None:
            for eid in failed:
                self._check_eid(eid)
                merged.add(int(eid))
        return frozenset(merged)

    def _classify(self, failed: Optional[Iterable[EdgeId]]):
        """Map a failure set to its answer class.

        Returns ``("base", None)``, ``("row", row_index)``, or
        ``("fallback", _FailedSubtrees)``.  A cached row is only valid
        when its tree edge is the *sole* failure: with extra failures the
        replacement path might itself use one of them.  The fallback
        traversal is left unresolved here: the first target inside a
        failed subtree resolves it, so a query touches the LRU at most
        once however many targets or hops it reads, and not at all when
        every target lies outside.
        """
        fset = self._failed_set(failed)
        if len(fset) == 1:
            row = self._row_by_eid.get(next(iter(fset)))
            if row is not None:
                return ("row", row)
        children = [self._child_of[e] for e in fset if e in self._child_of]
        if not children:
            return ("base", None)
        intervals = [(int(self._tin[c]), int(self._tout[c])) for c in children]
        return ("fallback", _FailedSubtrees(fset, intervals))

    def _count(self, kind: str, payload, targets: Sequence[Vertex]) -> None:
        stats = self.stats
        k = len(targets)
        stats.queries += k
        if kind == "base":
            stats.base_answers += k
        elif kind == "row":
            stats.row_answers += k
        else:
            inside = sum(1 for v in targets if self._inside(payload, v))
            stats.fallback_answers += inside
            stats.base_answers += k - inside

    def _inside(self, subtrees: _FailedSubtrees, v: Vertex) -> bool:
        t = self._tin[v]  # -1 for a vertex the base tree never reached
        return any(lo <= t < hi for lo, hi in subtrees.intervals)

    def _in_row(self, row: int, v: Vertex) -> bool:
        child = self._repl_child[row]
        return self._tin[child] <= self._tin[v] < self._tout[child]

    def _row_pos(self, row: int, v: Vertex) -> int:
        return int(
            self._repl_offsets[row]
            + self._tin[v]
            - self._tin[self._repl_child[row]]
        )

    # ------------------------------------------------------------------
    # answer kernels
    # ------------------------------------------------------------------
    def _base_dist(self, v: Vertex) -> Optional[int]:
        h = self._hop[v]
        if h < 0 and v != self._source:
            return None
        return (int(h) << self._shift) + int(self._pert[v])

    def _dist_via(self, kind: str, payload, v: Vertex) -> Optional[int]:
        if kind == "base":
            return self._base_dist(v)
        if kind == "row":
            if not self._in_row(payload, v):
                return self._base_dist(v)
            pos = self._row_pos(payload, v)
            h = self._repl_hop[pos]
            if h < 0:
                return None
            return (int(h) << self._shift) + int(self._repl_pert[pos])
        if not self._inside(payload, v):
            return self._base_dist(v)
        return self._fallback_for(payload).dist[v]

    def _parent_via(
        self, kind: str, payload, v: Vertex
    ) -> Tuple[Vertex, EdgeId]:
        if kind == "row" and self._in_row(payload, v):
            pos = self._row_pos(payload, v)
            if self._repl_hop[pos] < 0:
                return (-1, -1)
            return (int(self._repl_parent[pos]), int(self._repl_parent_eid[pos]))
        if kind in ("base", "row") or not self._inside(payload, v):
            return (int(self._parent[v]), int(self._parent_eid[v]))
        sp = self._fallback_for(payload)
        return (sp.parent[v], sp.parent_eid[v])

    # ------------------------------------------------------------------
    # fallback traversal (targets inside a failed subtree)
    # ------------------------------------------------------------------
    def _fallback_for(self, subtrees: _FailedSubtrees):
        if subtrees.result is None:
            subtrees.result = self._fallback_result(subtrees.fset)
        return subtrees.result

    def _fallback_result(self, fset: FrozenSet[EdgeId]):
        cached = self._fallback.get(fset)
        if cached is not None:
            self._fallback.move_to_end(fset)
            self.stats.fallback_hits += 1
            return cached
        from repro.engine.registry import get_engine

        engine = get_engine(self._engine_name)
        sp = engine.shortest_paths(
            self.structure.graph,
            self.structure.weights,
            self._source,
            banned_edges=set(fset),
        )
        self._fallback[fset] = sp
        while len(self._fallback) > _FALLBACK_CACHE_SIZE:
            self._fallback.popitem(last=False)
        self.stats.fallback_traversals += 1
        return sp
