"""Array kernels for the weighted tie-broken traversal (random scheme).

The composite weights of :mod:`repro.spt.weights` encode the
lexicographic pair ``(hops, pert_sum)`` in one big integer
``(hops << shift) + pert_sum``.  The pair itself is array-representable:
``hops`` is a small integer, and under the random scheme any simple
path's perturbation sum stays below ``2**19 * 2**44 < 2**63`` - so the
kernel keeps the two components in *separate* ``int64`` arrays and never
materializes the overflowing composite until the final result assembly.

Because every edge raises the hop component by exactly one, the heap of
the reference Dijkstra settles vertices level by level: all labels of
hop level ``h`` are final before the first level-``h`` vertex settles.
The kernel therefore runs a **level-synchronous two-array relaxation**:
settle a whole hop level at once (ordered by ``(pert, vertex)``, the
reference heap's pop order), stream its out-edges in that order, and
reduce the candidate perturbations per target.

The reference Dijkstra (:mod:`repro.spt.dijkstra`) is the only
implementation of tie and seed-error semantics: it raises
:class:`~repro.errors.TieBreakError` at the first order-dependent tie
(a candidate equal to the target's running minimum through a different
edge) and validates seeds in arrival order.  The kernel only *detects*
that such an event may occur - a duplicated ``(target, value)``
candidate, a duplicated ``(vertex, hop, pert)`` seed label, or a seed
outside ``[0, n)`` or the allowed set - and then returns ``None``; the
engine hands the call back to the reference, which raises (or not)
exactly as it always does.  Every other level takes the fully
vectorized argmin path.

Entry conditions are checked by :func:`weighted_plan`: the kernel runs
only when the per-edge perturbations export to ``int64``
(:meth:`~repro.spt.weights.WeightAssignment.pert_array`) and no path or
seed can overflow either the perturbation field (``2**shift``, which
would carry into the hop bits of the reference's big-int sum) or
``int64``.  Everything else - the exact scheme in particular - falls
back to the big-int reference Dijkstra.

Stacked (batched) traversals
----------------------------
Many *independent* weighted traversals of the same graph (the Pcons
detour Dijkstras, the per-tree-edge replacement recomputes of the
weighted failure sweep) can share every per-level numpy invocation:
batch ``b`` runs in its own *layer* of a virtual ``B * n`` vertex space
(vertex ``v`` of batch ``b`` is the global id ``b * n + v``), and a
:func:`stacked_expander` maps frontier expansion back onto the one
shared CSR view.  Layers are vertex-disjoint, relaxations never cross
them, and within a layer the global settle order ``(pert, b * n + v)``
coincides with the single-run order ``(pert, v)`` - so each layer's
result is bit-identical to running that batch alone.  Seeds arrive as
:class:`SeedArrays` and go through one vectorized intake that validates
every seed before it writes anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.engine.csr import CSRAdjacency
from repro.engine.kernels import expand_frontier
from repro.spt.result import ShortestPathResult
from repro.spt.weights import RANDOM, WeightAssignment

__all__ = [
    "weighted_plan",
    "weighted_levels",
    "assemble_result",
    "decompose_seeds",
    "SeedArrays",
    "stacked_expander",
    "unstack_layer",
]

_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class SeedArrays:
    """Column-wise seeds for :func:`weighted_levels` (int64 arrays).

    ``vertex`` holds *global* ids (already layer-offset for stacked
    runs; ``-1`` marks a vertex the intake must refuse); ``parent`` may
    hold local ids - callers map results back with
    :func:`unstack_layer`, which reduces any non-negative parent modulo
    the layer width.
    """

    hop: np.ndarray
    pert: np.ndarray
    vertex: np.ndarray
    parent: np.ndarray
    parent_eid: np.ndarray

    @classmethod
    def sources(cls, vertices: np.ndarray) -> "SeedArrays":
        """Distance-zero root seeds, one per (global) vertex id."""
        zeros = np.zeros(vertices.size, dtype=np.int64)
        minus = np.full(vertices.size, -1, dtype=np.int64)
        return cls(zeros, zeros, vertices, minus, minus)


def stacked_expander(
    csr: CSRAdjacency,
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Frontier expansion over ``B`` stacked layers of one CSR view.

    Global id ``b * n + v`` expands to ``v``'s neighbors shifted into
    layer ``b``; edge ids stay the base graph's (perturbation lookups
    are shared).
    """
    n = csr.num_vertices
    indptr, indices, edge_ids = csr.indptr, csr.indices, csr.edge_ids

    def expand(frontier: np.ndarray):
        local = frontier % n
        starts = indptr[local]
        counts = indptr[local + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        cum = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (cum - counts), counts
        )
        srcs = np.repeat(frontier, counts)
        nbrs = indices[flat] + np.repeat(frontier - local, counts)
        return srcs, nbrs, edge_ids[flat]

    return expand


def unstack_layer(
    n: int,
    batch: int,
    settled: np.ndarray,
    hop: np.ndarray,
    pert: np.ndarray,
    parent: np.ndarray,
    parent_eid: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slice one layer out of a stacked result, localizing parent ids.

    Relaxation writes *global* parents; seed parents may already be
    local.  Both reduce to the local id modulo ``n`` (layer offsets are
    multiples of ``n``); ``-1`` stays ``-1``.
    """
    sl = slice(batch * n, (batch + 1) * n)
    par = parent[sl]
    par = np.where(par >= 0, par % n, par)
    return settled[sl], hop[sl], pert[sl], par, parent_eid[sl]


def weighted_plan(
    graph, weights: WeightAssignment, *, max_seed_pert: int = 0
) -> Optional[np.ndarray]:
    """The per-edge ``int64`` perturbation array, or ``None`` to fall back.

    ``None`` means the array kernel cannot *provably* reproduce the
    reference: non-random scheme, perturbations that do not fit
    ``int64``, or a graph large enough that a path's perturbation sum
    (plus the largest seed perturbation) could overflow the
    perturbation field ``2**shift`` or ``int64``.
    """
    if weights.scheme != RANDOM:
        return None
    export = weights.pert_array()
    if export is None:
        return None
    perts, max_pert = export
    n = graph.num_vertices
    bound = max_seed_pert + max(0, n - 1) * max_pert
    if bound >= min(weights.big, _INT64_LIMIT):
        return None
    return perts


def decompose_seeds(
    seeds: Sequence[Tuple[int, int, int, int]], shift: int, n: int
) -> SeedArrays:
    """Split reference seeds ``(dist, v, parent, parent_eid)`` into
    :class:`SeedArrays` columns.

    A vertex outside ``[0, n)`` becomes ``-1``, which the intake
    refuses, so the reference raises with the original id.  Gate the
    seeds with :func:`weighted_plan` first: their big-int perturbations
    (the exact scheme's in particular) may not fit ``int64``.
    """
    mask = (1 << shift) - 1
    return SeedArrays(
        hop=np.asarray([d >> shift for d, _, _, _ in seeds], dtype=np.int64),
        pert=np.asarray([d & mask for d, _, _, _ in seeds], dtype=np.int64),
        vertex=np.asarray(
            [v if 0 <= v < n else -1 for _, v, _, _ in seeds], dtype=np.int64
        ),
        parent=np.asarray([p for _, _, p, _ in seeds], dtype=np.int64),
        parent_eid=np.asarray([e for _, _, _, e in seeds], dtype=np.int64),
    )


def weighted_levels(
    csr: CSRAdjacency,
    pert_edge: np.ndarray,
    seeds: SeedArrays,
    *,
    edge_ok: Optional[np.ndarray] = None,
    vertex_ok: Optional[np.ndarray] = None,
    allowed_ok: Optional[np.ndarray] = None,
    num_vertices: Optional[int] = None,
    expand: Optional[Callable] = None,
    state: Optional[Tuple[np.ndarray, ...]] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Level-synchronous weighted traversal over the CSR view.

    Returns ``(settled, hop, pert, parent, parent_eid)``; ``settled``
    marks reached vertices, whose composite distance is the pair
    ``(hop, pert)``.  ``allowed_ok`` (when given) restricts settling to
    a vertex subset, like the reference's ``allowed_vertices``.
    Returns ``None`` to hand the call back to the reference (see the
    module docstring); the state may already be written by then.

    Stacked runs pass ``num_vertices = B * n`` with a
    :func:`stacked_expander`; all masks are then sized ``B * n``.
    ``state`` (optional) supplies the five state arrays preallocated by
    the caller - ``settled`` all-False and ``hop`` all ``-1``, the other
    three arbitrary (every read of them is gated on a write made during
    this run).  Restricted sweeps reuse one buffer across chunks this
    way, resetting only touched positions, instead of paying an
    O(B * n) allocation per chunk.
    """
    n = csr.num_vertices if num_vertices is None else num_vertices
    if expand is None:
        def expand(frontier: np.ndarray):
            return expand_frontier(csr, frontier)
    if state is not None:
        settled, hop_t, pert_t, parent, parent_eid = state
    else:
        hop_t = np.full(n, -1, dtype=np.int64)
        pert_t = np.zeros(n, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        parent_eid = np.full(n, -1, dtype=np.int64)
        settled = np.zeros(n, dtype=bool)

    # Pending labels bucketed by hop level; stale entries (labels later
    # improved to a lower level, or already settled) are filtered out
    # when their bucket is drained, so duplicates are harmless.
    buckets: dict = {}
    seed_vertices = _intake_seeds(
        seeds, n, allowed_ok, hop_t, pert_t, parent, parent_eid, buckets
    )
    if seed_vertices is None:
        return None

    while buckets:
        h = min(buckets)
        entries = buckets.pop(h)
        if len(entries) == 1:
            # Every pusher appends unique, ascending ids (level winners
            # are group targets of a sorted stream, seed buckets the
            # first entries of the sorted seed groups) - the common
            # single-entry bucket skips the hash-based dedup entirely.
            frontier = entries[0]
        else:
            frontier = np.unique(np.concatenate(entries))
        frontier = frontier[~settled[frontier] & (hop_t[frontier] == h)]
        if frontier.size == 0:
            continue
        # Settle order = the reference heap's pop order: (pert, vertex).
        # The bucket is ascending by id; a stable sort by pert keeps id
        # order inside equal perturbations.  (Stacked layers: within a
        # layer, global-id order equals local-id order, so each layer
        # settles exactly as its single run would.)
        frontier = frontier[np.argsort(pert_t[frontier], kind="stable")]
        settled[frontier] = True

        srcs, nbrs, eids = expand(frontier)
        keep = ~settled[nbrs]
        if edge_ok is not None:
            keep &= edge_ok[eids]
        if vertex_ok is not None:
            keep &= vertex_ok[nbrs]
        if allowed_ok is not None:
            keep &= allowed_ok[nbrs]
        srcs, nbrs, eids = srcs[keep], nbrs[keep], eids[keep]
        if nbrs.size == 0:
            continue
        cand = pert_t[srcs] + pert_edge[eids]

        # Targets already holding a tentative hop-(h+1) label: the
        # reference compares every relaxation against it, so it joins
        # each target's stream as the leading pseudo-candidate.  Such
        # labels can only stem from seeds (this level's own updates are
        # not yet applied), so the machinery is skipped entirely once
        # every seed vertex has settled - in particular always for
        # single-source runs.
        if seed_vertices.size and not settled[seed_vertices].all():
            init_targets = np.unique(nbrs[hop_t[nbrs] == h + 1])
        else:
            init_targets = np.empty(0, dtype=np.int64)
        init_count = int(init_targets.size)
        if init_count:
            t_all = np.concatenate([init_targets, nbrs])
            c_all = np.concatenate([pert_t[init_targets], cand])
            s_all = np.concatenate([parent[init_targets], srcs])
            e_all = np.concatenate([parent_eid[init_targets], eids])
        else:
            t_all, c_all, s_all, e_all = nbrs, cand, srcs, eids

        # One sort by (target, candidate) decides everything: groups
        # are contiguous and each group's first element is its winner.
        # A duplicated (target, value) pair - the only way the
        # reference's order-dependent equality event can occur - is an
        # adjacent equality, and hands the call back.
        order = np.lexsort((c_all, t_all))
        t_s, c_s = t_all[order], c_all[order]
        change = np.empty(t_s.size, dtype=bool)
        change[0] = True
        np.not_equal(t_s[1:], t_s[:-1], out=change[1:])
        if (~change[1:] & (c_s[1:] == c_s[:-1])).any():
            return None
        starts = np.flatnonzero(change)
        grp_target = t_s[starts]
        win = order[starts]
        if init_count:
            upd = win >= init_count  # the pre-existing label lost
            grp_target, win = grp_target[upd], win[upd]
        hop_t[grp_target] = h + 1
        pert_t[grp_target] = c_all[win]
        parent[grp_target] = s_all[win]
        parent_eid[grp_target] = e_all[win]
        if grp_target.size:
            buckets.setdefault(h + 1, []).append(grp_target)

    return settled, hop_t, pert_t, parent, parent_eid


def _intake_seeds(
    sa: SeedArrays,
    n: int,
    allowed_ok: Optional[np.ndarray],
    hop_t: np.ndarray,
    pert_t: np.ndarray,
    parent: np.ndarray,
    parent_eid: np.ndarray,
    buckets: dict,
) -> Optional[np.ndarray]:
    """Vectorized seed intake; returns the seed vertices, or ``None``
    (before writing anything) on a seed outside ``[0, n)`` or the
    allowed set, or a duplicated ``(vertex, hop, pert)`` label.

    Without duplicates, each vertex's final label is its unique
    lexicographic ``(hop, pert)`` minimum, whatever the arrival order.
    """
    vs = sa.vertex
    if vs.size == 0:
        return vs
    if int(vs.min()) < 0 or int(vs.max()) >= n:
        return None
    if allowed_ok is not None and not allowed_ok[vs].all():
        return None
    order = np.lexsort((sa.pert, sa.hop, vs))
    v_s, h_s, p_s = vs[order], sa.hop[order], sa.pert[order]
    first = np.empty(v_s.size, dtype=bool)
    first[0] = True
    np.not_equal(v_s[1:], v_s[:-1], out=first[1:])
    if (~first[1:] & (h_s[1:] == h_s[:-1]) & (p_s[1:] == p_s[:-1])).any():
        return None
    wi = order[first]
    tg = vs[wi]
    hop_t[tg] = sa.hop[wi]
    pert_t[tg] = sa.pert[wi]
    parent[tg] = sa.parent[wi]
    parent_eid[tg] = sa.parent_eid[wi]

    seed_vertices = v_s[first]
    final_h = hop_t[seed_vertices]
    for h in np.unique(final_h).tolist():
        buckets.setdefault(h, []).append(seed_vertices[final_h == h])
    return seed_vertices


def assemble_result(
    source: int,
    shift: int,
    settled: np.ndarray,
    hop: np.ndarray,
    pert: np.ndarray,
    parent: np.ndarray,
    parent_eid: np.ndarray,
) -> ShortestPathResult:
    """A result over the kernel's ``(hop, pert)`` lists.

    The composite ``hop << shift`` overflows ``int64`` (shift is 63 for
    the random scheme), so the big-int distances are Python ints, built
    by the result on first read (see
    :meth:`~repro.spt.result.ShortestPathResult.from_levels`); they are
    bit-identical to the reference's weight sums because the plan
    guaranteed perturbation sums never carry into the hop bits.
    """
    return ShortestPathResult.from_levels(
        source,
        shift,
        np.where(settled, hop, -1).tolist(),
        pert.tolist(),
        parent.tolist(),
        parent_eid.tolist(),
    )
