"""Process-sharded sweeps: the ROADMAP's cross-process engine.

The all-single-edge-failures sweep - unweighted ``failure_sweep`` and
its weighted analogue ``weighted_failure_sweep`` alike - is
embarrassingly parallel over the requested edge ids, so
:class:`ShardedEngine` wraps any single-process engine and fans both
sweeps out over worker processes; every other primitive (including the
batched detour traversals, whose per-level amortization lives inside one
process) delegates to the wrapped engine unchanged.  The sweeps stay
**bit-identical** to the base engine by construction: shards are
contiguous slices of the request, each shard is computed by the base
engine itself, and items are yielded back in request order.

Transport
---------
Shard inputs travel one of two ways:

* **shared-memory plane** (default when numpy and
  ``multiprocessing.shared_memory`` are available, see
  :mod:`repro.engine.shm`): the graph's CSR view - plus the weight
  perturbations and tree arrays for the weighted sweep - is published
  once per graph/tree into a shared segment and the sweep's edge-id
  request into a second, per-sweep segment; the unweighted sweep adds a
  third per-sweep segment carrying the parent's precomputed *base
  state* (base distances/parents plus the Euler arrays), so workers
  rebuild their sweep handle in O(1) instead of re-running the base
  traversal.  Each shard then submits only ``(plane handle, request
  handle, base-state handle, lo, hi)``, O(1) bytes in graph size.
  Workers attach zero-copy and memoize all per-sweep state - the
  rebuilt unweighted handle and the weighted sweep's prepared setup
  alike - keyed on ``(plane, request)``, so a shard's fixed cost is
  just its slice of failures.
* **pickle** (fallback): the historical path - every shard re-pickles
  the graph (plus weights and tree for the weighted sweep).  Used when
  shared memory or numpy is unavailable, when ``REPRO_SHM=0``, when the
  weight assignment has no fixed-width export (the exact scheme's
  big-int perturbations), or when publishing fails (e.g. ``/dev/shm``
  exhausted).

Workers run on a **persistent pool** (created on first use, reused
across sweeps, marked with ``REPRO_IN_WORKER`` so nested parallel
primitives degrade to their serial form instead of oversubscribing).
Small sweeps - fewer than ``min_batch`` failures per prospective worker
- and sweeps already running inside a pool worker degrade to the base
engine in-process.  Both sweeps share ``min_batch`` defaults of 16
under the shared-memory transport and 64 under pickle (each shard
re-ships and re-builds the graph there, so it needs a large slice to
amortize).  The shm default used to apply only to the unweighted sweep;
with the weighted per-shard setup now memoized per ``(plane, request)``
in the worker (``shm._weighted_sweep_state``), neither sweep has an
O(n) per-shard term left and both ride the fine-shard economics.
``REPRO_SHARD_MIN_BATCH`` overrides every default.  The verification oracle
auto-upgrades to this engine for graphs above ``REPRO_SHARD_THRESHOLD``
edges (see :mod:`repro.core.verify`).
"""

from __future__ import annotations

import atexit
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.engine.base import ReplacementSweepItem, SweepHandle, TraversalEngine
from repro.errors import EngineError
from repro.graphs.graph import Graph

__all__ = [
    "ShardedEngine",
    "SHARD_MIN_BATCH_ENV_VAR",
    "shutdown_pools",
]

#: Overrides the minimum per-worker batch size (both transports).
SHARD_MIN_BATCH_ENV_VAR = "REPRO_SHARD_MIN_BATCH"

#: Pickle transport: each shard re-pickles and re-builds the graph, so
#: it needs a large slice to amortize.
_DEFAULT_MIN_BATCH = 64

#: Shared-memory transport: the payload is O(1), the unweighted base
#: state arrives prebuilt through the base-state segment, and the
#: weighted setup is memoized per (plane, request) - no per-shard fixed
#: cost on either sweep, so much finer shards pay off (re-derived in
#: ``benchmarks/bench_sharded.py``).
_DEFAULT_MIN_BATCH_SHM = 16


# ----------------------------------------------------------------------
# pickle-transport worker bodies (the fallback path)
# ----------------------------------------------------------------------
def _sweep_shard(
    graph: Graph,
    source: Vertex,
    eids: List[EdgeId],
    allowed_edges: Optional[Set[EdgeId]],
    engine_name: str,
) -> List[Sequence[int]]:
    """Worker body: run one contiguous slice of the sweep on the base engine."""
    from repro.engine.registry import get_engine

    engine = get_engine(engine_name)
    return list(
        engine.failure_sweep(graph, source, eids, allowed_edges=allowed_edges)
    )


def _weighted_sweep_shard(
    graph: Graph,
    weights,
    tree,
    eids: List[EdgeId],
    engine_name: str,
) -> List[ReplacementSweepItem]:
    """Worker body: one contiguous slice of the weighted failure sweep."""
    from repro.engine.registry import get_engine

    engine = get_engine(engine_name)
    return list(engine.weighted_failure_sweep(graph, weights, tree, eids=eids))


# ----------------------------------------------------------------------
# the persistent worker pool
# ----------------------------------------------------------------------
#: start-method key -> (pool, size).  One pool per start method, created
#: on first use, grown by recreation when a sweep asks for more workers,
#: reused across sweeps so the shm transport's per-worker attachments
#: (and the spawn method's interpreter startup) amortize.
_POOLS: Dict[str, Tuple[object, int]] = {}


def _pool_key(start_method: Optional[str]) -> str:
    return start_method or "default"


def _get_pool(workers: int, start_method: Optional[str] = None):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.harness.parallel import default_worker_count, mark_worker

    key = _pool_key(start_method)
    entry = _POOLS.get(key)
    if entry is not None:
        pool, size = entry
        if size >= workers and not getattr(pool, "_broken", False):
            return pool
        del _POOLS[key]
        # Grow-by-recreation must not cancel futures: a concurrently
        # streaming sweep (verify zips two generators through this
        # pool) may still hold pending work on the old pool - let it
        # drain in the background while new submissions go to the
        # bigger pool.
        pool.shutdown(wait=False, cancel_futures=getattr(pool, "_broken", False))
    size = max(workers, default_worker_count())
    ctx = multiprocessing.get_context(start_method) if start_method else None
    # Workers are initializer-marked: a sweep worker that itself reaches
    # a parallel primitive (verify's sharded auto-upgrade, a nested
    # harness fanout) must degrade to its serial form.
    pool = ProcessPoolExecutor(
        max_workers=size, initializer=mark_worker, mp_context=ctx
    )
    _POOLS[key] = (pool, size)
    return pool


def _discard_pool(
    start_method: Optional[str] = None, *, only_broken: bool = False
) -> None:
    """Drop a pool so the next sweep builds a fresh one.

    ``only_broken`` guards the failure path: by the time a sweep
    observes BrokenProcessPool, another engine may already have
    replaced the cached pool with a healthy one - don't kill that.
    """
    key = _pool_key(start_method)
    entry = _POOLS.get(key)
    if entry is None:
        return
    if only_broken and not getattr(entry[0], "_broken", False):
        return
    del _POOLS[key]
    entry[0].shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent sweep pool (no waiting)."""
    for key in list(_POOLS):
        _discard_pool(key if key != "default" else None)


atexit.register(shutdown_pools)


def _shard_bounds(
    num_items: int, workers: int, min_batch: int
) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` shard bounds over ``num_items`` items.

    Every shard holds at least ``min_batch`` items - the documented
    contract: a shard's fixed cost (its pickled inputs or its base
    traversal) must amortize over a worthwhile slice.  Beyond that, up
    to 4 shards per worker keep the pool busy through the tail.  A
    request smaller than ``min_batch`` yields a single (short) shard -
    ``_plan`` keeps those in-process, so that only arises when a caller
    drives this helper directly.
    """
    if num_items <= 0:
        return []
    num_shards = min(workers * 4, num_items // max(1, min_batch))
    num_shards = max(1, min(num_shards, num_items))
    bounds = [num_items * i // num_shards for i in range(num_shards + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(num_shards)
        if bounds[i] < bounds[i + 1]
    ]


class ShardedEngine(TraversalEngine):
    """Wrap a single-process engine, sharding ``failure_sweep`` across processes."""

    name = "sharded"
    parallel_sweeps = True

    def __init__(
        self,
        base: Optional[str] = None,
        *,
        max_workers: Optional[int] = None,
        min_batch: Optional[int] = None,
        transport: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if transport not in (None, "shm", "pickle"):
            raise EngineError(
                f"transport must be None, 'shm' or 'pickle', got {transport!r}"
            )
        self._base_name = base
        self._max_workers = max_workers
        self._min_batch = min_batch
        self._transport = transport
        self._start_method = start_method

    # -- delegation ----------------------------------------------------
    def base_engine(self) -> TraversalEngine:
        """The wrapped single-process engine (never sharded itself)."""
        from repro.engine.registry import available_engines, get_engine

        if self._base_name is not None:
            return get_engine(self._base_name)
        engine = get_engine()
        if engine.name != self.name:
            return engine
        # The process default *is* the sharded engine: fall back to the
        # fastest single-process backend.
        names = [n for n in available_engines() if n != self.name]
        return get_engine(names[-1] if names else "python")

    def distances(self, graph, source, **kwargs):
        return self.base_engine().distances(graph, source, **kwargs)

    def parents(self, graph, source, **kwargs):
        return self.base_engine().parents(graph, source, **kwargs)

    def distances_subset(self, graph, source, targets, **kwargs):
        return self.base_engine().distances_subset(graph, source, targets, **kwargs)

    def sweep(self, graph, source, *, allowed_edges=None) -> SweepHandle:
        return self.base_engine().sweep(graph, source, allowed_edges=allowed_edges)

    def shortest_paths(self, graph, weights, source, **kwargs):
        return self.base_engine().shortest_paths(graph, weights, source, **kwargs)

    def seeded_shortest_paths(self, graph, weights, seeds, **kwargs):
        return self.base_engine().seeded_shortest_paths(graph, weights, seeds, **kwargs)

    def batched_shortest_paths(
        self, graph, weights, sources, banned_vertices_per_source=None, **kwargs
    ):
        return self.base_engine().batched_shortest_paths(
            graph, weights, sources, banned_vertices_per_source, **kwargs
        )

    def batched_seeded_shortest_paths(self, graph, weights, batches, **kwargs):
        return self.base_engine().batched_seeded_shortest_paths(
            graph, weights, batches, **kwargs
        )

    def exists_live_partners(self, index, pair_ids, allowed, **kwargs):
        return self.base_engine().exists_live_partners(
            index, pair_ids, allowed, **kwargs
        )

    @property
    def weighted_backend(self) -> str:
        return f"delegates to {self.base_engine().name!r}"

    @property
    def replacement_backend(self) -> str:
        return f"process-sharded weighted sweep over {self.base_engine().name!r}"

    @property
    def detour_backend(self) -> str:
        return f"delegates to {self.base_engine().name!r}"

    @property
    def interference_backend(self) -> str:
        return f"delegates to {self.base_engine().name!r}"

    @property
    def compiler(self) -> str:
        return self.base_engine().compiler

    @property
    def transport(self) -> str:
        """How shard inputs reach the workers (``repro engines`` prints it)."""
        from repro.engine import shm

        enabled = shm.transport_enabled()
        if self._transport == "pickle":
            return "pickle (forced)"
        if self._transport == "shm":
            # Forced shm never falls back - without the transport,
            # sweeps raise instead of silently pickling.
            return (
                "shared-memory plane (forced)"
                if enabled
                else "shared-memory plane (forced, unavailable: sweeps raise)"
            )
        if enabled:
            return "shared-memory plane (pickle fallback)"
        return "pickle (shared memory unavailable)"

    @property
    def threads(self) -> str:
        """Resolved worker budget (``repro engines`` prints it)."""
        from repro.harness.parallel import (
            MAX_WORKERS_ENV_VAR,
            default_worker_count,
        )

        workers = (
            self._max_workers
            if self._max_workers is not None
            else default_worker_count()
        )
        return f"{workers} worker processes x 1 thread (${MAX_WORKERS_ENV_VAR})"

    @property
    def plane_segments(self) -> str:
        """Which shm segments this engine's sweeps publish."""
        from repro.engine import shm

        if self._transport == "pickle" or not shm.transport_enabled():
            return "none (shard inputs pickled per shard)"
        return (
            "graph/tree plane (per object) + request + base-state (per sweep)"
        )

    def halved(self) -> "ShardedEngine":
        """A copy capped at half this engine's worker budget.

        For callers that consume *two* sweeps in lockstep (the
        verification oracle runs a graph-side and a structure-side sweep
        concurrently): giving each side half the budget keeps the total
        in-flight shard count at the machine's worker budget instead of
        twice it (both sides share the one persistent pool).
        """
        from repro.harness.parallel import default_worker_count

        workers = (
            self._max_workers
            if self._max_workers is not None
            else default_worker_count()
        )
        return ShardedEngine(
            base=self._base_name,
            max_workers=max(1, workers // 2),
            min_batch=self._min_batch,
            transport=self._transport,
            start_method=self._start_method,
        )

    # -- the sharded primitive -----------------------------------------
    def _shm_wanted(self) -> bool:
        """Whether this engine may use the shared-memory transport."""
        if self._transport == "pickle":
            return False
        from repro.engine import shm

        enabled = shm.transport_enabled()
        if self._transport == "shm" and not enabled:
            raise EngineError(
                "shared-memory transport forced but unavailable "
                f"(numpy/shared_memory missing or ${shm.SHM_ENV_VAR}=0)"
            )
        return enabled

    def _effective_min_batch(self, *, shm: bool) -> int:
        if self._min_batch is not None:
            return self._min_batch
        from repro.util.validation import env_int

        return env_int(
            SHARD_MIN_BATCH_ENV_VAR,
            _DEFAULT_MIN_BATCH_SHM if shm else _DEFAULT_MIN_BATCH,
        )

    def _plan(self, num_eids: int, min_batch: Optional[int] = None) -> int:
        """Number of worker processes to use (1 = stay in-process)."""
        from repro.harness.parallel import default_worker_count, in_worker_process

        if in_worker_process():
            return 1  # never nest pools under the harness fanout
        if min_batch is None:
            min_batch = self._effective_min_batch(
                shm=self._transport != "pickle" and self._shm_wanted()
            )
        workers = (
            self._max_workers
            if self._max_workers is not None
            else default_worker_count()
        )
        return max(1, min(workers, num_eids // max(1, min_batch)))

    def failure_sweep(
        self,
        graph: Graph,
        source: Vertex,
        eids: Sequence[EdgeId],
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Iterator[Sequence[int]]:
        """Hop-distance vectors per failed edge, sharded over processes.

        Contiguous slices of ``eids`` go to workers running the base
        engine; vectors come back in request order, so output is
        bit-identical to the base engine's own sweep.
        """
        base = self.base_engine()
        eid_list = list(eids)
        use_shm = self._shm_wanted()
        min_batch = self._effective_min_batch(shm=use_shm)
        workers = self._plan(len(eid_list), min_batch)
        if workers <= 1:
            yield from base.failure_sweep(
                graph, source, eid_list, allowed_edges=allowed_edges
            )
            return
        def publish():
            from repro.engine import shm

            plane = shm.graph_plane(graph)
            if plane is None:
                return None
            request = shm.publish_request(eid_list, allowed_edges, source)
            if request is None:
                return None
            # Ship the base traversal too: the parent computes it once
            # and every worker rebuilds its sweep handle in O(1) from
            # the mapped arrays instead of re-running an O(n + m) BFS.
            # None (reference base engine, exhausted /dev/shm) degrades
            # to the historical per-worker memoized traversal.
            base_state = shm.publish_base_state(
                base.sweep(graph, source, allowed_edges=allowed_edges)
            )
            return shm, plane, request, base_state

        yield from self._transport_stream(
            len(eid_list), workers, min_batch, use_shm, base.name,
            publish,
            shm_worker_name="_shm_sweep_shard",
            pickle_submit=lambda pool, lo, hi: pool.submit(
                _sweep_shard,
                graph, source, eid_list[lo:hi], allowed_edges, base.name,
            ),
            in_process=lambda: base.failure_sweep(
                graph, source, eid_list, allowed_edges=allowed_edges
            ),
        )

    def weighted_failure_sweep(
        self,
        graph: Graph,
        weights,
        tree,
        eids: Optional[Sequence[EdgeId]] = None,
    ) -> Iterator[ReplacementSweepItem]:
        """Replacement data per failed tree edge, sharded over processes.

        Contiguous slices of the tree edges go to workers running the
        base engine's ``weighted_failure_sweep``; items come back in
        request order, so output is bit-identical to the base engine's
        own sweep.
        """
        base = self.base_engine()
        edge_list = list(eids) if eids is not None else tree.tree_edges()
        # The plane needs the fixed-width perturbation export; the exact
        # scheme's big ints ride the pickle transport instead - unless
        # shm is forced, which never silently falls back.  The export is
        # only computed when shm is actually in play (_shm_wanted first):
        # a pickle-transport parent never needs the O(m) array.
        use_shm = self._shm_wanted()
        if use_shm:
            use_shm = weights.pert_array() is not None
            if self._transport == "shm" and not use_shm:
                raise EngineError(
                    "shared-memory transport forced but the weight "
                    "assignment has no fixed-width export "
                    f"(scheme {weights.scheme!r})"
                )
        # Under shm the weighted sweep now shares the unweighted path's
        # fine-shard economics: the per-sweep setup (plan gating, dist
        # decomposition, Euler conversions, the edge->child map) is
        # memoized per (plane, request) in the worker - zero-copy off
        # the plane's mapped arrays - so a shard's only cost is its own
        # slice.  Historically this line forced the pickle-sized batch
        # on both transports because every shard rebuilt that O(n)
        # setup from the façade's Python lists.
        min_batch = self._effective_min_batch(shm=use_shm)
        workers = self._plan(len(edge_list), min_batch)
        if workers <= 1:
            yield from base.weighted_failure_sweep(
                graph, weights, tree, eids=edge_list
            )
            return
        def publish():
            from repro.engine import shm

            plane = shm.tree_plane(graph, weights, tree)
            if plane is None:
                return None
            request = shm.publish_request(edge_list)
            if request is None:
                return None
            # No separate base-state segment: the weighted base state
            # (hop/pert decomposition, Euler arrays) already rides the
            # tree plane; workers memoize their prepared setup off it.
            return shm, plane, request, None

        yield from self._transport_stream(
            len(edge_list), workers, min_batch, use_shm, base.name,
            publish,
            shm_worker_name="_shm_weighted_shard",
            pickle_submit=lambda pool, lo, hi: pool.submit(
                _weighted_sweep_shard,
                graph, weights, tree, edge_list[lo:hi], base.name,
            ),
            in_process=lambda: base.weighted_failure_sweep(
                graph, weights, tree, eids=edge_list
            ),
        )

    def _transport_stream(
        self,
        num_items: int,
        workers: int,
        min_batch: int,
        use_shm: bool,
        base_name: str,
        publish: Callable,
        *,
        shm_worker_name: str,
        pickle_submit: Callable,
        in_process: Callable,
    ) -> Iterator:
        """Run one sweep through whichever transport is viable.

        ``publish`` returns ``(shm module, plane, request, base_state)``
        - ``base_state`` a :class:`~repro.engine.shm.SweepBaseState` or
        None - or None altogether; on None (transport off or publish
        failed, e.g. ``/dev/shm`` exhausted) the sweep re-plans under
        pickle economics - its per-shard fixed cost is O(m), so
        shm-sized shards would violate the ``min_batch`` contract -
        degrading to ``in_process`` when the re-plan no longer justifies
        a pool.  The request and base-state segments are unlinked when
        the stream completes or is abandoned.  On abandonment a
        just-started shard may lose the attach race and fail with
        FileNotFoundError - harmless by construction: its future was
        already discarded with the generator (normal completion has no
        such race; every future was drained first).
        """
        if use_shm:
            published = publish()
            if published is not None:
                shm, plane, request, base_state = published
                base_handle = None if base_state is None else base_state.handle
                worker_fn = getattr(shm, shm_worker_name)
                try:
                    yield from self._stream_shards(
                        _shard_bounds(num_items, workers, min_batch),
                        workers,
                        lambda pool, lo, hi: pool.submit(
                            worker_fn,
                            plane.handle, request.handle, base_handle,
                            lo, hi, base_name,
                        ),
                    )
                finally:
                    request.unlink()
                    if base_state is not None:
                        base_state.unlink()
                return
            if self._transport == "shm":  # forced shm never falls back
                raise EngineError(
                    "shared-memory transport forced but publishing the "
                    "plane/request failed (shared memory exhausted?)"
                )
            min_batch = self._effective_min_batch(shm=False)
            workers = self._plan(num_items, min_batch)
            if workers <= 1:
                yield from in_process()
                return
        yield from self._stream_shards(
            _shard_bounds(num_items, workers, min_batch),
            workers,
            pickle_submit,
        )

    def _stream_shards(
        self,
        bounds: List[Tuple[int, int]],
        workers: int,
        submit_range: Callable,
    ) -> Iterator:
        """Submit ``(lo, hi)`` shards to the persistent pool, stream results.

        Results come back in request order.  The in-flight window is
        capped at ``workers``: the pool is shared (and may be larger
        than this engine's budget), so the window is what enforces an
        explicit ``max_workers`` cap - at most ``workers`` of this
        sweep's shards execute concurrently, and parent memory stays
        O(window * shard results) no matter how much faster the pool
        produces than the caller consumes.  The pool is re-resolved per
        refill because another engine may have grown (recreated) it
        mid-stream; submitted futures on the retired pool still drain.
        An abandoned generator (verify early-exits on
        ``max_violations``) cancels its pending shards in the
        ``finally`` and leaves running ones to finish in the background
        - the pool itself persists for the next sweep.
        """
        from concurrent.futures.process import BrokenProcessPool

        window = workers
        pending: List = []
        next_shard = 0
        try:
            while next_shard < len(bounds) or pending:
                while next_shard < len(bounds) and len(pending) < window:
                    lo, hi = bounds[next_shard]
                    pool = _get_pool(workers, self._start_method)
                    pending.append(submit_range(pool, lo, hi))
                    next_shard += 1
                future = pending.pop(0)  # request order
                for item in future.result():
                    yield item
        except BrokenProcessPool:
            # A dead worker poisons the whole pool; drop it so the next
            # sweep starts clean, and let the caller see the failure.
            _discard_pool(self._start_method, only_broken=True)
            raise
        finally:
            for future in pending:
                future.cancel()
