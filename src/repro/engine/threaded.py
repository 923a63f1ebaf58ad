"""Thread-parallel sweeps over the csr kernels.

:class:`ThreadedEngine` (registry name ``csr-mt``) fans the two failure
sweeps - ``failure_sweep`` and ``weighted_failure_sweep`` - out over a
thread pool inside the calling process.  The csr engine's C kernels
hold the GIL released for *whole* kernel calls (its numpy fallback
kernels for each array pass), so windows genuinely overlap on
multi-core hosts, and because every thread shares the caller's address
space nothing is copied or pickled.  The fixed cost of a window is one
submit.

The engine wraps the csr engine (its kernels are what make threads pay;
any base can be forced for testing) and stays **bit-identical** to it:
windows are contiguous slices of the request, each window is computed
by the base engine's own primitives - the one shared
:class:`~repro.engine.kernels.FailureSweep` handle for the unweighted
sweep, the one shared
:class:`~repro.engine.csr_engine.PreparedWeightedSweep` setup for the
weighted one (both are safe to drive concurrently: all shared arrays
are read-only, every scratch buffer is per-call) - and results stream
back in request order.

Per-sweep setup is computed exactly once, and a window holds at least
``min_batch`` (8) failures; all windows share one Python interpreter,
so pure-Python portions (result assembly, the reference fallbacks)
serialize on the GIL.  The engine is never the implicit default: select
it with ``engine="csr-mt"`` or ``$REPRO_ENGINE``.  Thread count comes
from ``$REPRO_THREADS``, falling back to the worker default
(``$REPRO_MAX_WORKERS`` / cores - 1); sweeps inside a harness pool
worker degrade to the base engine in-process.
"""

from __future__ import annotations

import atexit
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

from repro._types import EdgeId, Vertex
from repro.engine.base import ReplacementSweepItem, SweepHandle, TraversalEngine
from repro.graphs.graph import Graph

__all__ = ["ThreadedEngine", "THREADS_ENV_VAR", "shutdown_thread_pool"]

#: Overrides the thread count (positive int); unset = the worker default.
THREADS_ENV_VAR = "REPRO_THREADS"

#: Minimum failures per window: a window's fixed cost is one executor
#: submit, so small windows already pay.
_DEFAULT_MIN_BATCH_MT = 8

#: The persistent thread pool: (pool, size), grown by recreation.
#: Threads are cheap, but verify streams two sweeps in lockstep through
#: this pool - a shared persistent pool keeps their combined footprint
#: at one budget.
_POOL: Optional[Tuple[object, int]] = None


def _get_thread_pool(threads: int):
    from concurrent.futures import ThreadPoolExecutor

    global _POOL
    if _POOL is not None:
        pool, size = _POOL
        if size >= threads:
            return pool
        pool.shutdown(wait=False)
        _POOL = None
    pool = ThreadPoolExecutor(
        max_workers=threads, thread_name_prefix="repro-sweep"
    )
    _POOL = (pool, threads)
    return pool


def shutdown_thread_pool() -> None:
    """Shut down the persistent sweep thread pool (no waiting)."""
    global _POOL
    if _POOL is not None:
        _POOL[0].shutdown(wait=False)
        _POOL = None


atexit.register(shutdown_thread_pool)


def _shard_bounds(
    num_items: int, workers: int, min_batch: int
) -> List[Tuple[int, int]]:
    """Contiguous ``(lo, hi)`` window bounds over ``num_items`` items.

    Every window holds at least ``min_batch`` items - the documented
    contract: a window's fixed cost must amortize over a worthwhile
    slice.  Beyond that, up to 4 windows per worker keep the pool busy
    through the tail.  A request smaller than ``min_batch`` yields a
    single (short) window - ``_plan`` keeps those inline, so that only
    arises when a caller drives this helper directly.
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


class ThreadedEngine(TraversalEngine):
    """Wrap the csr engine, windowing ``failure_sweep`` across threads."""

    name = "csr-mt"
    parallel_sweeps = True

    def __init__(
        self,
        base: Optional[str] = None,
        *,
        max_threads: Optional[int] = None,
        min_batch: Optional[int] = None,
    ) -> None:
        self._base_name = base
        self._max_threads = max_threads
        self._min_batch = min_batch

    # -- delegation ----------------------------------------------------
    def base_engine(self) -> TraversalEngine:
        """The wrapped single-process engine: csr unless forced (any base
        can be forced for testing)."""
        from repro.engine.registry import get_engine

        return get_engine(self._base_name or "csr")

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
        return f"thread-windowed weighted sweep over {self.base_engine().name!r}"

    @property
    def detour_backend(self) -> str:
        return f"delegates to {self.base_engine().name!r}"

    @property
    def interference_backend(self) -> str:
        return f"delegates to {self.base_engine().name!r}"

    @property
    def threads(self) -> str:
        """Resolved thread budget (``repro engines`` prints it)."""
        return f"{self._thread_budget()} threads (${THREADS_ENV_VAR})"

    @property
    def compiler(self) -> str:
        return self.base_engine().compiler

    # -- planning ------------------------------------------------------
    def _thread_budget(self) -> int:
        if self._max_threads is not None:
            return max(1, self._max_threads)
        from repro.harness.parallel import default_worker_count
        from repro.util.validation import env_int

        return max(1, env_int(THREADS_ENV_VAR, default_worker_count()))

    def _effective_min_batch(self) -> int:
        if self._min_batch is not None:
            return self._min_batch
        return _DEFAULT_MIN_BATCH_MT

    def _plan(self, num_eids: int, min_batch: Optional[int] = None) -> int:
        """Number of threads to use (1 = run on the base engine inline)."""
        from repro.harness.parallel import in_worker_process

        if in_worker_process():
            return 1  # harness pool workers already fill the machine
        if min_batch is None:
            min_batch = self._effective_min_batch()
        return max(1, min(self._thread_budget(), num_eids // max(1, min_batch)))

    def halved(self) -> "ThreadedEngine":
        """A copy capped at half this engine's thread budget (the
        verification oracle consumes two sweeps in lockstep; both sides
        share the one persistent pool, so half each keeps the in-flight
        window total at one budget)."""
        return ThreadedEngine(
            base=self._base_name,
            max_threads=max(1, self._thread_budget() // 2),
            min_batch=self._min_batch,
        )

    # -- the windowed primitives ---------------------------------------
    def failure_sweep(
        self,
        graph: Graph,
        source: Vertex,
        eids: Sequence[EdgeId],
        *,
        allowed_edges: Optional[Set[EdgeId]] = None,
    ) -> Iterator[Sequence[int]]:
        """Hop-distance vectors per failed edge, windowed over threads.

        One shared sweep handle (one base traversal); contiguous windows
        of ``eids`` run ``handle.failed`` concurrently - safe because
        ``failed`` only reads shared state and writes fresh arrays - and
        vectors stream back in request order, bit-identical to the base
        engine's own sweep.
        """
        base = self.base_engine()
        eid_list = list(eids)
        threads = self._plan(len(eid_list))
        if threads <= 1:
            yield from base.failure_sweep(
                graph, source, eid_list, allowed_edges=allowed_edges
            )
            return
        handle = base.sweep(graph, source, allowed_edges=allowed_edges)

        def window(lo: int, hi: int) -> List[Sequence[int]]:
            return [handle.failed(eid) for eid in eid_list[lo:hi]]

        yield from self._stream_windows(len(eid_list), threads, window)

    def weighted_failure_sweep(
        self,
        graph: Graph,
        weights,
        tree,
        eids: Optional[Sequence[EdgeId]] = None,
    ) -> Iterator[ReplacementSweepItem]:
        """Replacement data per failed tree edge, windowed over threads.

        The base engine's prepared sweep setup is built once and shared;
        windows run ``prepared.items`` slices concurrently (per-call
        scratch buffers, read-only shared arrays).  Requests the plan
        cannot represent (the exact scheme) run on the base engine
        inline - threading the GIL-bound reference loops would add
        nothing.  Items stream back in request order, bit-identical to
        the base engine's own sweep.
        """
        base = self.base_engine()
        edge_list = list(eids) if eids is not None else tree.tree_edges()
        threads = self._plan(len(edge_list))
        prepare = getattr(base, "prepared_weighted_sweep", None)
        prepared = (
            prepare(graph, weights, tree, edge_list)
            if threads > 1 and prepare is not None
            else None
        )
        if prepared is None:
            yield from base.weighted_failure_sweep(
                graph, weights, tree, eids=edge_list
            )
            return

        def window(lo: int, hi: int) -> List[ReplacementSweepItem]:
            return list(prepared.items(lo, hi))

        yield from self._stream_windows(len(edge_list), threads, window)

    def _stream_windows(
        self, num_items: int, threads: int, window: Callable
    ) -> Iterator:
        """Submit ``(lo, hi)`` windows to the thread pool, stream results.

        Results come back in request order; the in-flight window count
        is capped at ``threads`` (the pool is shared and may be larger),
        so parent memory stays O(window results) and an explicit
        ``max_threads`` cap is honored even on a wider pool.  An
        abandoned generator cancels its pending windows; running ones
        finish in the background on the persistent pool.
        """
        bounds = _shard_bounds(num_items, threads, self._effective_min_batch())
        pool = _get_thread_pool(threads)
        pending: List = []
        next_window = 0
        try:
            while next_window < len(bounds) or pending:
                while next_window < len(bounds) and len(pending) < threads:
                    lo, hi = bounds[next_window]
                    pending.append(pool.submit(window, lo, hi))
                    next_window += 1
                future = pending.pop(0)  # request order
                for item in future.result():
                    yield item
        finally:
            for future in pending:
                future.cancel()
