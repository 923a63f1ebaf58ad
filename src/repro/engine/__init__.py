"""Pluggable traversal engines: one dispatch point for every traversal.

This package is the substrate the scaling roadmap plugs into.  Every
hop-BFS and failure sweep in the library - :mod:`repro.spt.bfs`, the
verification oracle, the failure simulator, the experiment harness -
routes through a :class:`~repro.engine.base.TraversalEngine` resolved by
the registry, instead of hand-rolled per-call-site loops.

Engine contract (details in :mod:`repro.engine.base`)
-----------------------------------------------------
* ``distances`` / ``parents`` / ``distances_subset``: masked hop BFS,
  bit-identical across engines (tie-breaking comes from the graph's
  adjacency-list order, which every backend must preserve).
* ``failure_sweep``: the batched all-single-edge-failures primitive -
  hop distances of ``G \\ {e}`` (or ``H \\ {e}`` under an
  ``allowed_edges`` mask) for a lazily-consumed stream of edge ids.
  Backends amortize: the csr engine computes one base BFS tree and
  recomputes only the subtree hanging under each failed tree edge.
* ``shortest_paths`` / ``seeded_shortest_paths``: the weighted
  tie-broken Dijkstra.  The csr engine runs the random weight scheme on
  the array kernels of :mod:`repro.engine.weighted_kernels` (the
  composite weight splits into an ``int64`` ``(hops, pert_sum)`` pair);
  the exact scheme's big-int perturbations, and any call whose kernel
  meets a possible tie or an invalid seed, transparently fall back to
  the shared reference implementation.  Given ``targets``, an unseeded
  run stops at their hop radius.  Each engine reports its weighted
  capability via ``weighted_backend`` (shown by ``repro engines``).
* ``weighted_failure_sweep`` / ``batched_shortest_paths`` /
  ``batched_seeded_shortest_paths``: the batched replacement subsystem -
  replacement rows for *all* tree-edge failures (``ReplacementRows``,
  the oracle snapshot's layout), and many independent (seeded) weighted
  traversals, in one amortized pass.  The reference implementations are
  the per-call loops; the csr engine stacks the runs into shared
  per-level kernels.  Reported via ``replacement_backend`` /
  ``detour_backend``.

Built-in engines
----------------
``"python"``
    The executable specification (pure-Python loops).
``"csr"``
    Array kernels over a CSR view cached on the graph
    (:mod:`repro.engine.compiled`); registered only when numpy imports,
    and the default then.  The traversal hot paths - the sweep hot pair
    and the weighted ``(hops, pert_sum)`` stacked relaxation behind
    ``run_pcons`` and the batched primitives - run as C loops that
    :mod:`repro.engine.cbuild` compiles once on demand and loads via
    ctypes.  With no compiler, under ``REPRO_CC=0`` and after a failed
    compile the same engine runs its numpy kernels
    (:mod:`repro.engine.csr_engine`) - same bits, same exceptions.  A C
    or numpy tie bail reruns the call on the reference.  ``compiler``
    (shown by ``repro engines``) reports the toolchain.

Selection
---------
Explicit ``engine=`` keyword > :func:`engine_context` /
:func:`set_default_engine` > the ``REPRO_ENGINE`` environment variable >
``"csr"`` if available else ``"python"``.  The CLI exposes the same
choice as ``repro engines`` and ``--engine {python,csr}``; parallel
sweep workers honor :class:`repro.harness.parallel.SweepTask.engine`.
"""

from repro.engine.base import (
    UNREACHABLE,
    ReplacementRows,
    SweepHandle,
    TraversalEngine,
    distances_equal,
    num_unreachable,
    replacement_failure,
)
from repro.engine.registry import (
    ENGINE_ENV_VAR,
    available_engines,
    default_engine_name,
    engine_context,
    get_engine,
    register_engine,
    set_default_engine,
)

__all__ = [
    "UNREACHABLE",
    "ReplacementRows",
    "SweepHandle",
    "TraversalEngine",
    "distances_equal",
    "num_unreachable",
    "replacement_failure",
    "ENGINE_ENV_VAR",
    "available_engines",
    "default_engine_name",
    "engine_context",
    "get_engine",
    "register_engine",
    "set_default_engine",
]
