"""Pluggable traversal engines: one dispatch point for every traversal.

This package is the substrate the scaling roadmap plugs into.  Every
hop-BFS and failure sweep in the library - :mod:`repro.spt.bfs`, the
verification oracle, the experiment harness -
routes through a :class:`~repro.engine.base.TraversalEngine` resolved by
the registry, instead of hand-rolled per-call-site loops.

Engine contract (details in :mod:`repro.engine.base`)
-----------------------------------------------------
* ``distances`` / ``parents``: masked hop BFS, bit-identical across
  engines (tie-breaking comes from the graph's adjacency-list order,
  which every backend must preserve).
* ``sweep``: the all-single-edge-failures primitive - a handle whose
  ``failed(e)`` gives the hop distances of ``G \\ {e}`` (or ``H \\ {e}``
  under an ``allowed_edges`` mask) and whose ``base_distances()`` gives
  the no-failure vector.  Backends amortize: the csr engine computes
  one base BFS tree and recomputes only the subtree hanging under each
  failed tree edge.
* ``shortest_paths`` / ``seeded_shortest_paths``: the weighted
  tie-broken Dijkstra.  The csr engine runs the random weight scheme's
  single-source calls on the array kernels of
  :mod:`repro.engine.weighted_kernels` (the composite weight splits
  into an ``int64`` ``(hops, pert_sum)`` pair); the exact scheme's
  big-int perturbations, and any call whose kernel meets a possible tie
  or an invalid seed, transparently fall back to the shared reference
  implementation.  Seeded calls are the reference's on every engine.
  Given ``targets``, an unseeded run stops at their hop radius.  Each
  engine reports its weighted capability via ``weighted_backend``
  (shown by ``repro engines``).
* ``weighted_failure_sweep``: the batched replacement sweep -
  replacement rows for *all* tree-edge failures (``ReplacementRows``,
  the oracle snapshot's layout) in one amortized pass.  The reference
  implementation is the per-edge loop of ``replacement_failure``; the
  csr engine stacks the subtree recomputes into shared per-level
  kernels.  Reported via ``replacement_backend``.
* ``batched_shortest_paths``: the Pcons detour batch.  It takes T0
  paths and yields each detour search's escape table
  (``DetourEscapes``: per path vertex, the cheapest way off the path)
  with the parents that walk a chosen detour; the reference is
  ``reference_escapes`` per path.  The csr engine stacks the searches
  and, on its C tier, computes every table of a chunk in one C pass
  over the stacked state.  Reported via ``detour_backend``.

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
Explicit ``engine=`` keyword > :func:`engine_context` > the
``REPRO_ENGINE`` environment variable > ``"csr"`` if available else
``"python"``.  The CLI exposes the same choice as ``repro engines`` and
``--engine {python,csr}``; stage-task workers honor
:attr:`repro.harness.parallel.StageTask.engine`.
"""

from repro.engine.base import (
    UNREACHABLE,
    DetourEscapes,
    ReplacementRows,
    SweepHandle,
    TraversalEngine,
    distances_equal,
    num_unreachable,
    reference_escapes,
    replacement_failure,
)
from repro.engine.registry import (
    ENGINE_ENV_VAR,
    available_engines,
    default_engine_name,
    engine_context,
    get_engine,
)

__all__ = [
    "UNREACHABLE",
    "DetourEscapes",
    "ReplacementRows",
    "SweepHandle",
    "TraversalEngine",
    "distances_equal",
    "num_unreachable",
    "reference_escapes",
    "replacement_failure",
    "ENGINE_ENV_VAR",
    "available_engines",
    "default_engine_name",
    "engine_context",
    "get_engine",
]
