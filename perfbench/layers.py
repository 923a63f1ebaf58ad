"""Outside-in layer wrappers for the traced run, and the per-layer metrics.

``install(tracer)`` swaps timing or counting wrappers in for the public
functions of each layer, at the names the callers look them up by (for
example ``repro.core.construct.run_pcons``, which ``construct`` imported
by name); ``undo()`` on the ``Patches`` it returns puts the originals
back.  Nothing under ``src/`` changes.  Generator primitives are timed
while they are consumed.

Hot calls (millions per build) are counted, not spanned, to keep the
tracing overhead small; the traced run reports that overhead anyway.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from perfbench.spans import Tracer

#: Units of the per-layer metrics that count work: they repeat exactly
#: for one seed.
COUNT_UNITS = ("count", "bytes")


class Patches:
    """The attributes ``install`` replaced, to put back in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def swap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _reference_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """A reference-engine traversal counted as a fallback only when an
    array engine delegated to it (its ``self`` is not the plain
    reference engine)."""
    from repro.engine.python_engine import PythonEngine

    timed = tracer.timed("engine.reference", fn)

    def wrapper(self, *args, **kwargs):
        if type(self) is PythonEngine:
            return fn(self, *args, **kwargs)
        tracer.counters["engine.reference_fallbacks"] += 1
        return timed(self, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _c_bail_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """The numpy relaxation, counted as a C bail when the compiled
    engine reran on it."""
    from repro.engine.compiled import CompiledEngine

    def wrapper(self, *args, **kwargs):
        if isinstance(self, CompiledEngine):
            tracer.counters["engine.c_bails"] += 1
        return fn(self, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _pcons_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    timed = tracer.timed("pcons", fn)

    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        tracer.counters["pcons.pairs"] += result.stats.num_pairs
        tracer.counters["pcons.detour_sources"] += (
            result.stats.num_detour_dijkstras
        )
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _phase_s1_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    timed = tracer.timed("phase_s1", fn)

    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        tracer.counters["phase_s1.iterations"] += result.iterations
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _sweep_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``verify._two_sided_sweep``: base traversals plus the lazily
    consumed per-failure pair stream, all as ``verify.sweep``."""
    timed = tracer.timed("verify.sweep", fn)

    def wrapper(*args, **kwargs):
        base_g, base_h, pairs = timed(*args, **kwargs)

        def timed_pairs(candidates):
            return tracer.drive("verify.sweep", pairs(candidates))

        return base_g, base_h, timed_pairs

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer boundary; returns the undo record."""
    from repro.core import construct, pcons, phase_s1, verify
    from repro.core.interference import InterferenceIndex
    from repro.engine import cbuild, csr_engine, python_engine
    from repro.oracle.query import QueryOracle
    from repro.spt.spt_tree import ShortestPathTree

    p = Patches()
    timed, gen, counted = tracer.timed, tracer.timed_generator, tracer.counted

    # core.construct imports the phase entry points by name.
    p.swap(construct, "run_pcons", lambda f: _pcons_wrapper(tracer, f))
    p.swap(construct, "InterferenceIndex",
           lambda f: timed("interference.index", f))
    p.swap(construct, "run_phase_s1", lambda f: _phase_s1_wrapper(tracer, f))
    p.swap(construct, "run_phase_s2", lambda f: timed("phase_s2", f))
    p.swap(phase_s1, "classify_pairs", lambda f: timed("phase_s1.classify", f))
    p.swap(InterferenceIndex, "exists_live_partner",
           lambda f: counted("phase_s1.exists_live_partner_calls", f))
    p.swap(InterferenceIndex, "pi_intersects",
           lambda f: counted("phase_s1.pi_intersects_calls", f))
    p.swap(ShortestPathTree, "lca",
           lambda f: counted("phase_s1.lca_calls", f, within="phase_s1"))

    # core.pcons: the SPT, and the per-vertex detour fill.
    p.swap(pcons, "build_spt", lambda f: timed("pcons.spt", f))
    p.swap(pcons, "_fill_detours", lambda f: timed("pcons.fill_detours", f))

    # engine: batched weighted primitives, result assembly, C bails,
    # kernel loading, and reference fallbacks.
    CSREngine = csr_engine.CSREngine
    p.swap(CSREngine, "batched_shortest_paths",
           lambda f: gen("engine.batched_shortest_paths", f))
    p.swap(CSREngine, "weighted_failure_sweep",
           lambda f: gen("engine.weighted_failure_sweep", f))
    p.swap(csr_engine, "assemble_result",
           lambda f: timed("engine.assemble_result", f))
    p.swap(CSREngine, "_weighted_levels", lambda f: _c_bail_wrapper(tracer, f))
    p.swap(cbuild, "kernel_library",
           lambda f: counted("engine.kernel_library_calls", f))
    PythonEngine = python_engine.PythonEngine
    for attr in ("shortest_paths", "seeded_shortest_paths"):
        p.swap(PythonEngine, attr, lambda f: _reference_wrapper(tracer, f))

    # core.verify: both sweep sides, and the per-failure comparison.
    p.swap(verify, "_two_sided_sweep", lambda f: _sweep_wrapper(tracer, f))
    p.swap(verify, "distances_equal", lambda f: timed("verify.compare", f))
    p.swap(verify, "_compare", lambda f: timed("verify.compare", f))

    # oracle.query: the calls the server makes, and the fallback layer.
    for attr in ("dist_many", "path", "path_edges", "mark_down", "mark_up"):
        p.swap(QueryOracle, attr, lambda f: timed("query.answer", f))
    p.swap(QueryOracle, "_fallback_result", lambda f: timed("query.fallback", f))
    return p


def per_layer_metrics(
    tracer: Tracer, facts: Dict[str, float], names: Iterable[str]
) -> Dict[str, float]:
    """The per-layer metrics ``names``, in that order, from the spans
    plus the workload's ``facts`` (figures the program itself returned,
    such as the oracle's answer counters or the verify report's checked
    count).  A layer the workload never enters reads 0."""
    total = tracer.totals()
    self_t = tracer.self_times()
    c = tracer.counters
    query_fallback = facts.get("query.fallback_traversals", 0) + facts.get(
        "query.fallback_hits", 0
    )
    values: Dict[str, float] = {
        "phase_s1.total_s": total.get("phase_s1", 0.0),
        "phase_s1.classify_s": total.get("phase_s1.classify", 0.0),
        "phase_s1.iterations": c["phase_s1.iterations"],
        "phase_s1.exists_live_partner_calls": c["phase_s1.exists_live_partner_calls"],
        "phase_s1.pi_intersects_calls": c["phase_s1.pi_intersects_calls"],
        "phase_s1.lca_calls": c["phase_s1.lca_calls"],
        "interference.index_s": total.get("interference.index", 0.0),
        "pcons.total_s": total.get("pcons", 0.0),
        "pcons.spt_s": total.get("pcons.spt", 0.0),
        "pcons.pair_loop_s": self_t.get("pcons", 0.0),
        "pcons.fill_detours_s": total.get("pcons.fill_detours", 0.0),
        "pcons.pairs": c["pcons.pairs"],
        "pcons.detour_sources": c["pcons.detour_sources"],
        "engine.batched_shortest_paths_s": total.get(
            "engine.batched_shortest_paths", 0.0
        ),
        "engine.weighted_failure_sweep_s": total.get(
            "engine.weighted_failure_sweep", 0.0
        ),
        "engine.assemble_result_s": total.get("engine.assemble_result", 0.0),
        "engine.c_bails": c["engine.c_bails"],
        "engine.kernel_library_calls": c["engine.kernel_library_calls"],
        "engine.reference_fallbacks": c["engine.reference_fallbacks"],
        "engine.reference_s": total.get("engine.reference", 0.0),
        "verify.total_s": total.get("verify", 0.0),
        "verify.sweep_s": total.get("verify.sweep", 0.0),
        "verify.compare_s": total.get("verify.compare", 0.0),
        "snapshot.save_s": total.get("snapshot.save", 0.0),
        "snapshot.load_s": total.get("snapshot.load", 0.0),
        "query.answer_s": total.get("query.answer", 0.0),
        "query.fallback_s": total.get("query.fallback", 0.0),
        "query.fallback_hit_ratio": (
            facts.get("query.fallback_hits", 0) / query_fallback
            if query_fallback else 0.0
        ),
        "serve.protocol_s": self_t.get("serve.request", 0.0),
        "serve.requests": tracer.count("serve.request"),
    }
    return {name: values.get(name, facts.get(name, 0)) for name in names}
