"""Weighted-engine parity: the csr fast path must match the reference.

The csr engine runs the random weight scheme on the array kernels of
``repro.engine.weighted_kernels`` (and falls back to the shared big-int
reference for the exact scheme); either way ``shortest_paths`` /
``seeded_shortest_paths`` must be *bit-identical* to the python engine:
same big-int ``dist``, same ``parent``/``parent_eid`` trees, and the
same order-dependent :class:`~repro.errors.TieBreakError` behavior,
including the reseed-on-tie path of ``run_pcons``.

The batched replacement subsystem (PR 4) extends the contract: the
stacked ``weighted_failure_sweep`` / ``batched_shortest_paths`` /
``batched_seeded_shortest_paths`` paths must be bit-identical to the
per-call loops they amortize, across engines, both weight schemes,
disconnected subtrees included.

The fast engine under test follows ``REPRO_ENGINE``: the weighted CI
matrix reruns this module under ``csr`` and ``csr-mt``, and csr runs
its C kernels unless ``REPRO_CC=0`` (the no-compiler job) puts it on
numpy, so both backends face the same tie-replay and chunking cases.
The reference row stays the python engine (an ambient
``python``/``sharded`` selection degenerates to ``csr``).
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.pcons import run_pcons
from repro.engine import (
    available_engines,
    cbuild,
    engine_context,
    get_engine,
    replacement_failure,
)
from repro.engine.csr_engine import CSREngine
from repro.errors import GraphError, TieBreakError
from repro.graphs import Graph, cycle_graph, gnp_random_graph
from repro.spt.spt_tree import build_spt
from repro.spt.weights import EXACT, RANDOM, WeightAssignment, make_weights

from tests.conftest import graph_with_source

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

FAST_NAME = os.environ.get("REPRO_ENGINE") or "csr"
if FAST_NAME not in available_engines() or FAST_NAME in ("python", "sharded"):
    FAST_NAME = "csr"

PY = get_engine("python")
CSR = get_engine(FAST_NAME)


def assert_same_result(a, b):
    assert a.source == b.source
    assert a.dist == b.dist
    assert a.parent == b.parent
    assert a.parent_eid == b.parent_eid
    assert all(d is None or type(d) is int for d in b.dist)
    assert all(type(p) is int for p in b.parent)
    assert all(type(p) is int for p in b.parent_eid)


def run_both(method, *args, **kwargs):
    """Run a weighted traversal on both engines; exceptions must agree."""
    results = []
    for engine in (PY, CSR):
        try:
            results.append(("ok", getattr(engine, method)(*args, **kwargs)))
        except TieBreakError:
            results.append(("tie", None))
        except GraphError:
            results.append(("graph-error", None))
    (kind_a, a), (kind_b, b) = results
    assert kind_a == kind_b, (
        f"engines disagree: python={kind_a} {FAST_NAME}={kind_b}"
    )
    if kind_a == "ok":
        assert_same_result(a, b)
    return kind_a, a


# ----------------------------------------------------------------------
# single-source parity (property-based)
# ----------------------------------------------------------------------
@st.composite
def weighted_instance(draw):
    """(graph, source, scheme, kwargs) with random failure masks."""
    g, source = draw(graph_with_source(max_vertices=24, connected=False))
    scheme = draw(st.sampled_from([EXACT, RANDOM]))
    n, m = g.num_vertices, g.num_edges
    kwargs = {}
    if m and draw(st.booleans()):
        kwargs["banned_edge"] = draw(st.integers(0, m - 1))
    if m and draw(st.booleans()):
        kwargs["banned_edges"] = set(
            draw(st.lists(st.integers(0, m - 1), max_size=3))
        )
    if n > 1 and draw(st.booleans()):
        kwargs["banned_vertices"] = set(
            draw(st.lists(st.integers(1, n - 1), max_size=2))
        )
    if m and draw(st.booleans()):
        kwargs["allowed_edges"] = set(
            draw(st.lists(st.integers(0, m - 1), max_size=m))
        )
    return g, source, scheme, kwargs


@settings(max_examples=80, **COMMON)
@given(weighted_instance(), st.integers(0, 3))
def test_shortest_paths_parity(instance, wseed):
    g, source, scheme, kwargs = instance
    w = make_weights(g, scheme, seed=wseed)
    if source in kwargs.get("banned_vertices", ()):
        kwargs["banned_vertices"].discard(source)
    run_both("shortest_paths", g, w, source, **kwargs)


@settings(max_examples=40, **COMMON)
@given(graph_with_source(max_vertices=28), st.integers(0, 5))
def test_seeded_parity_subtree_recompute(pair, wseed):
    """Seeded runs in the replacement-engine shape: per failed tree edge,
    recompute inside the subtree, seeded from the crossing edges."""
    g, source = pair
    w = make_weights(g, RANDOM, seed=wseed)
    tree = build_spt(g, w, source)
    for eid in tree.tree_edges()[:6]:
        child = tree.edge_child(eid)
        sub = list(tree.subtree_vertices(child))
        sub_set = set(sub)
        seeds = []
        for b in sub:
            for a, cross in g.adjacency(b):
                if cross == eid or a in sub_set:
                    continue
                if tree.dist[a] is None:
                    continue
                seeds.append((tree.dist[a] + w[cross], b, a, cross))
        run_both(
            "seeded_shortest_paths", g, w, seeds,
            allowed_vertices=sub_set, banned_edge=eid,
        )


def test_seeded_large_subtree_uses_kernel_path():
    """Force the array path (allowed set above the small-run cutoff)."""
    g = gnp_random_graph(160, 0.05, seed=8)
    w = make_weights(g, RANDOM, seed=8)
    tree = build_spt(g, w, 0)
    # the root's largest child subtree is comfortably > the cutoff
    child = max(tree.children[0], key=tree.subtree_size, default=None)
    assert child is not None
    eid = tree.parent_eid[child]
    sub_set = set(tree.subtree_vertices(child))
    from repro.engine.csr_engine import _SMALL_WEIGHTED

    assert len(sub_set) > _SMALL_WEIGHTED  # must take the array path
    seeds = [
        (tree.dist[a] + w[cross], b, a, cross)
        for b in sub_set
        for a, cross in g.adjacency(b)
        if cross != eid and a not in sub_set and tree.dist[a] is not None
    ]
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, seeds,
        allowed_vertices=sub_set, banned_edge=eid,
    )
    assert kind == "ok"


def test_seed_outside_allowed_raises_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, [(w.big, 0, 5, 4)],
        allowed_vertices=set(range(1, 5)),
    )
    assert kind == "graph-error"


def test_banned_source_raises_on_both():
    g = cycle_graph(5)
    w = make_weights(g, RANDOM, seed=0)
    kind, _ = run_both("shortest_paths", g, w, 0, banned_vertices={0})
    assert kind == "graph-error"


# ----------------------------------------------------------------------
# tie behavior
# ----------------------------------------------------------------------
def uniform_assignment(m, shift=20, pert=0):
    return WeightAssignment(
        weights=[(1 << shift) + pert] * m, shift=shift, scheme=RANDOM, seed=0
    )


def test_even_cycle_ties_on_both_engines():
    g = cycle_graph(6)
    w = uniform_assignment(6)
    kind, _ = run_both("shortest_paths", g, w, 0)
    assert kind == "tie"


def test_raise_on_tie_false_matches_reference():
    g = cycle_graph(6)
    w = uniform_assignment(6)
    kind, _ = run_both("shortest_paths", g, w, 0, raise_on_tie=False)
    assert kind == "ok"


def test_intermediate_running_min_tie_detected():
    """Candidates arriving (10, 10, 5): the reference raises on the
    second 10 even though the final minimum 5 is unique - the kernel
    must replay, not just count minima."""
    big = 1 << 50
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    w = WeightAssignment(
        weights=[big + 1, big + 2, big + 3, big + 9, big + 8, big + 2],
        shift=50, scheme=RANDOM, seed=0,
    )
    kind, _ = run_both("shortest_paths", g, w, 0)
    assert kind == "tie"
    kind, sp = run_both("shortest_paths", g, w, 0, raise_on_tie=False)
    assert kind == "ok"
    assert sp.dist[4] & (big - 1) == 5  # the unique final minimum wins


def test_duplicates_above_running_min_do_not_tie():
    """Candidates arriving (5, 10, 10) never touch the running min."""
    big = 1 << 50
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    w = WeightAssignment(
        weights=[big + 1, big + 2, big + 3, big + 4, big + 8, big + 7],
        shift=50, scheme=RANDOM, seed=0,
    )
    kind, sp = run_both("shortest_paths", g, w, 0)
    assert kind == "ok"
    assert sp.dist[4] & (big - 1) == 5


def test_equal_weight_seeds_tie_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    d = 3 * w.big
    seeds = [(d, 2, 1, 1), (d, 2, 3, 2)]  # same dist, different entry edge
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, seeds, allowed_vertices={2, 3}
    )
    assert kind == "tie"


@settings(max_examples=25, **COMMON)
@given(graph_with_source(max_vertices=14, connected=False), st.integers(0, 2**10))
def test_degenerate_weights_tie_parity(pair, salt):
    """Tiny perturbation ranges force frequent ties; raise/no-raise and
    results must agree exactly between engines."""
    g, source = pair
    rng = random.Random(salt)
    big = 1 << 16
    weights = [big + rng.randrange(1, 4) for _ in range(g.num_edges)]
    w = WeightAssignment(weights=weights, shift=16, scheme=RANDOM, seed=0)
    run_both("shortest_paths", g, w, source)
    run_both("shortest_paths", g, w, source, raise_on_tie=False)


@pytest.mark.skipif(
    cbuild.find_compiler() is None,
    reason="no C compiler: csr runs on numpy only",
)
@settings(max_examples=25, **COMMON)
@given(graph_with_source(max_vertices=14, connected=False), st.integers(0, 2**10))
def test_degenerate_weights_compiled_tie_set_identical(pair, salt):
    """The C kernel's exact running-min tie detection must reproduce the
    numpy path's tie *set*: for every degenerate instance, raise vs
    no-raise, the exception message, and the raise_on_tie=False result
    all agree between the numpy and C kernels - the compiled
    bail-and-rerun may never tie where numpy does not, nor miss a tie
    numpy reports."""
    g, source = pair
    rng = random.Random(salt)
    big = 1 << 16
    weights = [big + rng.randrange(1, 4) for _ in range(g.num_edges)]
    w = WeightAssignment(weights=weights, shift=16, scheme=RANDOM, seed=0)
    for kwargs in ({}, {"raise_on_tie": False}):
        outcomes = []
        for engine in (CSREngine(), get_engine("csr")):
            try:
                r = engine.shortest_paths(g, w, source, **kwargs)
                outcomes.append(("ok", r.dist, r.parent, r.parent_eid))
            except TieBreakError as exc:
                outcomes.append(("tie", str(exc)))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# the batched replacement subsystem: sweep-vs-lazy and batch-vs-per-call
# ----------------------------------------------------------------------
def run_both_batched(method, *args, **kwargs):
    """Consume a batched generator on both engines; kinds must agree."""
    results = []
    for engine in (PY, CSR):
        try:
            results.append(("ok", list(getattr(engine, method)(*args, **kwargs))))
        except TieBreakError:
            results.append(("tie", None))
        except GraphError:
            results.append(("graph-error", None))
    (kind_a, a), (kind_b, b) = results
    assert kind_a == kind_b, (
        f"engines disagree: python={kind_a} {FAST_NAME}={kind_b}"
    )
    return kind_a, a, b


@settings(max_examples=40, **COMMON)
@given(graph_with_source(max_vertices=26, connected=False), st.integers(0, 3),
       st.sampled_from([EXACT, RANDOM]))
def test_weighted_failure_sweep_parity(pair, wseed, scheme):
    """The stacked sweep equals both the python sweep and the per-edge
    lazy recomputes, bit for bit, disconnected subtrees included."""
    g, source = pair
    w = make_weights(g, scheme, seed=wseed)
    tree = build_spt(g, w, source)
    kind, a, b = run_both_batched("weighted_failure_sweep", g, w, tree)
    if kind != "ok":
        return
    assert a == b
    assert [item[0] for item in a] == tree.tree_edges()
    # ... and every item matches the per-edge lazy path on each engine.
    for engine, items in ((PY, a), (CSR, b)):
        for item in items:
            assert item == replacement_failure(engine, g, w, tree, item[0])


@settings(max_examples=30, **COMMON)
@given(graph_with_source(max_vertices=24, connected=False), st.integers(0, 3),
       st.sampled_from([EXACT, RANDOM]))
def test_batched_shortest_paths_parity(pair, wseed, scheme):
    """The stacked detour batch equals per-source calls on both engines."""
    g, source = pair
    w = make_weights(g, scheme, seed=wseed)
    tree = build_spt(g, w, source)
    sources = [v for v in range(g.num_vertices) if tree.is_reachable(v)]
    bans = [set(tree.path_vertices(v)) - {v} for v in sources]
    kind, a, b = run_both_batched("batched_shortest_paths", g, w, sources, bans)
    if kind != "ok":
        return
    for v, banned, x, y in zip(sources, bans, a, b):
        assert_same_result(x, y)
        single = PY.shortest_paths(g, w, v, banned_vertices=banned)
        assert_same_result(single, y)


def test_batched_seeded_parity_vertex_fault_shape():
    """Batched seeded runs (the vertex-fault shape: punctured subtrees,
    including seedless all-disconnected batches) match per-batch calls."""
    g = gnp_random_graph(40, 0.12, seed=5)
    w = make_weights(g, RANDOM, seed=5)
    tree = build_spt(g, w, 0)
    from repro.core.vertex_fault import _vertex_failure_seeds

    batches = []
    for x in tree.preorder:
        if x == 0:
            continue
        sub = [u for u in tree.subtree_vertices(x) if u != x]
        if not sub:
            continue
        batches.append(
            (_vertex_failure_seeds(g, tree, w, x, sub), set(sub), None)
        )
    assert batches
    kind, a, b = run_both_batched("batched_seeded_shortest_paths", g, w, batches)
    assert kind == "ok"
    for (seeds, allowed, _), x, y in zip(batches, a, b):
        assert_same_result(x, y)
        single = PY.seeded_shortest_paths(
            g, w, list(seeds), allowed_vertices=allowed
        )
        assert_same_result(single, y)


def test_batched_banned_source_raises_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _, _ = run_both_batched(
        "batched_shortest_paths", g, w, [0, 1], [None, {1}]
    )
    assert kind == "graph-error"


def test_batched_ban_length_mismatch_raises_on_both():
    """A short ban list must fail fast, never silently truncate."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _, _ = run_both_batched(
        "batched_shortest_paths", g, w, [0, 1, 2], [None, {1}]
    )
    assert kind == "graph-error"


def test_batched_seeded_accepts_generator_input():
    """The batch source may be a generator (the vertex-fault caller
    streams batches); chunked consumption must not change results."""
    g = gnp_random_graph(30, 0.15, seed=3)
    w = make_weights(g, RANDOM, seed=3)
    tree = build_spt(g, w, 0)
    from repro.core.vertex_fault import _vertex_failure_seeds

    def make_batches():
        for x in tree.preorder:
            if x == 0 or tree.subtree_size(x) <= 1:
                continue
            sub = [u for u in tree.subtree_vertices(x) if u != x]
            yield (_vertex_failure_seeds(g, tree, w, x, sub), set(sub), None)

    from_list = list(
        CSR.batched_seeded_shortest_paths(g, w, list(make_batches()))
    )
    from_gen = list(CSR.batched_seeded_shortest_paths(g, w, make_batches()))
    assert len(from_list) == len(from_gen) > 0
    for a, b in zip(from_list, from_gen):
        assert_same_result(a, b)


def test_batched_seeded_seed_outside_allowed_raises_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _, _ = run_both_batched(
        "batched_seeded_shortest_paths", g, w,
        [([(w.big, 0, 5, 4)], set(range(1, 5)), None)],
    )
    assert kind == "graph-error"


def test_batched_seeded_error_kind_follows_seed_order():
    """A seed tie arriving before an invalid seed raises TieBreakError,
    after it GraphError - the reference's sequential order, which the
    vectorized intake must reproduce rather than validating upfront."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    d = 3 * w.big
    tie_first = [(d, 2, 1, 1), (d, 2, 3, 2), (w.big, 5, 4, 4)]
    invalid_first = [(w.big, 5, 4, 4), (d, 2, 1, 1), (d, 2, 3, 2)]
    kind, _, _ = run_both_batched(
        "batched_seeded_shortest_paths", g, w, [(tie_first, {2, 3}, None)]
    )
    assert kind == "tie"
    kind, _, _ = run_both_batched(
        "batched_seeded_shortest_paths", g, w, [(invalid_first, {2, 3}, None)]
    )
    assert kind == "graph-error"


def test_batched_equal_weight_seeds_tie_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    d = 3 * w.big
    seeds = [(d, 2, 1, 1), (d, 2, 3, 2)]  # same dist, different entry edge
    kind, _, _ = run_both_batched(
        "batched_seeded_shortest_paths", g, w, [(seeds, {2, 3}, None)]
    )
    assert kind == "tie"


def test_sweep_chunking_boundaries_are_invisible():
    """Force one-edge chunks: results must not change (chunking is an
    internal batching decision, not part of the contract)."""
    import repro.engine.csr_engine as ce

    g = gnp_random_graph(50, 0.12, seed=9)
    w = make_weights(g, RANDOM, seed=9)
    tree = build_spt(g, w, 0)
    whole = list(CSR.weighted_failure_sweep(g, w, tree))
    old = ce._STACK_STREAM
    try:
        ce._STACK_STREAM = 1  # one subtree per chunk
        tiny = list(CSR.weighted_failure_sweep(g, w, tree))
    finally:
        ce._STACK_STREAM = old
    assert whole == tiny


# ----------------------------------------------------------------------
# construction-level parity + the reseed-on-tie path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_pcons_random_scheme_engine_parity(seed):
    g = gnp_random_graph(60, 0.1, seed=seed)
    results = {}
    for name in ("python", FAST_NAME):
        with engine_context(name):
            results[name] = run_pcons(g, 0, weight_scheme="random", seed=seed)
    ref, fast = results["python"], results[FAST_NAME]
    assert ref.tree.dist == fast.tree.dist
    assert ref.tree.parent == fast.tree.parent
    assert ref.tree.parent_eid == fast.tree.parent_eid
    assert ref.pairs.pairs == fast.pairs.pairs  # full PairRecord equality
    # Counters too: the replacement sweep/lazy/hit economics are part of
    # the deterministic construction record.
    assert ref.stats == fast.stats
    assert ref.stats.replacement_sweep_fills == len(ref.tree.tree_edges())
    assert ref.stats.replacement_lazy_computes == 0


def test_run_pcons_reseeds_identically_on_tie():
    """Start both engines from a tying random assignment: the reseed
    loop must fire on both and land on the same final weights."""
    g = cycle_graph(8)
    tying = uniform_assignment(8, shift=40, pert=7)
    results = {}
    for name in ("python", FAST_NAME):
        with engine_context(name):
            results[name] = run_pcons(g, 0, weights=tying)
    ref, fast = results["python"], results[FAST_NAME]
    assert ref.weights.seed == fast.weights.seed
    assert ref.weights.seed != tying.seed or list(ref.weights.weights) != list(
        tying.weights
    )
    assert ref.tree.dist == fast.tree.dist
    assert ref.tree.parent_eid == fast.tree.parent_eid


def test_exact_scheme_falls_back_and_matches():
    """Exact scheme on >63 edges cannot export to int64; the csr engine
    must transparently use the reference and still match it."""
    g = gnp_random_graph(40, 0.2, seed=7)
    assert g.num_edges > 63
    w = make_weights(g, EXACT)
    assert w.pert_array() is None
    kind, _ = run_both("shortest_paths", g, w, 0)
    assert kind == "ok"


# ----------------------------------------------------------------------
# the memoized array export
# ----------------------------------------------------------------------
def test_pert_array_is_memoized():
    g = gnp_random_graph(30, 0.2, seed=1)
    w = make_weights(g, RANDOM, seed=1)
    first = w.pert_array()
    second = w.pert_array()
    assert first is not None
    assert first[0] is second[0]  # same array object, no re-export
    assert first[1] == max(x - w.big for x in w.weights)


def test_pert_array_unsupported_is_memoized_too():
    g = gnp_random_graph(40, 0.2, seed=2)
    w = make_weights(g, EXACT)
    assert w.pert_array() is None
    assert w.pert_array() is None


def test_pert_array_values_match_weights():
    import numpy as np

    g = cycle_graph(10)
    w = make_weights(g, RANDOM, seed=9)
    perts, max_pert = w.pert_array()
    assert perts.dtype == np.int64
    assert perts.tolist() == [x - w.big for x in w.weights]
    assert not perts.flags.writeable
    assert max_pert == int(perts.max())
