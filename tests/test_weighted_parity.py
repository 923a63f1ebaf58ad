"""Weighted-engine parity: the csr fast path must match the reference.

The csr engine runs the random weight scheme on the array kernels of
``repro.engine.weighted_kernels`` (and falls back to the shared big-int
reference for the exact scheme); either way ``shortest_paths`` /
``seeded_shortest_paths`` must be *bit-identical* to the python engine:
same big-int ``dist``, same ``parent``/``parent_eid`` trees, and the
same order-dependent :class:`~repro.errors.TieBreakError` behavior,
including the reseed-on-tie path of ``run_pcons``.  The kernels only
detect a possible tie or an invalid seed and hand the call back to the
reference, which alone decides the error and its message.

The batched replacement sweep (PR 4) extends the contract: the
stacked ``weighted_failure_sweep`` must be bit-identical to the
per-edge loop it amortizes, across engines, both weight schemes,
disconnected subtrees included.  The Pcons detour batch
(``batched_shortest_paths``) takes T0 paths and hands back each
search's escape table; the tables, and the detours their parents walk,
must equal the per-path reference on the python engine, the csr engine
and csr on its numpy kernels.

Searches given a target set stop at the targets' hop radius ``R``:
within ``R`` they read what the full run reads, beyond it unreachable,
on every engine, and a tie beyond ``R`` raises on none of them.

The fast engine under test follows ``REPRO_ENGINE``: the weighted CI
matrix reruns this module under ``csr``, which runs its C kernels
unless ``REPRO_CC=0`` (the no-compiler job) puts it on numpy, so both
backends face the same tie hand-back and chunking cases.
The reference row stays the python engine (an ambient ``python``
selection degenerates to ``csr``).
"""

import os
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.pcons import run_pcons
from repro.engine import (
    ReplacementRows,
    available_engines,
    cbuild,
    engine_context,
    get_engine,
    replacement_failure,
)
from repro.engine.base import DetourEscapes, detour_targets, reference_escapes
from repro.engine.csr_engine import CSREngine
from repro.errors import GraphError, TieBreakError
from repro.graphs import (
    Graph,
    barbell_graph,
    binary_tree_graph,
    broom_graph,
    caterpillar_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    star_graph,
    torus_graph,
)
from repro.spt.result import ShortestPathResult
from repro.spt.spt_tree import build_spt
from repro.spt.weights import EXACT, RANDOM, WeightAssignment, make_weights

from tests.conftest import graph_with_source

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

FAST_NAME = os.environ.get("REPRO_ENGINE") or "csr"
if FAST_NAME not in available_engines() or FAST_NAME == "python":
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
        kwargs["banned_edges"] = set(
            draw(st.lists(st.integers(0, m - 1), max_size=3))
        )
    if n > 1 and draw(st.booleans()):
        kwargs["banned_vertices"] = set(
            draw(st.lists(st.integers(1, n - 1), max_size=2))
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
            "seeded_shortest_paths", g, w, seeds, allowed_vertices=sub_set
        )


@pytest.mark.parametrize("vertex", [-2**70, 2**41, 2**70])
def test_seeded_far_out_of_range_seed_is_named(vertex):
    """A seed vertex far outside [0, n) fails exactly like the reference:
    same exception type, same message naming the caller's id (no int64
    overflow, no clamped id)."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    outcomes = []
    for engine in (PY, CSR, CSREngine()):
        try:
            engine.seeded_shortest_paths(
                g, w, [(w.big, vertex, 4, 4)], allowed_vertices=set(range(1, 5))
            )
            outcomes.append(("ok", None))
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    expected = (GraphError, f"seed vertex {vertex} outside the allowed set")
    assert outcomes == [expected] * 3


def test_seeded_equal_weight_seeds_tie_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    d = 3 * w.big
    seeds = [(d, 2, 1, 1), (d, 2, 3, 2)]  # same dist, different entry edge
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, seeds, allowed_vertices={2, 3}
    )
    assert kind == "tie"


def test_seeded_seed_outside_allowed_raises_on_both():
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, [(w.big, 0, 5, 4)],
        allowed_vertices=set(range(1, 5)),
    )
    assert kind == "graph-error"


def test_equal_weight_seeds_tie_on_both():
    """A one-vertex subtree entered over both its crossing edges at the
    same distance ties on every engine."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    d = 2 * w.big
    seeds = [(d, 2, 1, 1), (d, 2, 3, 2)]  # same dist, different entry edge
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, seeds, allowed_vertices={2}
    )
    assert kind == "tie"


def test_seed_outside_allowed_raises_on_both():
    """An outside seed raises even after a valid seed was taken."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _ = run_both(
        "seeded_shortest_paths", g, w, [(w.big, 1, 0, 0), (w.big, 0, 5, 5)],
        allowed_vertices=set(range(1, 5)),
    )
    assert kind == "graph-error"


def test_seeded_error_kind_follows_seed_order():
    """A seed tie arriving before an invalid seed raises TieBreakError,
    after it GraphError - the reference's sequential order, which every
    engine's seeded call runs."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    d = 3 * w.big
    tie = [(d, 2, 1, 1), (d, 2, 3, 2)]
    invalid = [(w.big, 5, 4, 4)]  # vertex 5 lies outside {2, 3}
    for seeds, expected in (
        (tie + invalid, "tie"),
        (invalid + tie, "graph-error"),
    ):
        kind, _ = run_both(
            "seeded_shortest_paths", g, w, seeds, allowed_vertices={2, 3}
        )
        assert kind == expected, seeds


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


def test_intermediate_running_min_tie_detected():
    """Candidates arriving (10, 10, 5): the reference raises on the
    second 10 even though the final minimum 5 is unique - the kernels
    must hand the call back, not just count minima."""
    big = 1 << 50
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    w = WeightAssignment(
        weights=[big + 1, big + 2, big + 3, big + 9, big + 8, big + 2],
        shift=50, scheme=RANDOM, seed=0,
    )
    kind, _ = run_both("shortest_paths", g, w, 0)
    assert kind == "tie"


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


@pytest.mark.skipif(
    cbuild.find_compiler() is None,
    reason="no C compiler: csr runs on numpy only",
)
@settings(max_examples=25, **COMMON)
@given(graph_with_source(max_vertices=14, connected=False), st.integers(0, 2**10))
def test_degenerate_weights_compiled_tie_set_identical(pair, salt):
    """The C kernel's exact running-min tie detection and the numpy
    path's duplicate detection must yield the same tie *set*: for every
    degenerate instance, raise vs no-raise, the exception message and
    the result all agree between the numpy and C kernels - neither
    hand-back may tie where the other does not, nor miss a tie."""
    g, source = pair
    rng = random.Random(salt)
    big = 1 << 16
    weights = [big + rng.randrange(1, 4) for _ in range(g.num_edges)]
    w = WeightAssignment(weights=weights, shift=16, scheme=RANDOM, seed=0)
    outcomes = []
    for engine in (CSREngine(), get_engine("csr")):
        try:
            r = engine.shortest_paths(g, w, source)
            outcomes.append(("ok", r.dist, r.parent, r.parent_eid))
        except TieBreakError as exc:
            outcomes.append(("tie", str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.skipif(
    cbuild.find_compiler() is None,
    reason="no C compiler: csr runs on numpy only",
)
def test_compiled_tie_never_runs_the_numpy_relaxation(monkeypatch):
    """With the C kernels loaded, a bail hands the call straight back to
    the reference: the numpy relaxation never reruns it."""
    import repro.engine.csr_engine as ce

    # A tie-free SPT whose sweep meets a seed tie: 4 hangs under 1
    # (hop 2, pert 2), and failing (1, 4) seeds 4 from 2 and from 3,
    # both at pert 4.
    fan = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    big = 1 << 16
    fan_w = WeightAssignment(
        weights=[big + p for p in (1, 2, 3, 1, 2, 1)],
        shift=16, scheme=RANDOM, seed=0,
    )
    fan_tree = build_spt(fan, fan_w, 0)
    assert fan_tree.parent[4] == 1

    def numpy_relaxation(*args, **kwargs):
        raise AssertionError("the numpy relaxation ran")

    monkeypatch.setattr(ce, "weighted_levels", numpy_relaxation)
    engine = get_engine("csr")
    g = cycle_graph(6)
    w = uniform_assignment(6)
    with pytest.raises(TieBreakError, match="equal-weight paths"):
        engine.shortest_paths(g, w, 0)
    with pytest.raises(TieBreakError, match="equal-weight paths"):
        list(engine.batched_shortest_paths(*pendant_c6(3), [[6, 1], [6, 0]]))
    with pytest.raises(TieBreakError, match="equal-weight seeds for vertex 4"):
        list(engine.weighted_failure_sweep(fan, fan_w, fan_tree, [3]))


# ----------------------------------------------------------------------
# target radius: searches stop at the hop radius of their targets
# ----------------------------------------------------------------------
def expected_truncation(g, w, source, targets, banned=None):
    """The full run cut at the targets' radius: what a search with
    ``targets`` must return (the full run when a target goes unlabeled)."""
    full = PY.shortest_paths(g, w, source, banned_vertices=banned)
    if any(full.dist[t] is None for t in targets):
        return full
    radius = max((full.dist[t] >> w.shift for t in targets), default=0)
    beyond = [
        d is not None and d >> w.shift > radius for d in full.dist
    ]
    return ShortestPathResult(
        source,
        [None if out else d for out, d in zip(beyond, full.dist)],
        [-1 if out else p for out, p in zip(beyond, full.parent)],
        [-1 if out else e for out, e in zip(beyond, full.parent_eid)],
    )


@st.composite
def targeted_instance(draw):
    """(graph, source, scheme, banned, targets): random targets, random
    vertex bans that may hit a target."""
    g, source = draw(graph_with_source(max_vertices=24, connected=False))
    scheme = draw(st.sampled_from([EXACT, RANDOM]))
    others = [v for v in range(g.num_vertices) if v != source]
    banned = set(draw(st.lists(st.sampled_from(others), max_size=2))) if (
        others and draw(st.booleans())
    ) else None
    targets = set(
        draw(st.lists(st.integers(0, g.num_vertices - 1), max_size=4))
    )
    return g, source, scheme, banned, targets


@settings(max_examples=80, **COMMON)
@given(targeted_instance(), st.integers(0, 3))
def test_targets_cut_the_full_run_at_their_radius(instance, wseed):
    """Within the radius the result is the full run's; beyond it every
    vertex reads unreachable - and an unreachable or banned target
    gives the full run."""
    g, source, scheme, banned, targets = instance
    w = make_weights(g, scheme, seed=wseed)
    kind, sp = run_both(
        "shortest_paths", g, w, source, banned_vertices=banned, targets=targets
    )
    assert kind == "ok"
    assert_same_result(expected_truncation(g, w, source, targets, banned), sp)


@settings(max_examples=30, **COMMON)
@given(graph_with_source(max_vertices=24, connected=False),
       st.sampled_from([EXACT, RANDOM]))
def test_unreachable_or_banned_target_gives_the_full_run(pair, scheme):
    g, source = pair
    w = make_weights(g, scheme, seed=1)
    full = PY.shortest_paths(g, w, source)
    unreached = [v for v in range(g.num_vertices) if full.dist[v] is None]
    if unreached:
        _, sp = run_both("shortest_paths", g, w, source, targets={unreached[0]})
        assert_same_result(full, sp)
    others = [v for v in range(g.num_vertices) if v != source]
    if others:
        banned = {others[-1]}
        _, sp = run_both(
            "shortest_paths", g, w, source, banned_vertices=banned,
            targets={others[-1]},
        )
        assert_same_result(
            PY.shortest_paths(g, w, source, banned_vertices=banned), sp
        )


@settings(max_examples=30, **COMMON)
@given(graph_with_source(max_vertices=24, connected=False),
       st.sampled_from([EXACT, RANDOM]))
def test_empty_targets_leave_only_the_source(pair, scheme):
    g, source = pair
    w = make_weights(g, scheme, seed=2)
    n = g.num_vertices
    for targets in (set(), {source}):
        _, sp = run_both("shortest_paths", g, w, source, targets=targets)
        assert sp.dist == [0 if v == source else None for v in range(n)]
        assert sp.parent == [-1] * n and sp.parent_eid == [-1] * n


@pytest.mark.parametrize(
    "targets, kind",
    [({1, 5}, "ok"), ({2}, "ok"), ({3}, "tie"), ({2, 4}, "ok")],
    ids=["next-to-source", "radius-2", "tie-within", "radius-2-both-sides"],
)
def test_even_cycle_tie_raises_only_within_the_radius(targets, kind):
    """Uniform weights tie at vertex 3, three hops round C6 either way:
    a radius below 3 never reaches it on either engine, radius 3 does
    on both."""
    g = cycle_graph(6)
    w = uniform_assignment(6)
    got, sp = run_both("shortest_paths", g, w, 0, targets=targets)
    assert got == kind
    if kind == "ok":
        assert sp.dist[3] is None


@pytest.mark.parametrize("bad", [-1, 6, 2**70, -2**70])
def test_out_of_range_target_raises_on_both(bad):
    g = cycle_graph(6)
    for scheme in (EXACT, RANDOM):
        w = make_weights(g, scheme, seed=0)
        kind, _ = run_both("shortest_paths", g, w, 0, targets={1, bad})
        assert kind == "graph-error"
        for paths in ([[0, 1], [bad, 1]], [[0, 1], [1, bad]]):
            kind, _ = run_detours(g, w, paths)
            assert kind == "graph-error"


@settings(max_examples=30, **COMMON)
@given(graph_with_source(max_vertices=24, connected=False),
       st.sampled_from([EXACT, RANDOM]), st.randoms(use_true_random=False))
def test_batched_layers_of_different_radius_match_per_call(pair, scheme, rng):
    """One stacked chunk holding paths of every radius - the source
    alone (no targets), T0 paths of every depth, and random vertex
    sequences whose targets may be unreachable - equals the per-path
    reference and the table of a full search, on every engine."""
    g, source = pair
    w = make_weights(g, scheme, seed=3)
    tree = build_spt(g, w, source)
    n = g.num_vertices
    paths = [[source]]
    for v in range(n):
        if tree.is_reachable(v):
            paths.append(tree.path_vertices(v))
        paths.append(rng.sample(range(n), min(n, rng.randint(1, 4))))
    kind, out = run_detours(g, w, paths)
    assert kind == "ok"
    for path, (escapes, _) in zip(paths, out):
        assert escapes == full_search_escapes(g, w, path)


def test_dist_at_reads_without_building_dist():
    """An array result answers ``dist_at`` from its hop/pert lists and
    builds the big-int list once, on its first read."""
    g = gnp_random_graph(40, 0.1, seed=4)
    w = make_weights(g, RANDOM, seed=4)
    ref = PY.shortest_paths(g, w, 0)
    sp = CSR.shortest_paths(g, w, 0)
    assert [sp.dist_at(v) for v in range(40)] == ref.dist
    assert sp.dist is sp.dist and sp.dist == ref.dist
    assert [ref.dist_at(v) for v in range(40)] == ref.dist


# ----------------------------------------------------------------------
# the batched primitives: sweep-vs-per-edge and detours-vs-per-path
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
    recomputes, bit for bit, disconnected subtrees included."""
    g, source = pair
    w = make_weights(g, scheme, seed=wseed)
    tree = build_spt(g, w, source)
    kind, a, b = run_both_batched("weighted_failure_sweep", g, w, tree)
    if kind != "ok":
        return
    rows = ReplacementRows.concat(a)
    assert rows == ReplacementRows.concat(b)
    assert rows.repl_eids == tree.tree_edges()
    # ... and the rows match the per-edge recomputes on each engine.
    for engine, blocks in ((PY, a), (CSR, b)):
        assert ReplacementRows.concat(blocks) == ReplacementRows.concat(
            replacement_failure(engine, g, w, tree, eid)
            for eid in tree.tree_edges()
        )


@settings(max_examples=30, **COMMON)
@given(graph_with_source(max_vertices=24, connected=False), st.integers(0, 3),
       st.sampled_from([EXACT, RANDOM]))
def test_batched_shortest_paths_parity(pair, wseed, scheme):
    """The detour batch over every T0 path (Pcons's shape) hands back
    the per-path reference's escape tables and parents on every
    engine."""
    g, source = pair
    w = make_weights(g, scheme, seed=wseed)
    tree = build_spt(g, w, source)
    paths = [tree.path_vertices(v) for v in tree.preorder]
    kind, _ = run_detours(g, w, paths)
    if kind != "ok":
        return
    for engine in (CSR, NUMPY_CSR):
        for path, esc in zip(paths, engine.batched_shortest_paths(g, w, paths)):
            ref = reference_escapes(PY.shortest_paths, g, w, path)
            assert esc.escapes == ref.escapes
            assert [int(p) for p in esc.parent] == ref.parent
            assert [int(e) for e in esc.parent_eid] == ref.parent_eid


def test_batched_banned_source_raises_on_both():
    """A path whose last vertex ``v`` also appears earlier bans its own
    source."""
    g = cycle_graph(6)
    w = make_weights(g, RANDOM, seed=0)
    kind, _ = run_detours(g, w, [[0, 1], [1, 2, 1]])
    assert kind == "graph-error"


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
    assert ReplacementRows.concat(whole) == ReplacementRows.concat(tiny)


def _sweep_outcome(engine, g, w, tree):
    """The rows a sweep yields, and the tie message it ends on (if any)."""
    blocks = []
    try:
        for block in engine.weighted_failure_sweep(g, w, tree):
            blocks.append(block)
    except TieBreakError as exc:
        return ReplacementRows.concat(blocks), str(exc)
    return ReplacementRows.concat(blocks), None


@settings(max_examples=150, **COMMON)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
@example(275, 275)  # clean sweep, five numpy hand-backs mid-stream
@example(206, 206)
def test_degenerate_weights_sweep_parity(graph_seed, salt):
    """Perturbations in {1, 2, 3} put ties - and duplicates that are not
    ties - inside the sweep's one-subtree chunks.  A chunk that hands
    back must reset the shared state buffer before the reference reruns
    it, so later chunks still match: the python engine, the numpy csr
    and the default csr agree row for row, or end on the same tie."""
    import repro.engine.csr_engine as ce

    g = gnp_random_graph(12, 0.35, seed=graph_seed)
    rng = random.Random(salt)
    big = 1 << 16
    weights = [big + rng.randrange(1, 4) for _ in range(g.num_edges)]
    w = WeightAssignment(weights=weights, shift=16, scheme=RANDOM, seed=0)
    try:
        tree = build_spt(g, w, 0)
    except TieBreakError:
        return  # no unique tree to sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ce, "_STACK_STREAM", 1)  # one subtree per chunk
        outcomes = [
            _sweep_outcome(engine, g, w, tree)
            for engine in (PY, CSREngine(), get_engine("csr"))
        ]
    assert outcomes[0] == outcomes[1] == outcomes[2]


# ----------------------------------------------------------------------
# the Pcons detour batch: T0 paths in, escape tables out
# ----------------------------------------------------------------------
#: The csr engine on its numpy kernels, whatever ``REPRO_CC`` says: its
#: batch reads each layer through ``assemble_result`` and the
#: reference scan, where the C tier runs one escape pass per chunk.
NUMPY_CSR = CSREngine()


def walk_detours(path, escapes):
    """Per entry of ``escapes``, the detour it names - ``(u_j, w, ...,
    v)`` walked through the search's parents - and its last edge."""
    v = path[-1]
    walked = []
    for j, entry in enumerate(escapes.escapes):
        if entry is None:
            walked.append(None)
            continue
        hops, x, e = entry
        chain = [path[j], x]
        while chain[-1] != v:
            assert chain[-1] >= 0 and len(chain) <= len(escapes.parent) + 1
            chain.append(int(escapes.parent[chain[-1]]))
        assert len(chain) - 1 == hops
        last = e if len(chain) == 2 else int(escapes.parent_eid[chain[-2]])
        walked.append((tuple(chain), last))
    return walked


def detour_outcome(engine, g, w, paths):
    """``(kind, [(escapes, walked detours)])`` of one batch."""
    try:
        return "ok", [
            (esc.escapes, walk_detours(path, esc))
            for path, esc in zip(paths, engine.batched_shortest_paths(g, w, paths))
        ]
    except TieBreakError:
        return "tie", None
    except GraphError:
        return "graph-error", None


def run_detours(g, w, paths):
    """One batch on the python engine, the csr engine and csr on numpy:
    the outcomes (tables and detours, or the error kind) must agree."""
    outcomes = [detour_outcome(e, g, w, paths) for e in (PY, CSR, NUMPY_CSR)]
    assert outcomes[0] == outcomes[1] == outcomes[2], (
        f"engines disagree: python={outcomes[0][0]} {FAST_NAME}="
        f"{outcomes[1][0]} numpy={outcomes[2][0]}"
    )
    return outcomes[0]


def full_search_escapes(g, w, path):
    """The escape table of ``path``, written out over a full search (no
    targets, no stop rule): composite candidates, the first minimum."""
    v, k = path[-1], len(path) - 1
    sp = PY.shortest_paths(g, w, v, banned_vertices=set(path[:-1]))
    table = []
    for j in range(k):
        best = min(
            (
                (w[e] + sp.dist[x], x, e)
                for x, e in g.adjacency(path[j])
                if not (j == k - 1 and x == v) and sp.dist[x] is not None
            ),
            key=lambda cand: cand[0],
            default=None,
        )
        table.append(None if best is None else (best[0] >> w.shift, *best[1:]))
    return table


def pendant_c6(far):
    """C6 plus a vertex 6 joined to 0 and to ``far``, uniform weights:
    the search for path ``[6, 0]`` targets ``far`` and meets the tie at
    vertex 3, three hops round C6 either way, only when ``far`` is 3."""
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (far, 6)]
    return Graph(7, edges), uniform_assignment(8)


DETOUR_FAMILIES = {
    "empty": empty_graph(4),
    "path": path_graph(7),
    "cycle": cycle_graph(9),
    "star": star_graph(7),
    "complete": complete_graph(7),
    "complete-bipartite": complete_bipartite_graph(3, 5),
    "grid": grid_graph(5, 6),
    "torus": torus_graph(4, 5),
    "hypercube": hypercube_graph(4),
    "binary-tree": binary_tree_graph(4),
    "broom": broom_graph(4, 4),
    "lollipop": lollipop_graph(5, 4),
    "barbell": barbell_graph(4, 3),
    "caterpillar": caterpillar_graph(5, 2),
    "gnp": gnp_random_graph(40, 0.12, seed=7),
}


@pytest.mark.parametrize("scheme", [EXACT, RANDOM])
@pytest.mark.parametrize("family", sorted(DETOUR_FAMILIES))
@settings(max_examples=8, **COMMON)
@given(data=st.data())
def test_escape_tables_and_detours_match_on_every_engine(family, scheme, data):
    """Random T0 paths of every family: the tables and the detours their
    parents walk agree on every engine, and equal the tables and
    detours of full searches."""
    g = DETOUR_FAMILIES[family]
    w = make_weights(g, scheme, seed=data.draw(st.integers(0, 3)))
    tree = build_spt(g, w, data.draw(st.integers(0, g.num_vertices - 1)))
    targets = data.draw(st.lists(st.sampled_from(tree.preorder), max_size=10))
    paths = [tree.path_vertices(v) for v in targets]
    kind, out = run_detours(g, w, paths)
    assert kind == "ok"
    for path, (escapes, detours) in zip(paths, out):
        assert escapes == full_search_escapes(g, w, path)
        full = PY.shortest_paths(g, w, path[-1], banned_vertices=set(path[:-1]))
        assert detours == walk_detours(
            path, DetourEscapes(escapes, full.parent, full.parent_eid)
        )


@pytest.mark.parametrize("scheme", [EXACT, RANDOM])
def test_the_tree_edge_into_v_is_never_an_escape(scheme):
    """On a path graph every edge out of the path is the tree edge
    into ``v``: no escape anywhere, on any engine."""
    g = path_graph(5)
    kind, out = run_detours(g, make_weights(g, scheme, seed=0), [[0, 1, 2, 3]])
    assert kind == "ok"
    assert out[0][0] == [None, None, None]


@pytest.mark.parametrize("scheme", [EXACT, RANDOM])
def test_a_direct_edge_to_v_is_a_one_hop_escape(scheme):
    """Round C5 as the path ``[0, 1, 2, 3, 4]``: the edge (0, 4) leaves
    at ``u_0`` straight into ``v`` (one hop), while (3, 4) is the tree
    edge and escapes nothing."""
    g = cycle_graph(5)
    w = make_weights(g, scheme, seed=0)
    kind, out = run_detours(g, w, [[0, 1, 2, 3, 4]])
    assert kind == "ok"
    escapes, detours = out[0]
    assert escapes == [(1, 4, g.edge_id(0, 4)), None, None, None]
    assert detours[0] == ((0, 4), g.edge_id(0, 4))


@pytest.mark.parametrize("scheme", [EXACT, RANDOM])
def test_a_vertex_with_only_path_neighbours_has_no_escape(scheme):
    """Path 0-1-2-3 with a bypass 0-4-3: ``u_0`` escapes through 4 in
    two hops, ``u_1`` and ``u_2`` see only path vertices (and the tree
    edge into ``v``)."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)])
    w = make_weights(g, scheme, seed=0)
    kind, out = run_detours(g, w, [[0, 1, 2, 3]])
    assert kind == "ok"
    escapes, detours = out[0]
    assert escapes == [(2, 4, g.edge_id(0, 4)), None, None]
    assert detours[0] == ((0, 4, 3), g.edge_id(4, 3))


@pytest.mark.parametrize(
    "far, kind", [(1, "ok"), (2, "ok"), (3, "tie")],
    ids=["radius-1", "radius-2", "tie-within"],
)
def test_a_tie_in_a_chunk_reruns_it_on_the_reference(far, kind):
    """The C6 tie inside a chunk, behind a path whose own search is
    clean: the chunk hands back, and the reference raises on every
    engine exactly when the tie lies within the radius."""
    g, w = pendant_c6(far)
    got, _ = run_detours(g, w, [[6, 1], [6, 0]])
    assert got == kind


@settings(max_examples=60, **COMMON)
@given(graph_with_source(max_vertices=14, connected=False), st.integers(0, 2**10))
def test_degenerate_weights_detour_parity(pair, salt):
    """Perturbations in {1, 2, 3} make equal escape candidates common
    (the first one wins) and relaxation ties frequent (the chunk hands
    back): on hop-BFS paths, every engine hands back the same tables
    and detours, or raises the same tie - path by path, and for the
    whole batch, which ties exactly when one of its paths does."""
    g, source = pair
    rng = random.Random(salt)
    big = 1 << 16
    weights = [big + rng.randrange(1, 4) for _ in range(g.num_edges)]
    w = WeightAssignment(weights=weights, shift=16, scheme=RANDOM, seed=0)
    parent = PY.parents(g, source)
    paths = []
    for v in sorted(parent):
        path = [v]
        while path[-1] != source:
            path.append(parent[path[-1]])
        paths.append(path[::-1])
    kinds = [run_detours(g, w, [path])[0] for path in paths]
    assert run_detours(g, w, paths)[0] == ("tie" if "tie" in kinds else "ok")


@pytest.mark.parametrize("bad", [-1, 7, 2**70, -2**70])
def test_a_path_outside_the_graph_raises_before_any_kernel(bad, monkeypatch):
    """An id outside ``[0, n)`` - or an empty path - raises GraphError
    on every engine, before the csr engine runs a relaxation or an
    escape pass on the chunk."""
    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran on an invalid chunk")

    for cls in {type(CSR), CSREngine}:
        monkeypatch.setattr(cls, "_weighted_levels", kernel)
        monkeypatch.setattr(cls, "_escape_pass", kernel)
    g, _ = pendant_c6(3)
    w = make_weights(g, RANDOM, seed=0)
    for paths in ([[6, 0], [6, bad, 1]], [[6, 0], [6, bad]], [[6, 0], []]):
        for engine in (PY, CSR, NUMPY_CSR):
            with pytest.raises(GraphError):
                list(engine.batched_shortest_paths(g, w, paths))


@pytest.mark.skipif(
    cbuild.kernel_library() is None, reason="no C kernels: csr runs on numpy"
)
def test_compiled_batch_builds_no_result_lists(monkeypatch):
    """On the C tier the batch reads its tables off the stacked state:
    no search goes through ``assemble_result``."""
    import repro.engine.csr_engine as ce

    def assemble(*args, **kwargs):
        raise AssertionError("a search built its result lists")

    g = gnp_random_graph(60, 0.1, seed=2)
    w = make_weights(g, RANDOM, seed=2)
    tree = build_spt(g, w, 0)
    paths = [tree.path_vertices(v) for v in tree.preorder]
    monkeypatch.setattr(ce, "assemble_result", assemble)
    tables = [esc.escapes for esc in CSR.batched_shortest_paths(g, w, paths)]
    assert tables == [full_search_escapes(g, w, path) for path in paths]


# ----------------------------------------------------------------------
# dense source runs: the C kernel's bottom-up steps
# ----------------------------------------------------------------------
def dense_degenerate(n, p, top, seed, options):
    """A dense G(n, p) whose perturbations are drawn from {1 .. top}, so
    equal candidates and ties are common, a source, and the
    ``shortest_paths`` options that the bits of ``options`` ask for: 1
    targets, 2 banned vertices, 4 banned edges (up to a quarter of
    them, plus one more draw)."""
    rng = random.Random(seed)
    g = gnp_random_graph(n, p, seed=seed)
    m = g.num_edges
    big = 1 << 24
    weights = [big + rng.randint(1, top) for _ in range(m)]
    w = WeightAssignment(weights=weights, shift=24, scheme=RANDOM, seed=0)
    source = rng.randrange(n)
    others = [v for v in range(n) if v != source]
    kwargs = {}
    if options & 1:
        kwargs["targets"] = set(rng.sample(range(n), rng.randint(0, min(n, 4))))
    if options & 2 and others:
        kwargs["banned_vertices"] = set(
            rng.sample(others, rng.randint(1, min(3, len(others))))
        )
    if options & 4 and m:
        kwargs["banned_edges"] = set(rng.sample(range(m), rng.randint(1, max(1, m // 4))))
        kwargs["banned_edges"].add(rng.randrange(m))
    return g, w, source, kwargs


@settings(max_examples=150, **COMMON)
@given(
    st.integers(2, 48),
    st.sampled_from([0.5, 0.7, 0.9]),
    st.sampled_from([3, 49, 999]),
    st.integers(0, 2**16),
    st.integers(0, 7),
)
@example(18, 0.7, 49, 20615, 0)  # a level-3 tie only the settle order meets
@example(30, 0.7, 49, 30655, 7)  # the same, with every option
@example(5, 0.9, 999, 40580, 7)  # a bottom-up level behind banned edges
@example(4, 0.5, 49, 54810, 1)  # a radius at a level bottom-up would take
def test_dense_degenerate_shortest_paths_parity(n, p, top, seed, options):
    """On dense graphs a source run's C levels go bottom-up whenever the
    unvisited vertices have fewer edges than the level's, and each
    replays its candidates in the settle order top-down delivers them
    in.  Equal candidates make that order visible: arrivals (5, 3, 5)
    never tie, (5, 5, 3) do.  So csr must answer outcome for outcome
    what python answers - the same result, or a TieBreakError - with
    and without targets, vertex bans and edge bans."""
    g, w, source, kwargs = dense_degenerate(n, p, top, seed, options)
    run_both("shortest_paths", g, w, source, **kwargs)


def hop_tree_paths(g, source):
    """The paths of a hop-BFS tree from ``source`` (defined whatever
    ties the weights hold)."""
    parent = PY.parents(g, source)
    paths = []
    for v in sorted(parent):
        path = [v]
        while path[-1] != source:
            path.append(parent[path[-1]])
        paths.append(path[::-1])
    return paths


def streamed_detours(engine, g, w, paths):
    """What a batch yields before it ends, and how it ends."""
    found = []
    try:
        for path, esc in zip(paths, engine.batched_shortest_paths(g, w, paths)):
            found.append((esc.escapes, walk_detours(path, esc)))
    except TieBreakError:
        return found, "tie"
    return found, "ok"


@settings(max_examples=40, **COMMON)
@given(
    st.integers(2, 40),
    st.sampled_from([0.5, 0.7, 0.9]),
    st.sampled_from([3, 49, 999]),
    st.integers(0, 2**16),
)
def test_dense_detour_batch_in_one_path_chunks(n, p, top, seed):
    """The detour batch over a dense graph's tree paths yields the same
    searches, and ends the same way, in default chunks and in chunks of
    one path each - where a tie hands back only its own search - on
    every engine."""
    import repro.engine.compiled as compiled
    import repro.engine.csr_engine as ce

    g, w, source, _ = dense_degenerate(n, p, top, seed, 0)
    paths = hop_tree_paths(g, source)
    outcomes = [streamed_detours(e, g, w, paths) for e in (PY, CSR, NUMPY_CSR)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "_DETOUR_STATE", 1)
        mp.setattr(ce, "_STACK_STREAM", 1)
        outcomes += [streamed_detours(e, g, w, paths) for e in (CSR, NUMPY_CSR)]
    assert all(out == outcomes[0] for out in outcomes[1:])


def test_clean_dense_instance_never_hands_back(monkeypatch):
    """Random-scheme perturbations do not tie, so no source run on them
    may hand back: with the reference patched to raise, csr answers
    ``shortest_paths`` (targets and bans included) and the whole detour
    batch itself, equal to the python answers taken first."""
    from repro.engine.python_engine import PythonEngine

    g = gnp_random_graph(90, 0.6, seed=5)
    w = make_weights(g, RANDOM, seed=5)
    tree = build_spt(g, w, 0)
    paths = [tree.path_vertices(v) for v in tree.preorder]
    rng = random.Random(5)
    calls = [(s, {}) for s in (0, 17, 89)] + [
        (s, {
            "targets": set(rng.sample(range(90), 3)),
            "banned_vertices": set(rng.sample(range(1, 90), 2)) - {s},
            "banned_edges": set(rng.sample(range(g.num_edges), 200)),
        })
        for s in (0, 41)
    ]
    expected = [PY.shortest_paths(g, w, s, **kw) for s, kw in calls]
    tables = [esc.escapes for esc in PY.batched_shortest_paths(g, w, paths)]

    def reference(*args, **kwargs):
        raise AssertionError("a clean source run handed back to the reference")

    monkeypatch.setattr(PythonEngine, "shortest_paths", reference)
    for (s, kw), ref in zip(calls, expected):
        assert_same_result(ref, CSR.shortest_paths(g, w, s, **kw))
    assert [esc.escapes for esc in CSR.batched_shortest_paths(g, w, paths)] == tables


def test_detour_targets_are_the_off_path_neighbours():
    """``detour_targets`` names the neighbours of ``u_0 .. u_{k-1}`` off
    the path, and memoizes the neighbour sets it builds."""
    g = grid_graph(3, 3)
    memo = {}
    assert detour_targets(g, [0, 1, 4], memo) == {2, 3}
    assert set(memo) == {0, 1}
    assert detour_targets(g, [4]) == set()


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
    # Counters too: they are part of the deterministic construction record.
    assert ref.stats == fast.stats


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
