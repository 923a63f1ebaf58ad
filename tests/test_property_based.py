"""Cross-cutting property-based tests (hypothesis) over random instances.

These encode the paper's invariants as universally quantified properties
and let hypothesis search for counterexamples.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    build_epsilon_ftbfs,
    build_ftbfs13,
    run_pcons,
    unprotected_edges,
    verify_structure,
    verify_subgraph,
)
from repro.core.interference import InterferenceIndex
from repro.decomposition import decompose_path_edges, heavy_path_decomposition
from repro.spt.bfs import bfs_distances

from tests.conftest import graph_with_source

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=20, **COMMON)
@given(graph_with_source(max_vertices=15), st.floats(0.05, 1.0))
def test_structure_always_verifies(pair, eps):
    """Definition 2.1 holds for every construction output."""
    g, source = pair
    s = build_epsilon_ftbfs(g, source, eps)
    verify_structure(s).raise_if_failed()


@settings(max_examples=20, **COMMON)
@given(graph_with_source(max_vertices=15))
def test_ftbfs13_no_unprotected(pair):
    """The [14] structure leaves nothing unprotected."""
    g, source = pair
    s = build_ftbfs13(g, source)
    assert unprotected_edges(g, source, s.edges) == set()


@settings(max_examples=20, **COMMON)
@given(graph_with_source(max_vertices=15))
def test_reinforced_covers_measured_miss(pair):
    """E' always covers the measured E_miss(H)."""
    g, source = pair
    s = build_epsilon_ftbfs(g, source, 0.2)
    measured = unprotected_edges(g, source, s.edges)
    assert measured <= set(s.reinforced)


@settings(max_examples=20, **COMMON)
@given(graph_with_source(max_vertices=15))
def test_structure_grows_monotone_with_protection(pair):
    """Removing reinforcement (raising eps to 1) never shrinks backup."""
    g, source = pair
    pc = run_pcons(g, source)
    low = build_epsilon_ftbfs(g, source, 0.15, pcons=pc)
    high = build_epsilon_ftbfs(g, source, 1.0, pcons=pc)
    assert high.num_reinforced == 0
    assert low.num_edges <= high.num_edges + low.num_reinforced * 0 + len(
        low.edges
    )  # trivial sanity; the meaty check is below
    # the [14] structure contains the tree and all last edges; the eps
    # structure's edge set minus reinforced tree edges is also contained
    # in it whenever S1/S2 only add last edges of Pcons paths:
    assert low.edges <= high.edges | low.tree_edges


@settings(max_examples=15, **COMMON)
@given(graph_with_source(max_vertices=14))
def test_pcons_pairs_cover_every_tree_edge_vertex_combination(pair):
    g, source = pair
    pc = run_pcons(g, source)
    for v in pc.tree.preorder:
        if v == source:
            continue
        expected = set(pc.tree.path_edges(v))
        got = {rec.eid for rec in pc.pairs.pairs if rec.v == v}
        assert got == expected


@settings(max_examples=15, **COMMON)
@given(graph_with_source(max_vertices=14))
def test_interference_index_consistency(pair):
    g, source = pair
    pc = run_pcons(g, source)
    uncovered = pc.pairs.uncovered()
    index = InterferenceIndex(pc.tree, uncovered)
    for rec in uncovered:
        for z in rec.detour_internal():
            assert rec.pair_id in index.by_vertex[z]


@settings(max_examples=15, **COMMON)
@given(graph_with_source(max_vertices=20))
def test_heavy_path_levels_bound(pair):
    g, source = pair
    tree = run_pcons(g, source).tree
    td = heavy_path_decomposition(tree)
    n = max(tree.num_reachable, 2)
    assert td.num_levels <= math.floor(math.log2(n)) + 1


@settings(max_examples=30, **COMMON)
@given(st.integers(1, 2000))
def test_segments_cover_and_shrink(length):
    segs = decompose_path_edges(length)
    assert sum(s.num_edges for s in segs) == length
    assert len(segs) <= max(1, math.floor(math.log2(length)) + 1)


@settings(max_examples=15, **COMMON)
@given(graph_with_source(max_vertices=14))
def test_verify_subgraph_full_graph(pair):
    """The whole graph with nothing reinforced is always a valid FT-BFS."""
    g, source = pair
    all_edges = [eid for eid, _, _ in g.edges()]
    assert verify_subgraph(g, source, all_edges).ok


@settings(max_examples=15, **COMMON)
@given(graph_with_source(max_vertices=14), st.floats(0.1, 0.45))
def test_backup_edges_never_tree_reinforced_overlap(pair, eps):
    g, source = pair
    s = build_epsilon_ftbfs(g, source, eps)
    assert not (s.backup_edges & s.reinforced)
    assert s.backup_edges | s.reinforced == s.edges


@settings(max_examples=12, **COMMON)
@given(graph_with_source(max_vertices=12))
def test_no_failure_distances_preserved(pair):
    """H always spans the exact BFS distances of G (T0 included)."""
    g, source = pair
    s = build_epsilon_ftbfs(g, source, 0.3)
    assert bfs_distances(g, source, allowed_edges=set(s.edges)) == bfs_distances(
        g, source
    )
