"""Tests for Algorithm Pcons: the paper's Claims 4.3-4.6 made executable."""

import dataclasses

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.engine import available_engines, cbuild, engine_context, get_engine
from repro.engine.base import detour_targets
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    barbell_graph,
    binary_tree_graph,
    broom_graph,
    caterpillar_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    join_with_edges,
    lollipop_graph,
    path_graph,
    star_graph,
    to_networkx,
    torus_graph,
)
from repro.core.pcons import run_pcons
from repro.harness.workloads import workload
from repro.spt.weights import EXACT, RANDOM

from tests.conftest import graph_with_source, random_connected_instance


class TestPairEnumeration:
    def test_pair_count_is_sum_of_depths(self):
        g = grid_graph(3, 3)
        pc = run_pcons(g, 0)
        expected = sum(pc.tree.depth[v] for v in g.vertices() if pc.tree.depth[v] > 0)
        assert len(pc.pairs) == expected

    def test_every_pair_edge_on_path(self):
        g = gnp_random_graph(20, 0.2, seed=1)
        pc = run_pcons(g, 0)
        for rec in pc.pairs:
            assert pc.tree.edge_on_path(rec.eid, rec.v)
            assert rec.edge_depth == pc.tree.edge_depth(rec.eid)
            assert rec.dist_to_v == pc.tree.depth[rec.v] - rec.edge_depth

    def test_lookup(self):
        g = cycle_graph(6)
        pc = run_pcons(g, 0)
        rec = pc.pairs.get(3, pc.tree.parent_eid[3])
        assert rec is not None and rec.v == 3

    def test_stats_partition(self):
        g = gnp_random_graph(30, 0.15, seed=2)
        pc = run_pcons(g, 0)
        s = pc.stats
        assert s.num_pairs == s.num_covered + s.num_uncovered + s.num_disconnected
        assert s.num_pairs == len(pc.pairs)

    def test_replacement_counters_wired(self):
        """One detour Dijkstra per vertex with uncovered pairs."""
        g = gnp_random_graph(30, 0.15, seed=2)
        pc = run_pcons(g, 0)
        s = pc.stats
        uncovered_vertices = {r.v for r in pc.pairs.uncovered()}
        assert s.num_detour_dijkstras == len(uncovered_vertices)


class TestReplacementDistance:
    """Lemma 4.3: the Pcons path is a true replacement path."""

    @pytest.mark.parametrize("seed", range(6))
    def test_distances_match_networkx(self, seed):
        g = gnp_random_graph(18, 0.25, seed=seed)
        pc = run_pcons(g, 0)
        nx_g = to_networkx(g)
        for rec in pc.pairs:
            u, v = g.endpoints(rec.eid)
            sub = nx_g.copy()
            sub.remove_edge(u, v)
            try:
                expected = nx.shortest_path_length(sub, 0, rec.v)
            except nx.NetworkXNoPath:
                expected = None
            if expected is None:
                assert rec.disconnected
            else:
                assert pc.weights.hops(rec.new_dist) == expected


class TestCoveredPairs:
    def test_covered_last_edge_in_tree(self):
        g = gnp_random_graph(25, 0.25, seed=4)
        pc = run_pcons(g, 0)
        covered = [r for r in pc.pairs if r.covered]
        assert covered, "expected at least one covered pair on a dense graph"
        for rec in covered:
            assert pc.tree.is_tree_edge(rec.last_eid)
            assert rec.v in pc.graph.endpoints(rec.last_eid)

    def test_covered_definition_via_bruteforce(self):
        """Covered <=> some replacement path's last edge is a tree edge
        incident to v achieving the replacement distance."""
        for seed in range(4):
            g, source = random_connected_instance(seed, 8, 18)
            pc = run_pcons(g, source)
            nx_g = to_networkx(g)
            for rec in pc.pairs:
                if rec.disconnected:
                    continue
                u, v = g.endpoints(rec.eid)
                sub = nx_g.copy()
                sub.remove_edge(u, v)
                dist = nx.single_source_shortest_path_length(sub, source)
                target = dist[rec.v]
                tree_nbrs = [pc.tree.parent[rec.v]] + list(pc.tree.children[rec.v])
                exists = False
                for w in tree_nbrs:
                    eid2 = (
                        pc.tree.parent_eid[rec.v]
                        if w == pc.tree.parent[rec.v]
                        else pc.tree.parent_eid[w]
                    )
                    if eid2 == rec.eid:
                        continue
                    if w in dist and dist[w] + 1 == target:
                        # need a w-path avoiding v; in unweighted graphs
                        # dist[w] < dist[v] ensures it
                        exists = True
                        break
                assert exists == rec.covered, (seed, rec.v, rec.eid)


class TestUncoveredPairs:
    """Observation 3.2 and Claims 4.4-4.6."""

    def _uncovered(self, seed=3, n=25, p=0.18):
        g = gnp_random_graph(n, p, seed=seed)
        pc = run_pcons(g, 0)
        return g, pc, [r for r in pc.pairs if r.uncovered]

    def test_new_ending(self):
        g, pc, uncovered = self._uncovered()
        assert uncovered
        for rec in uncovered:
            assert not pc.tree.is_tree_edge(rec.last_eid)

    def test_obs_32_detour_disjoint_from_path(self):
        """D(P) meets pi(s, v) only at d(P) and v."""
        g, pc, uncovered = self._uncovered()
        for rec in uncovered:
            path = set(pc.tree.path_vertices(rec.v))
            detour = rec.detour
            assert detour[0] == rec.divergence
            assert detour[-1] == rec.v
            for z in detour[1:-1]:
                assert z not in path

    def test_detour_is_real_path(self):
        g, pc, uncovered = self._uncovered()
        for rec in uncovered:
            for a, b in zip(rec.detour, rec.detour[1:]):
                assert g.has_edge(a, b)
            # last edge id matches the final hop
            assert set(g.endpoints(rec.last_eid)) == {rec.detour[-2], rec.v}

    def test_path_length_achieves_replacement_distance(self):
        g, pc, uncovered = self._uncovered()
        for rec in uncovered:
            total = rec.div_index + (len(rec.detour) - 1)
            assert total == pc.weights.hops(rec.new_dist)

    def test_claim_44_divergence_is_minimal(self):
        """No replacement path with a single divergence point strictly
        above d(P) achieves the replacement distance (hop version)."""
        g, pc, uncovered = self._uncovered(seed=6, n=20, p=0.2)
        nx_g = to_networkx(g)
        for rec in uncovered[:40]:
            path = pc.tree.path_vertices(rec.v)
            target = pc.weights.hops(rec.new_dist)
            for j in range(rec.div_index):
                # paths through divergence u_j: prefix j + detour avoiding
                # all other path vertices
                banned = set(path) - {path[j], rec.v}
                sub = nx_g.copy()
                sub.remove_nodes_from(banned - {path[j], rec.v})
                sub.remove_nodes_from(banned)
                try:
                    detour_len = nx.shortest_path_length(sub, path[j], rec.v)
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    continue
                assert j + detour_len > target, (
                    f"divergence {j} beats chosen {rec.div_index}"
                )

    @staticmethod
    def _gadget_uncovered():
        """A deep gadget guaranteeing many uncovered pairs per terminal."""
        from repro.lower_bounds import build_theorem51

        lb = build_theorem51(100, 0.3, d=8, k=1, x_size=4)
        pc = run_pcons(lb.graph, lb.source)
        return lb.graph, pc, [r for r in pc.pairs if r.uncovered]

    def test_claim_46_same_vertex_detours_disjoint(self):
        """Detours of one terminal with distinct last edges share only v."""
        g, pc, uncovered = self._gadget_uncovered()
        by_v = {}
        for rec in uncovered:
            by_v.setdefault(rec.v, []).append(rec)
        checked = 0
        for v, recs in by_v.items():
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    a, b = recs[i], recs[j]
                    if a.last_eid == b.last_eid:
                        continue
                    inner_a = set(a.detour) - {a.divergence, v}
                    inner_b = set(b.detour) - {b.divergence, v}
                    assert not (inner_a & inner_b), (v, a.eid, b.eid)
                    checked += 1
        assert checked > 0

    def test_claim_45_divergence_between_failures(self):
        """For nested failures with distinct last edges, the deeper
        failure's divergence sits below the shallower failed edge."""
        g, pc, uncovered = self._gadget_uncovered()
        by_v = {}
        for rec in uncovered:
            by_v.setdefault(rec.v, []).append(rec)
        checked = 0
        for v, recs in by_v.items():
            recs.sort(key=lambda r: r.edge_depth)
            for i in range(len(recs)):
                for j in range(i + 1, len(recs)):
                    shallow, deep = recs[i], recs[j]
                    if shallow.last_eid == deep.last_eid:
                        continue
                    # d(P_deep) must be at or below the shallow failed edge's
                    # child (Claim 4.5: in pi(y_i1, x_i2))
                    assert deep.div_index >= shallow.edge_depth, (
                        v, shallow.eid, deep.eid,
                    )
                    checked += 1
        assert checked > 0


class TestDegenerateGraphs:
    def test_tree_graph_all_disconnected(self):
        g = path_graph(6)
        pc = run_pcons(g, 0)
        assert all(r.disconnected for r in pc.pairs)

    def test_complete_graph_all_covered_or_short(self):
        g = complete_graph(6)
        pc = run_pcons(g, 0)
        for rec in pc.pairs:
            assert not rec.disconnected

    def test_single_vertex(self):
        g = Graph(1)
        pc = run_pcons(g, 0)
        assert len(pc.pairs) == 0

    def test_two_vertices(self):
        g = path_graph(2)
        pc = run_pcons(g, 0)
        assert len(pc.pairs) == 1
        assert pc.pairs.pairs[0].disconnected


@settings(max_examples=20, deadline=None)
@given(graph_with_source(max_vertices=18))
def test_pcons_invariants_random(pair):
    g, source = pair
    pc = run_pcons(g, source)
    for rec in pc.pairs:
        if rec.disconnected:
            assert rec.new_dist is None
            continue
        assert rec.new_dist is not None
        # replacement never shorter than original
        assert rec.new_dist >= pc.tree.dist[rec.v]
        assert rec.last_eid is not None
        if rec.uncovered:
            assert rec.detour is not None and len(rec.detour) >= 2
            assert rec.divergence == rec.detour[0]
            assert 0 <= rec.div_index < rec.edge_depth or rec.div_index < pc.tree.depth[rec.v]


# ----------------------------------------------------------------------
# the detour fill against full detour searches
# ----------------------------------------------------------------------
def reference_fill(tree, weights, v, path, pending, sp):
    """Pcons's detour fill as it ran before its searches stopped at
    their targets' radius: big-int ``dist`` reads over a full search
    from ``v``.  Sets the detour fields of ``v``'s uncovered pairs."""
    graph, w_arr, shift = tree.graph, weights.weights, weights.shift
    k = len(path) - 1
    on_path = set(path)
    delta = [None] * k
    for j in range(k):
        best = None
        for w, eid in graph.adjacency(path[j]):
            if w == v:
                if eid == tree.parent_eid[v]:
                    continue
                cand = w_arr[eid]
            elif w in on_path or sp.dist[w] is None:
                continue
            else:
                cand = w_arr[eid] + sp.dist[w]
            if best is None or cand < best[0]:
                best = (cand, w, eid)
        delta[j] = best
    by_index = {rec.edge_depth - 1: rec for rec in pending}
    best_hops, best_j = None, -1
    for i in range(k):
        if delta[i] is not None:
            hops = (tree.dist[path[i]] + delta[i][0]) >> shift
            if best_hops is None or hops < best_hops:
                best_hops, best_j = hops, i
        rec = by_index.get(i)
        if rec is None:
            continue
        assert best_hops == rec.new_dist >> shift
        _, w_star, eid = delta[best_j]
        chain = [w_star]
        while chain[-1] != v:
            chain.append(sp.parent[chain[-1]])
        rec.div_index, rec.divergence = best_j, path[best_j]
        rec.detour = (path[best_j], *chain)
        rec.last_eid = eid if len(chain) == 1 else sp.parent_eid[chain[-2]]


def reference_pairs(pc):
    """``pc``'s pair records with every uncovered pair's detour redone
    by :func:`reference_fill` over full searches on the python spec."""
    records = [dataclasses.replace(rec) for rec in pc.pairs]
    pending = {}
    for rec in records:
        if rec.uncovered:
            rec.last_eid = rec.divergence = rec.div_index = rec.detour = None
            pending.setdefault(rec.v, []).append(rec)
    spec = get_engine("python")
    for v, recs in pending.items():
        path = pc.tree.path_vertices(v)
        sp = spec.shortest_paths(
            pc.graph, pc.weights, v, banned_vertices=set(path) - {v}
        )
        reference_fill(pc.tree, pc.weights, v, path, recs, sp)
    return records


def source_first(graph, source):
    """``graph`` with its vertex ids reversed when ``source`` is the
    last one, so that the source is vertex 0."""
    n = graph.num_vertices
    assert source in (0, n - 1)
    if source == 0:
        return graph
    return Graph(n, [(n - 1 - u, n - 1 - v) for u, v in graph.edge_list()])


#: Sourced at vertex 0.  The last four bind the two sides of each
#: detour search's stop rule: on the dense ``gnp`` and on
#: ``barabasi-albert`` the hop cap of a vertex's pairs comes before its
#: targets' radius, on the long-stick ``lollipop`` (sourced at the end
#: of the stick) and on ``clique-bridge`` the targets' radius comes
#: first.
FAMILIES = {
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
    "disjoint-union": disjoint_union([cycle_graph(6), grid_graph(3, 4)])[0],
    "joined": join_with_edges(
        [grid_graph(3, 4), cycle_graph(8)], [((0, 11), (1, 0)), ((0, 5), (1, 4))]
    )[0],
    "gnp": gnp_random_graph(40, 0.12, seed=7),
    "gnp-dense": gnp_random_graph(120, 0.15, seed=5),
    "barabasi-albert": barabasi_albert_graph(150, 4, seed=2),
    "lollipop-long-stick": source_first(*workload("lollipop", n=48)),
    "clique-bridge": source_first(*workload("clique_bridge", n=30)),
}

#: Which bound of the stop rule comes first on some detour search of
#: the family (``test_families_bind_both_sides_of_the_min``).
BINDING_SIDE = {
    "gnp-dense": "cap",
    "barabasi-albert": "cap",
    "lollipop-long-stick": "targets",
    "clique-bridge": "targets",
}

ENGINES = [
    "python",
    pytest.param("csr", marks=pytest.mark.skipif(
        "csr" not in available_engines(), reason="csr needs numpy")),
    pytest.param("csr-numpy", marks=pytest.mark.skipif(
        "csr" not in available_engines(), reason="csr needs numpy")),
]


def pcons_on(engine, monkeypatch, graph, scheme):
    """``run_pcons`` from vertex 0 on ``engine``; ``csr-numpy`` is csr
    with its C kernels gated out (``REPRO_CC=0``)."""
    if engine == "csr-numpy":
        monkeypatch.setenv(cbuild.CC_ENV_VAR, "0")
        engine = "csr"
    with engine_context(engine):
        return run_pcons(graph, 0, weight_scheme=scheme, seed=3)


def detour_caps(pc):
    """``{v: max_i h_i - 1}`` over each vertex's uncovered pairs: the
    hop cap of ``v``'s detour search."""
    caps = {}
    for rec in pc.pairs:
        if rec.uncovered:
            need = pc.weights.hops(rec.new_dist) - 1
            caps[rec.v] = max(caps.get(rec.v, need), need)
    return caps


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", [EXACT, RANDOM])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_detours_equal_full_search_reference(family, scheme, engine, monkeypatch):
    """Detour searches cut at the smaller of their targets' radius and
    their pairs' hop cap change no pair record: every family, both
    weight schemes, on the spec, on the C tier and on the numpy tier."""
    pc = pcons_on(engine, monkeypatch, FAMILIES[family], scheme)
    assert pc.pairs.pairs == reference_pairs(pc)
    assert pc.stats.total_detour_length == sum(
        len(rec.detour) - 1 for rec in pc.pairs if rec.uncovered
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", ["gnp-dense", "clique-bridge", "grid"])
def test_every_detour_search_is_capped_at_its_pairs_hop(
    family, engine, monkeypatch
):
    """Pcons hands each detour search exactly ``max_i h_i - 1`` as its
    cap - ``h_i`` the hop length of the vertex's uncovered pairs - with
    the vertex's T0 path, one search per vertex."""
    seen = []
    cls = type(get_engine("python" if engine == "python" else "csr"))
    batch = cls.batched_shortest_paths

    def spy(self, graph, weights, searches):
        searches = list(searches)
        seen.extend(searches)
        return batch(self, graph, weights, searches)

    monkeypatch.setattr(cls, "batched_shortest_paths", spy)
    pc = pcons_on(engine, monkeypatch, FAMILIES[family], RANDOM)
    caps = detour_caps(pc)
    assert caps
    assert sorted(seen) == sorted(
        (pc.tree.path_vertices(v), cap) for v, cap in caps.items()
    )


@pytest.mark.parametrize("family", sorted(BINDING_SIDE))
def test_families_bind_both_sides_of_the_min(family):
    """On some detour search of each of these families the named bound
    is strictly the smaller: the hop cap on the dense ones, the
    targets' radius on the long-stick lollipop and the clique behind a
    bridge - so the reference comparison above covers both sides."""
    graph = FAMILIES[family]
    pc = run_pcons(graph, 0, weight_scheme=RANDOM, seed=3)
    spec = get_engine("python")
    sides = set()
    for v, cap in detour_caps(pc).items():
        path = pc.tree.path_vertices(v)
        full = spec.shortest_paths(
            graph, pc.weights, v, banned_vertices=set(path[:-1])
        )
        hops = [full.dist[t] for t in detour_targets(graph, path)]
        if None in hops:
            continue  # an unlabeled target: only the cap bounds the search
        radius = max((d >> pc.weights.shift for d in hops), default=0)
        if cap != radius:
            sides.add("cap" if cap < radius else "targets")
    assert BINDING_SIDE[family] in sides
