"""Tests for detour interference (Eq. 1), ~ classification, pi-intersection."""

import pytest

from repro.core.interference import InterferenceIndex, census
from repro.core.pcons import run_pcons
from repro.graphs import gnp_random_graph, grid_graph
from repro.lower_bounds import build_theorem51


def build_index(graph, source=0):
    pc = run_pcons(graph, source)
    uncovered = pc.pairs.uncovered()
    return pc, InterferenceIndex(pc.tree, uncovered)


@pytest.fixture(scope="module")
def gadget_index():
    lb = build_theorem51(100, 0.3, d=8, k=2, x_size=4)
    pc, index = build_index(lb.graph, lb.source)
    return lb, pc, index


class TestInterferes:
    def test_symmetric(self, gadget_index):
        _, pc, index = gadget_index
        pairs = index.pairs
        for a in pairs[:20]:
            for b in pairs[:20]:
                assert index.interferes(a, b) == index.interferes(b, a)

    def test_same_terminal_never_interferes(self, gadget_index):
        _, pc, index = gadget_index
        by_v = {}
        for rec in index.pairs:
            by_v.setdefault(rec.v, []).append(rec)
        for recs in by_v.values():
            for i in range(min(len(recs), 5)):
                for j in range(i + 1, min(len(recs), 5)):
                    assert not index.interferes(recs[i], recs[j])

    def test_matches_bruteforce_definition(self, gadget_index):
        """Eq. 1: shared vertex outside {d(P), d(P'), v, t}."""
        _, pc, index = gadget_index
        pairs = index.pairs[:40]
        for a in pairs:
            for b in pairs:
                if a.pair_id >= b.pair_id:
                    continue
                if a.v == b.v:
                    continue
                excluded = {a.divergence, b.divergence, a.v, b.v}
                shared = (set(a.detour) & set(b.detour)) - excluded
                assert index.interferes(a, b) == bool(shared), (a.key(), b.key())

    def test_gadget_same_ladder_interferes(self, gadget_index):
        """Two X-terminals protected via the same ladder share its interior."""
        lb, pc, index = gadget_index
        copy = lb.copies[0]
        x1, x2 = copy.x_vertices[0], copy.x_vertices[1]
        eid = copy.pi_edge_ids[0]  # deep ladder -> long shared interior
        a = pc.pairs.get(x1, eid)
        b = pc.pairs.get(x2, eid)
        relevant = [r for r in (a, b) if r is not None and r.uncovered]
        if len(relevant) == 2:
            assert index.interferes(relevant[0], relevant[1])


class TestSimilarity:
    def test_same_copy_edges_similar(self, gadget_index):
        lb, pc, index = gadget_index
        copy = lb.copies[0]
        recs = [r for r in index.pairs if r.eid in set(copy.pi_edge_ids)]
        # all failing edges on one pi_i path: pairwise similar
        for i in range(min(len(recs), 6)):
            for j in range(i + 1, min(len(recs), 6)):
                assert index.similar(recs[i], recs[j])

    def test_cross_copy_edges_not_similar(self, gadget_index):
        lb, pc, index = gadget_index
        set0 = set(lb.copies[0].pi_edge_ids)
        set1 = set(lb.copies[1].pi_edge_ids)
        rec0 = next((r for r in index.pairs if r.eid in set0), None)
        rec1 = next((r for r in index.pairs if r.eid in set1), None)
        if rec0 and rec1:
            assert not index.similar(rec0, rec1)


class TestQueries:
    def test_i1_membership_consistent_with_partners(self, gadget_index):
        _, pc, index = gadget_index
        for rec in index.pairs:
            partners = list(index.nonsim_partners(rec))
            assert index.has_nonsim_interference(rec) == bool(partners)
            for q in partners:
                assert q.v != rec.v
                assert not index.similar(rec, q)
                assert index.interferes(rec, q)

    def test_exists_live_partner_subset_monotone(self, gadget_index):
        _, pc, index = gadget_index
        all_ids = {p.pair_id for p in index.pairs}
        for rec in index.pairs[:30]:
            full = index.exists_live_partner(rec, all_ids, require_pi_intersect=False)
            empty = index.exists_live_partner(rec, set(), require_pi_intersect=False)
            assert not empty
            if not full:
                assert not index.has_nonsim_interference(rec)

    def test_pi_intersect_cached_and_consistent(self, gadget_index):
        _, pc, index = gadget_index
        tree = index.tree
        for rec in index.pairs[:25]:
            for q in index.pairs[:10]:
                if q.v == rec.v:
                    continue
                got = index.pi_intersects(rec, q.v)
                # brute force: detour vertex on pi(LCA, t) excluding LCA
                w = tree.lca(rec.v, q.v)
                expected = any(
                    tree.is_ancestor(z, q.v) and tree.depth[z] > tree.depth[w]
                    for z in rec.detour
                )
                assert got == expected
                assert index.pi_intersects(rec, q.v) == got  # cache idempotent


class TestIntervalForm:
    """The LCA-free pi test the csr kernel runs: some *internal* detour
    vertex ``z`` is an ancestor of ``t`` (``tin[z] <= tin[t] < tout[z]``).
    Exact because Pcons's detours avoid ``pi(s, v)`` internally."""

    @staticmethod
    def interval_form(index, rec, t):
        tin, tout = index.tree.tin, index.tree.tout
        return any(tin[z] <= tin[t] < tout[z] for z in index.internal[rec.pair_id])

    @pytest.mark.parametrize(
        "graph_source",
        [
            "gadget",
            lambda: (gnp_random_graph(60, 0.08, seed=11), 0),
            lambda: (grid_graph(5, 7), 0),
            lambda: (build_theorem51(300, 0.2, d=10, k=3, x_size=8).graph, 0),
        ],
    )
    def test_equals_pi_intersects_on_every_nonsim_partner(
        self, gadget_index, graph_source
    ):
        if graph_source == "gadget":
            index = gadget_index[2]
        else:
            index = build_index(*graph_source())[1]
        checks = 0
        for rec in index.pairs:
            assert not any(
                index.tree.is_ancestor(z, rec.v) for z in index.internal[rec.pair_id]
            ), "an internal detour vertex lies on pi(s, v)"
            for q in index.nonsim_partners(rec):
                assert self.interval_form(index, rec, q.v) == index.pi_intersects(
                    rec, q.v
                ), (rec.key(), q.key())
                checks += 1
        assert checks > 0


class TestCensus:
    def test_counts_consistent(self, gadget_index):
        _, pc, index = gadget_index
        c = census(index)
        assert c.num_uncovered == len(index.pairs)
        assert c.num_interfering_pairs == c.num_sim_pairs + c.num_nonsim_pairs
        assert c.num_i1 + c.num_i2 == c.num_uncovered

    def test_gnp_census_runs(self):
        g = gnp_random_graph(40, 0.12, seed=3)
        pc, index = build_index(g)
        c = census(index)
        assert c.num_uncovered >= 0
