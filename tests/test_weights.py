"""Tests for the tie-breaking weight assignments."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import available_engines, get_engine
from repro.errors import ParameterError
from repro.graphs import (
    complete_graph,
    connected_gnp_graph,
    path_graph,
    random_connected_graph,
)
from repro.spt.spt_tree import build_spt
from repro.spt.weights import AUTO, EXACT, RANDOM, _make_random, make_weights


class TestExactScheme:
    def test_hops_extraction(self):
        g = path_graph(5)
        w = make_weights(g, EXACT)
        total = w.path_weight([0, 1, 2])
        assert w.hops(total) == 3

    def test_perturbations_distinct_powers(self):
        g = complete_graph(5)
        w = make_weights(g, EXACT)
        perts = [w.perturbation(w[e]) for e in range(g.num_edges)]
        assert perts == [1 << e for e in range(g.num_edges)]

    def test_subset_sums_unique(self):
        """Any two distinct edge subsets have distinct perturbation sums."""
        from itertools import combinations

        g = complete_graph(4)
        w = make_weights(g, EXACT)
        seen = set()
        edges = list(range(g.num_edges))
        for r in range(len(edges) + 1):
            for subset in combinations(edges, r):
                s = sum(w.perturbation(w[e]) for e in subset)
                assert s not in seen
                seen.add(s)

    def test_hops_dominate(self):
        """A path with fewer hops always weighs less, whatever the edges."""
        g = complete_graph(6)
        w = make_weights(g, EXACT)
        heaviest_short = max(w[e] for e in range(g.num_edges))
        two_lightest = sorted(w[e] for e in range(g.num_edges))[:2]
        assert heaviest_short < sum(two_lightest)


class TestRandomScheme:
    def test_deterministic_given_seed(self):
        g = complete_graph(6)
        a = make_weights(g, RANDOM, seed=7)
        b = make_weights(g, RANDOM, seed=7)
        assert list(a.weights) == list(b.weights)

    def test_seeds_differ(self):
        g = complete_graph(6)
        a = make_weights(g, RANDOM, seed=7)
        b = make_weights(g, RANDOM, seed=8)
        assert list(a.weights) != list(b.weights)

    def test_reseeded(self):
        g = complete_graph(6)
        a = make_weights(g, RANDOM, seed=7)
        c = a.reseeded(9)
        assert c.scheme == RANDOM
        assert list(c.weights) != list(a.weights)

    def test_exact_cannot_reseed(self):
        g = complete_graph(4)
        w = make_weights(g, EXACT)
        with pytest.raises(ParameterError):
            w.reseeded(3)

    def test_hops_extraction(self):
        g = path_graph(10)
        w = make_weights(g, RANDOM, seed=1)
        total = w.path_weight(list(range(9)))
        assert w.hops(total) == 9

    @pytest.mark.parametrize("seed", [0, 1, 7, 0x9E37, 2**40 + 3])
    @pytest.mark.parametrize("m", [0, 1, 57, 2_000])
    def test_weights_are_a_randrange_draw(self, seed, m):
        """The perturbations are ``randrange(1, 2**44)`` draws from the
        seeded stream, one per edge in id order - the weights every
        seed has always given."""
        rng = random.Random(seed ^ 0xD1F7_55AA_C0FF_EE00)
        expected = [(1 << 63) + rng.randrange(1, 1 << 44) for _ in range(m)]
        w = _make_random(m, seed)
        assert list(w.weights) == expected
        assert (w.shift, w.scheme, w.seed) == (63, RANDOM, seed)

    def test_redraws_like_randrange(self, monkeypatch):
        """A draw of ``2**44 - 1`` is redrawn, as ``randrange`` does."""
        top = (1 << 44) - 1

        class Scripted(random.Random):
            def seed(self, a=None, version=2):
                super().seed(a, version)
                self.script = [top, 5, top, top, 0, 9, top]

            def getrandbits(self, k):
                if self.script:
                    return self.script.pop(0)
                return super().getrandbits(k)

        rng = Scripted(3 ^ 0xD1F7_55AA_C0FF_EE00)
        expected = [(1 << 63) + rng.randrange(1, 1 << 44) for _ in range(6)]
        assert expected[:3] == [(1 << 63) + 6, (1 << 63) + 1, (1 << 63) + 10]
        monkeypatch.setattr(random, "Random", Scripted)
        assert list(_make_random(6, 3).weights) == expected


class TestAuto:
    def test_small_graph_exact(self):
        g = path_graph(10)
        assert make_weights(g, AUTO).scheme == EXACT

    def test_unknown_scheme(self):
        with pytest.raises(ParameterError):
            make_weights(path_graph(3), "bogus")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 40))
def test_random_scheme_weights_positive_and_bounded(seed, n):
    g = random_connected_graph(n, n // 2, seed=seed % 100)
    w = make_weights(g, RANDOM, seed=seed)
    big = w.big
    for e in range(g.num_edges):
        assert big < w[e] < 2 * big
        assert w.hops(w[e]) == 1


class TestPickleHygiene:
    """Memoized numpy exports stay out of pickled state."""

    def test_weights_pickle_excludes_pert_cache(self):
        np = pytest.importorskip("numpy")
        graph = connected_gnp_graph(90, 0.08, seed=7)
        weights = make_weights(graph, "random", seed=11)
        before = len(pickle.dumps(weights))
        assert weights.pert_array() is not None
        assert len(pickle.dumps(weights)) == before
        clone = pickle.loads(pickle.dumps(weights))
        assert clone._pert_cache is None
        assert list(clone.weights) == list(weights.weights)
        assert np.array_equal(clone.pert_array()[0], weights.pert_array()[0])
        assert clone.pert_array()[1] == weights.pert_array()[1]

    def test_exact_weights_pickle_stable_too(self):
        graph = connected_gnp_graph(30, 0.2, seed=2)
        weights = make_weights(graph, "exact")
        before = len(pickle.dumps(weights))
        weights.pert_array()  # memoizes the "unsupported" marker
        assert len(pickle.dumps(weights)) == before

    def test_tree_pickle_carries_no_memoized_arrays(self):
        """Audit: the SPT memoizes no engine exports; running the csr
        weighted sweep over it (which exports graph CSR + perturbation
        arrays) must not grow its pickle."""
        graph = connected_gnp_graph(90, 0.08, seed=7)
        weights = make_weights(graph, "random", seed=3)
        tree = build_spt(graph, weights, 0)
        before = len(pickle.dumps(tree))
        if "csr" in available_engines():
            list(get_engine("csr").weighted_failure_sweep(graph, weights, tree))
        assert len(pickle.dumps(tree)) == before
