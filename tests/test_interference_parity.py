"""Phase S1's interference existence queries: the engines against the spec.

``TraversalEngine.exists_live_partners`` answers, per pair id, whether
some allowed partner passes ``InterferenceIndex.exists_live_partner``
(the spec).  The python engine loops over the spec; the csr engine runs
one C scan per call when its kernels load (an Euler-interval pi test
instead of the spec's LCA).  The bar is the usual one: the same flags on
every input, and therefore the same Phase S1 output - ``I_2``, the
C-sets in order, the added edges and the iteration log - and the same
structures, in-process and in a ``REPRO_CC=0`` subprocess.
"""

import dataclasses
import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")  # the csr engine is numpy-gated

from repro.core.interference import InterferenceIndex
from repro.core.pcons import run_pcons
from repro.core.phase_s1 import run_phase_s1
from repro.engine import engine_context, get_engine
from repro.engine import cbuild
from repro.errors import GraphError
from repro.graphs import (
    barbell_graph,
    connected_gnp_graph,
    disjoint_union,
    grid_graph,
    path_graph,
    random_geometric_graph,
    torus_graph,
    watts_strogatz_graph,
)
from repro.lower_bounds import build_theorem51

from tests.test_engine_compiled import _run_py

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

requires_kernels = pytest.mark.skipif(
    cbuild.kernel_library() is None,
    reason="no C kernels: csr answers with the spec",
)

FAMILIES = (
    "gnp", "watts_strogatz", "geometric", "grid", "torus", "barbell", "gadget",
)


def family_instance(family: str, seed: int):
    """``(graph, source, weight_scheme)`` for one seeded member of a family.

    The tie-heavy lattices and the barbell run under the random scheme;
    the rest under ``auto`` (exact weights at these sizes)."""
    rng = random.Random(seed)
    if family == "gnp":
        n = rng.randint(12, 40)
        return connected_gnp_graph(n, 4.0 / n, seed=seed), 0, "auto"
    if family == "watts_strogatz":
        n = rng.randint(12, 40)
        return watts_strogatz_graph(n, 4, 0.3, seed=seed), 0, "auto"
    if family == "geometric":  # often disconnected: unreached vertices
        return random_geometric_graph(rng.randint(12, 40), 0.35, seed=seed), 0, "auto"
    if family == "grid":
        return grid_graph(rng.randint(2, 6), rng.randint(3, 7)), 0, "random"
    if family == "torus":
        return torus_graph(rng.randint(3, 6), rng.randint(3, 6)), 0, "random"
    if family == "barbell":
        return barbell_graph(rng.randint(3, 6), rng.randint(1, 5)), 0, "random"
    lb = build_theorem51(
        100, 0.3,
        d=rng.randint(3, 8), k=rng.randint(1, 3), x_size=rng.randint(2, 5),
    )
    return lb.graph, lb.source, "auto"


def index_of(graph, source, scheme="auto", seed=0):
    pc = run_pcons(graph, source, weight_scheme=scheme, seed=seed)
    uncovered = pc.pairs.uncovered()
    return pc, uncovered, InterferenceIndex(pc.tree, uncovered)


def spec_flags(index, ids, allowed, require_pi):
    return [
        index.exists_live_partner(
            index.by_id[pid], allowed, require_pi_intersect=require_pi
        )
        for pid in ids
    ]


def s1_output(index, uncovered, pc, n_eps, k_bound):
    """Everything ``run_phase_s1`` decides, as comparable plain data."""
    edges = set(pc.tree.tree_edges())
    s1 = run_phase_s1(
        index, uncovered, n_eps=n_eps, k_bound=k_bound, structure_edges=edges
    )
    return {
        "i2": [rec.pair_id for rec in s1.i2],
        "c_sets": [[rec.pair_id for rec in c] for c in s1.c_sets],
        "added": sorted(s1.added_edges),
        "log": s1.iteration_log,
        "iterations": s1.iterations,
        "cap": (s1.cap_hit, s1.forced_pairs),
        "edges": sorted(edges),
    }


@pytest.fixture(scope="module")
def gadget():
    lb = build_theorem51(300, 0.2, d=10, k=3, x_size=8)
    return lb, *index_of(lb.graph, lb.source)


# ----------------------------------------------------------------------
# flags: every engine against the spec
# ----------------------------------------------------------------------
class TestFlags:
    @settings(max_examples=40, **COMMON)
    @given(st.sampled_from(FAMILIES), st.integers(0, 10**6))
    def test_kernel_equals_spec_on_random_allowed_sets(self, family, seed):
        graph, source, scheme = family_instance(family, seed)
        _, uncovered, index = index_of(graph, source, scheme, seed)
        rng = random.Random(seed)
        ids = [rec.pair_id for rec in uncovered]
        rng.shuffle(ids)
        queries = ids[: rng.randint(0, len(ids))]
        allowed = {pid for pid in ids if rng.random() < rng.random()}
        for require_pi in (True, False):
            want = spec_flags(index, queries, allowed, require_pi)
            for name in ("python", "csr"):
                got = get_engine(name).exists_live_partners(
                    index, queries, allowed, require_pi_intersect=require_pi
                )
                assert got == want, (family, seed, name, require_pi)

    def test_gadget_every_pair_every_pass(self, gadget):
        """The three calls Phase S1 makes, on the whole gadget."""
        _, _, uncovered, index = gadget
        ids = [rec.pair_id for rec in uncovered]
        everyone = set(ids)
        csr = get_engine("csr")
        split = csr.exists_live_partners(
            index, ids, everyone, require_pi_intersect=False
        )
        assert split == [index.has_nonsim_interference(r) for r in uncovered]
        live = {pid for pid, f in zip(ids, split) if f}
        a = csr.exists_live_partners(index, ids, live, require_pi_intersect=True)
        assert a == spec_flags(index, ids, live, True)
        assert any(a) and not all(a)
        non_a = live - {pid for pid, f in zip(ids, a) if f}
        b = csr.exists_live_partners(index, ids, non_a, require_pi_intersect=False)
        assert b == spec_flags(index, ids, non_a, False)

    @requires_kernels
    def test_csr_answers_without_the_spec(self, gadget, monkeypatch):
        """With its kernels loaded, csr never calls the interpreted query
        (nor, through it, pi_intersects or the LCA)."""
        _, _, uncovered, index = gadget

        def banned(*args, **kwargs):
            raise AssertionError("interpreted spec reached")

        monkeypatch.setattr(InterferenceIndex, "exists_live_partner", banned)
        monkeypatch.setattr(InterferenceIndex, "pi_intersects", banned)
        ids = [rec.pair_id for rec in uncovered]
        csr = get_engine("csr")
        flags = csr.exists_live_partners(
            index, ids, set(ids), require_pi_intersect=True
        )
        assert any(flags)
        arrays = index._kernel_cache  # built once per index
        csr.exists_live_partners(index, ids, set(), require_pi_intersect=False)
        assert index._kernel_cache is arrays

    @requires_kernels
    def test_vertex_outside_the_tree_raises(self, gadget):
        """Ids go to C as raw offsets, so they are bounds-checked first."""
        lb, pc, uncovered, _ = gadget
        n = lb.graph.num_vertices
        rec = uncovered[0]
        bad = dataclasses.replace(rec, detour=(rec.divergence, n, rec.v))
        index = InterferenceIndex(pc.tree, [bad, *uncovered[1:]])
        with pytest.raises(GraphError, match="outside the tree"):
            get_engine("csr").exists_live_partners(
                index, [rec.pair_id], set(), require_pi_intersect=False
            )

    def test_unknown_pair_id_raises(self, gadget):
        _, _, _, index = gadget
        missing = max(index.by_id) + 1
        for name in ("python", "csr"):
            with pytest.raises(KeyError):
                get_engine(name).exists_live_partners(
                    index, [missing], set(), require_pi_intersect=False
                )


# ----------------------------------------------------------------------
# degenerate inputs
# ----------------------------------------------------------------------
class TestDegenerate:
    def test_no_uncovered_pairs(self):
        """On a tree every failure disconnects: no uncovered pair."""
        pc, uncovered, index = index_of(path_graph(8), 0)
        assert uncovered == [] and pc.pairs.pairs
        for name in ("python", "csr"):
            assert get_engine(name).exists_live_partners(
                index, [], set(), require_pi_intersect=True
            ) == []
            with engine_context(name):
                out = s1_output(index, uncovered, pc, 2, 5)
            assert out["i2"] == [] and out["c_sets"] == [] and out["added"] == []
            assert out["iterations"] == 0

    def test_empty_allowed_set(self, gadget):
        _, _, uncovered, index = gadget
        ids = [rec.pair_id for rec in uncovered]
        for name in ("python", "csr"):
            for require_pi in (True, False):
                assert get_engine(name).exists_live_partners(
                    index, ids, set(), require_pi_intersect=require_pi
                ) == [False] * len(ids)

    def test_detours_without_internal_vertices(self, gadget):
        """Pairs whose detour is a direct ``(u_j, v)`` edge have no
        internal vertex: never a partner, never in ``I_1``."""
        lb, pc, uncovered, _ = gadget
        rng = random.Random(7)
        direct = {rec.pair_id for rec in uncovered if rng.random() < 0.3}
        pairs = [
            dataclasses.replace(rec, detour=(rec.divergence, rec.v))
            if rec.pair_id in direct else rec
            for rec in uncovered
        ]
        index = InterferenceIndex(pc.tree, pairs)
        ids = [rec.pair_id for rec in pairs]
        for require_pi in (True, False):
            want = spec_flags(index, ids, set(ids), require_pi)
            assert not any(f for pid, f in zip(ids, want) if pid in direct)
            got = get_engine("csr").exists_live_partners(
                index, ids, set(ids), require_pi_intersect=require_pi
            )
            assert got == want
        outs = []
        for name in ("python", "csr"):
            with engine_context(name):
                outs.append(s1_output(index, pairs, pc, 3, 7))
        assert outs[0] == outs[1]
        assert direct <= set(outs[0]["i2"])

    def test_disconnected_graph(self):
        """Vertices outside the source's component keep tin = tout = -1."""
        parts, _ = disjoint_union(
            [connected_gnp_graph(30, 0.15, seed=4), connected_gnp_graph(20, 0.2, seed=5)]
        )
        pc, uncovered, index = index_of(parts, 0)
        assert pc.tree.num_reachable < parts.num_vertices and uncovered
        ids = [rec.pair_id for rec in uncovered]
        for require_pi in (True, False):
            assert get_engine("csr").exists_live_partners(
                index, ids, set(ids), require_pi_intersect=require_pi
            ) == spec_flags(index, ids, set(ids), require_pi)


# ----------------------------------------------------------------------
# Phase S1 and whole builds
# ----------------------------------------------------------------------
class TestPhaseS1Parity:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_engine_matches_python(self, family, seed):
        graph, source, scheme = family_instance(family, seed)
        pc, uncovered, _ = index_of(graph, source, scheme, seed)
        n = graph.num_vertices
        for eps in (0.1, 0.2, 0.3):
            n_eps = max(1, math.ceil(n**eps))
            k_bound = math.ceil(1 / eps) + 2
            outs = []
            for name in (None, "python"):
                index = InterferenceIndex(pc.tree, uncovered)
                with engine_context(name):
                    outs.append(s1_output(index, uncovered, pc, n_eps, k_bound))
            assert outs[0] == outs[1], (family, seed, eps)

    def test_gadget_runs_two_iterations_identically(self, gadget):
        lb, pc, uncovered, _ = gadget
        n = lb.graph.num_vertices
        outs = []
        for name in (None, "python"):
            index = InterferenceIndex(pc.tree, uncovered)
            with engine_context(name):
                outs.append(
                    s1_output(index, uncovered, pc, math.ceil(n**0.2), 7)
                )
        assert outs[0] == outs[1]
        assert outs[0]["iterations"] == 2 and outs[0]["c_sets"][-1]


#: Builds an exact-scheme Theorem 5.1 gadget (two S1 iterations, three
#: reinforced edges) on the default engine and prints the structure,
#: the Phase S1 stats and the interference backend as one JSON line.
_BUILD_GADGET = """
import json
from repro.core import build_epsilon_ftbfs
from repro.engine import get_engine
from repro.lower_bounds import build_theorem51
lb = build_theorem51(300, 0.2, d=10, k=3, x_size=8)
s = build_epsilon_ftbfs(lb.graph, lb.source, 0.2)
st = s.stats
print(json.dumps({
    "edges": sorted(s.edges),
    "reinforced": sorted(s.reinforced),
    "s1": [st.i1_size, st.i2_size, st.s1_iterations, st.s1_edges_added],
    "backend": get_engine().interference_backend,
}))
"""


class TestBuildParity:
    def test_repro_cc_0_builds_the_same_structure(self):
        """The default engine here, the spec in a ``REPRO_CC=0``
        subprocess: the same edges, reinforced set and S1 stats."""
        default = _run_py(_BUILD_GADGET)
        spec = _run_py(_BUILD_GADGET, REPRO_CC="0")
        assert default.returncode == 0, default.stderr
        assert spec.returncode == 0, spec.stderr
        got, want = json.loads(default.stdout), json.loads(spec.stdout)
        assert want["backend"] == get_engine("python").interference_backend
        assert want["reinforced"] and want["s1"][2] == 2
        got.pop("backend"), want.pop("backend")
        assert got == want


# ----------------------------------------------------------------------
# what the engines report
# ----------------------------------------------------------------------
class TestBackendReport:
    def test_python_reports_the_spec(self):
        assert "spec" in get_engine("python").interference_backend

    def test_csr_reports_what_runs(self, monkeypatch):
        csr = get_engine("csr")
        if cbuild.kernel_library() is not None:
            assert csr.interference_backend.startswith("compiled C")
        monkeypatch.setenv(cbuild.CC_ENV_VAR, "0")
        assert csr.interference_backend == get_engine("python").interference_backend
