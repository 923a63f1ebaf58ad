"""Snapshot format robustness and the serving loop.

Mirrors ``test_shm.py``'s lifecycle discipline for the mmap-backed
planes: corrupt prelude fields fail loudly (magic, version, endianness
sentinel), truncation at any point is detected before any array is
trusted, closing is safe under live views, a mapped snapshot survives
file unlink, and nothing (fds, shm segments) leaks after the serving
pool - fork and spawn alike - shuts down.
"""

import gc
import io
import json
import os
import struct

import pytest

from repro.engine import shm
from repro.errors import GraphError, SnapshotError
from repro.graphs import connected_gnp_graph
from repro.oracle import (
    OracleServer,
    OracleStructure,
    QueryOracle,
    load_structure,
    save_structure,
    serve_structure,
)
from repro.oracle import snapshot as snapshot_mod
from repro.spt.replacement import ReplacementEngine
from repro.spt.spt_tree import build_spt
from repro.spt.weights import make_weights

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
needs_shm = pytest.mark.skipif(
    not shm.transport_enabled(), reason="shared-memory transport unavailable"
)


@pytest.fixture(scope="module")
def instance():
    graph = connected_gnp_graph(50, 0.1, seed=7)
    weights = make_weights(graph, "random", seed=3)
    tree = build_spt(graph, weights, 0)
    return graph, weights, tree


@pytest.fixture(scope="module")
def snap(instance, tmp_path_factory):
    _, _, tree = instance
    path = tmp_path_factory.mktemp("oracle") / "structure.snap"
    save_structure(path, tree)
    return path


def _tree_eids(tree):
    return sorted({pe for pe in tree.parent_eid if pe >= 0})


def _mutated(snap, tmp_path, mutate):
    data = bytearray(snap.read_bytes())
    mutate(data)
    bad = tmp_path / "bad.snap"
    bad.write_bytes(bytes(data))
    return bad


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize(
        "mapped", [pytest.param(True, marks=needs_numpy), False]
    )
    def test_loaded_structure_answers_match_live(self, instance, snap, mapped):
        _, _, tree = instance
        structure = load_structure(snap, mapped=mapped)
        oracle = QueryOracle(structure)
        live = QueryOracle.from_tree(tree)
        eids = _tree_eids(tree)
        for failed in ([], [eids[0]], [eids[-1]], eids[:2]):
            for v in range(tree.graph.num_vertices):
                assert oracle.dist(v, failed) == live.dist(v, failed)
        structure.close()

    def test_planes_match_live_export(self, instance, snap):
        _, weights, tree = instance
        structure = load_structure(snap, mapped=False)
        arrays = structure.arrays
        big = weights.big
        assert list(arrays["pert"]) == [w - big for w in weights.weights]
        assert list(arrays["tree_hop"]) == tree.depth
        assert list(arrays["tree_parent"]) == tree.parent
        assert list(arrays["tree_parent_eid"]) == tree.parent_eid
        assert list(arrays["tree_tin"]) == tree.tin
        assert list(arrays["tree_preorder"]) == tree.preorder
        engine = ReplacementEngine(tree)
        engine.precompute_all()
        export = engine.export_arrays()
        for key, values in export.items():
            assert list(arrays[key]) == list(values), key

    def test_rebuilt_graph_and_weights_identical(self, instance, snap):
        graph, weights, tree = instance
        structure = load_structure(snap, mapped=False)
        g2 = structure.graph
        assert g2.num_vertices == graph.num_vertices
        assert g2.num_edges == graph.num_edges
        assert g2.edge_list() == graph.edge_list()
        assert list(structure.weights) == list(weights.weights)
        assert structure.weights.shift == weights.shift
        assert structure.tree.dist == tree.dist
        assert structure.meta["replacement_rows"] == len(_tree_eids(tree))

    def test_save_is_atomic_no_tmp_left(self, instance, tmp_path):
        _, _, tree = instance
        target = tmp_path / "a.snap"
        save_structure(target, tree)
        assert target.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_overwrites_atomically(self, instance, snap, tmp_path):
        _, _, tree = instance
        target = tmp_path / "b.snap"
        save_structure(target, tree)
        before = target.read_bytes()
        save_structure(target, tree)
        assert target.read_bytes() == before


# ----------------------------------------------------------------------
# format guards
# ----------------------------------------------------------------------
class TestFormatGuards:
    def test_bad_magic(self, snap, tmp_path):
        bad = _mutated(snap, tmp_path, lambda d: d.__setitem__(
            slice(0, 8), b"NOTASNAP"))
        with pytest.raises(SnapshotError, match="magic"):
            load_structure(bad)

    def test_unsupported_version(self, snap, tmp_path):
        bad = _mutated(snap, tmp_path, lambda d: d.__setitem__(
            slice(8, 16), struct.pack("=q", 999)))
        with pytest.raises(SnapshotError, match="version 999"):
            load_structure(bad)

    def test_endianness_guard(self, snap, tmp_path):
        def flip(d):
            d[16:24] = bytes(reversed(d[16:24]))

        bad = _mutated(snap, tmp_path, flip)
        with pytest.raises(SnapshotError, match="endianness"):
            load_structure(bad)

    def test_corrupt_sentinel_is_not_endianness(self, snap, tmp_path):
        bad = _mutated(snap, tmp_path, lambda d: d.__setitem__(
            slice(16, 24), b"\xff" * 8))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_structure(bad)

    @pytest.mark.parametrize("keep", [0, 7, 31, 40, 200])
    def test_truncated_prelude_header_or_planes(self, snap, tmp_path, keep):
        data = snap.read_bytes()
        assert keep < len(data)
        bad = tmp_path / f"trunc{keep}.snap"
        bad.write_bytes(data[:keep])
        with pytest.raises(SnapshotError, match="truncated|corrupt"):
            load_structure(bad)

    def test_truncated_last_plane(self, snap, tmp_path):
        data = snap.read_bytes()
        bad = tmp_path / "truncplane.snap"
        bad.write_bytes(data[:-64])
        with pytest.raises(SnapshotError, match="truncated"):
            load_structure(bad)

    def test_corrupt_json_header(self, snap, tmp_path):
        bad = _mutated(snap, tmp_path, lambda d: d.__setitem__(
            slice(32, 40), b"\x00garbage"))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_structure(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            load_structure(tmp_path / "nope.snap")

    def test_exact_scheme_past_int64_refuses_to_save(self, tmp_path):
        graph = connected_gnp_graph(30, 0.15, seed=2)
        assert graph.num_edges > 62  # exact perts exceed int64
        weights = make_weights(graph, "exact")
        tree = build_spt(graph, weights, 0)
        with pytest.raises(SnapshotError, match="int64"):
            save_structure(tmp_path / "big.snap", tree)
        assert not (tmp_path / "big.snap").exists()

    @pytest.mark.skipif(HAVE_NUMPY, reason="covers the no-numpy guard")
    def test_mapped_load_requires_numpy(self, snap):
        with pytest.raises(SnapshotError, match="numpy"):
            load_structure(snap, mapped=True)


# ----------------------------------------------------------------------
# mapping lifecycle (mirrors test_shm's owner-pinning suite)
# ----------------------------------------------------------------------
@needs_numpy
class TestMappingLifecycle:
    def test_mapped_planes_are_readonly_views(self, snap):
        structure = load_structure(snap, mapped=True)
        arr = structure.arrays["tree_hop"]
        assert isinstance(arr, numpy.ndarray)
        assert not arr.flags.writeable
        structure.close()

    def test_query_after_file_unlink(self, instance, tmp_path):
        """POSIX semantics: the mapping outlives the directory entry."""
        _, _, tree = instance
        path = tmp_path / "gone.snap"
        save_structure(path, tree)
        structure = load_structure(path, mapped=True)
        oracle = QueryOracle(structure)
        os.unlink(path)
        eid = _tree_eids(tree)[0]
        live = QueryOracle.from_tree(tree)
        for v in range(0, tree.graph.num_vertices, 5):
            assert oracle.dist(v, [eid]) == live.dist(v, [eid])
        structure.close()

    def test_close_is_safe_under_live_views_and_idempotent(self, snap):
        structure = load_structure(snap, mapped=True)
        view = structure.arrays["tree_hop"]
        structure.close()  # views alive: must not invalidate them
        assert int(view[0]) == 0  # source hop still readable
        structure.close()  # idempotent

    def test_no_fd_leak_after_close_and_gc(self, instance, tmp_path):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc")
        _, _, tree = instance
        path = tmp_path / "leak.snap"
        save_structure(path, tree)
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            structure = load_structure(path, mapped=True)
            QueryOracle(structure).dist(3)
            structure.close()
            del structure
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) <= before


# ----------------------------------------------------------------------
# the serving loop
# ----------------------------------------------------------------------
def _roundtrip(structure, requests, **kwargs):
    out = io.StringIO()
    summary = serve_structure(
        structure, [json.dumps(r) for r in requests], out, **kwargs
    )
    return summary, [json.loads(line) for line in out.getvalue().splitlines()]


class TestServeInline:
    def test_protocol_end_to_end(self, instance, snap):
        _, _, tree = instance
        structure = load_structure(snap, mapped=False)
        eid = _tree_eids(tree)[0]
        live = QueryOracle.from_tree(tree)
        summary, responses = _roundtrip(structure, [
            {"op": "ping"},
            {"op": "dist", "v": 5},
            {"op": "dist", "targets": [1, 2, 3], "failed": [eid]},
            {"op": "path", "v": 7},
            {"op": "mark_down", "eid": eid},
            {"op": "dist", "v": 5},
            {"op": "mark_up", "eid": eid},
            {"op": "stats"},
            {"op": "shutdown"},
        ])
        assert summary == {"requests": 9, "errors": 0, "workers": 0}
        assert all(r["ok"] for r in responses)
        assert responses[1]["dist"] == [live.dist(5)]
        assert responses[2]["dist"] == [live.dist(v, [eid]) for v in (1, 2, 3)]
        assert responses[3]["path"] == live.path(7)
        # marked failure applies to the following dist
        assert responses[5]["dist"] == [live.dist(5, [eid])]
        assert responses[4]["marked"] == [eid]
        assert responses[6]["marked"] == []
        assert responses[7]["stats"]["queries"] > 0
        structure.close()

    def test_shutdown_stops_before_remaining_requests(self, snap):
        structure = load_structure(snap, mapped=False)
        summary, responses = _roundtrip(structure, [
            {"op": "shutdown"},
            {"op": "ping"},
        ])
        assert summary["requests"] == 1
        assert len(responses) == 1
        structure.close()

    def test_errors_do_not_kill_the_loop(self, snap):
        structure = load_structure(snap, mapped=False)
        out = io.StringIO()
        lines = [
            "this is not json",
            json.dumps({"op": "frobnicate"}),
            json.dumps({"op": "dist"}),  # missing v/targets
            json.dumps({"op": "dist", "v": 10**9}),  # out of range
            json.dumps({"op": "mark_down"}),  # missing eid
            json.dumps({"op": "dist", "v": 1}),  # still serves
            "",  # blank lines are skipped, not errors
        ]
        summary = serve_structure(structure, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert summary["requests"] == 6
        assert summary["errors"] == 5
        assert [r["ok"] for r in responses] == [
            False, False, False, False, False, True,
        ]
        structure.close()

    def test_live_structure_serves_inline_even_with_workers(self, instance):
        """from_live structures carry no CSR planes; the server degrades
        to inline answering instead of failing."""
        _, _, tree = instance
        structure = OracleStructure.from_live(tree)
        summary, responses = _roundtrip(
            structure, [{"op": "dist", "v": 3}], workers=2
        )
        assert summary["workers"] == 0
        assert responses[0]["ok"]
        assert responses[0]["pid"] == os.getpid()

    def test_shm_disabled_degrades_inline(self, snap, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        structure = load_structure(snap, mapped=False)
        summary, responses = _roundtrip(
            structure, [{"op": "dist", "v": 3}], workers=2
        )
        assert summary["workers"] == 0
        assert responses[0]["ok"]
        structure.close()


@needs_shm
class TestServeWorkers:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_pool_answers_from_other_processes(
        self, instance, snap, start_method
    ):
        _, _, tree = instance
        structure = load_structure(snap, mapped=True)
        live = QueryOracle.from_tree(tree)
        eid = _tree_eids(tree)[0]
        n = tree.graph.num_vertices
        server = OracleServer(
            structure, workers=2, start_method=start_method
        )
        assert server.workers == 2
        try:
            out = io.StringIO()
            requests = [
                {"op": "dist", "v": 5, "failed": [eid]},
                {"op": "dist", "targets": list(range(n)), "failed": [eid]},
                {"op": "path", "v": n - 1},
                {"op": "shutdown"},
            ]
            server.serve((json.dumps(r) for r in requests), out)
            responses = [
                json.loads(line) for line in out.getvalue().splitlines()
            ]
        finally:
            server.close()
        assert all(r["ok"] for r in responses)
        parent = os.getpid()
        for r in responses[:3]:
            assert r["pid"] != parent, "query answered in the parent"
        assert responses[0]["dist"] == [live.dist(5, [eid])]
        assert responses[1]["dist"] == [
            live.dist(v, [eid]) for v in range(n)
        ]
        assert responses[2]["path"] == live.path(n - 1)

    def test_marked_state_reaches_stateless_workers(self, instance, snap):
        _, _, tree = instance
        structure = load_structure(snap, mapped=True)
        live = QueryOracle.from_tree(tree)
        eid = _tree_eids(tree)[0]
        summary, responses = _roundtrip(structure, [
            {"op": "mark_down", "eid": eid},
            {"op": "dist", "v": 5},
            {"op": "shutdown"},
        ], workers=1)
        assert summary["workers"] == 1
        assert responses[1]["pid"] != os.getpid()
        assert responses[1]["dist"] == [live.dist(5, [eid])]
        structure.close()

    def test_no_segment_leak_after_close(self, snap):
        structure = load_structure(snap, mapped=True)
        server = OracleServer(structure, workers=1)
        names = [server._plane.name, server._aux.name]
        assert all(n in shm.active_segment_names() for n in names)
        server.close()
        assert not any(n in shm.active_segment_names() for n in names)
        server.close()  # idempotent
        structure.close()


#: Ids that ``int()`` would coerce into some other vertex or edge.
_NOT_IDS = [True, 2.9, "3"]


def _id_requests(field, bad):
    if field == "v":
        return [{"op": "dist", "v": bad}, {"op": "path", "v": bad}]
    if field == "targets":
        return [{"op": "dist", "targets": [0, bad]}, {"op": "dist", "targets": bad}]
    if field == "failed":
        return [
            {"op": op, "v": 1, "failed": fail}
            for op in ("dist", "path")
            for fail in ([bad], bad)
        ]
    return [{"op": "mark_down", "eid": bad}, {"op": "mark_up", "eid": bad}]


class TestStrictIds:
    """Every id field takes JSON integers only: a bool, float or string
    answers ``ok: false`` naming the field, inline and through workers."""

    @pytest.mark.parametrize(
        "workers",
        [0, pytest.param(2, marks=needs_shm)],
    )
    def test_non_integer_ids_are_rejected(self, snap, workers):
        structure = load_structure(snap, mapped=workers > 0)
        table = [
            (field, bad, request)
            for field in ("v", "targets", "failed", "eid")
            for bad in _NOT_IDS
            for request in _id_requests(field, bad)
        ]
        summary, responses = _roundtrip(
            structure,
            [request for _, _, request in table] + [{"op": "stats"}],
            workers=workers,
        )
        structure.close()
        assert summary["workers"] == workers
        assert summary["errors"] == len(table)
        for (field, bad, request), resp in zip(table, responses):
            assert resp["ok"] is False, (request, resp)
            assert repr(field) in resp["error"], (request, resp)
        assert responses[-1]["marked"] == []  # no bad eid marked an edge


# ----------------------------------------------------------------------
# CLI-owned constants are re-exported for callers of the format
# ----------------------------------------------------------------------
def test_public_constants():
    assert snapshot_mod.SNAPSHOT_MAGIC == b"RPROSNAP"
    assert snapshot_mod.SNAPSHOT_VERSION == 1
    assert set(snapshot_mod.TREE_PLANE_NAMES) | set(
        snapshot_mod.REPL_PLANE_NAMES
    ) == set(snapshot_mod.PLANE_NAMES)
