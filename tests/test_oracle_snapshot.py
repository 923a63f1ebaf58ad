"""Snapshot format robustness, the plane façades and the serving loop.

The mmap-backed planes: corrupt prelude fields fail loudly (magic,
version, endianness sentinel), truncation at any point, a field table
with negative, overlapping or missized planes, and replacement rows
that disagree with the tree planes are detected before any array is
trusted, closing is safe under live views, a mapped snapshot survives
file unlink, and no fd leaks after close.  The saved bytes of three
hand-built trees are pinned.  The graph and weights façades over the
planes are observably identical to the live objects, and the serving
loop answers (and counts) each query once per target.
"""

import gc
import hashlib
import io
import json
import os
import struct
import sys
from array import array

import pytest

from repro.errors import SnapshotError
from repro.graphs import Graph, connected_gnp_graph
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
from repro.spt.weights import WeightAssignment, make_weights

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")


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
        export = ReplacementEngine(tree).export_arrays()
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


def _with_header(snap, tmp_path, edit):
    """A copy of ``snap`` whose JSON header is ``edit(header)``; the
    planes follow at the first 64-byte boundary after it, where the
    field table's relative offsets still find them."""
    data = snap.read_bytes()
    (header_len,) = struct.unpack_from("=q", data, 24)
    meta = json.loads(data[32 : 32 + header_len])
    planes = data[(32 + header_len + 63) // 64 * 64 :]
    raw = json.dumps(edit(meta), separators=(",", ":")).encode("utf-8")
    start = (32 + len(raw) + 63) // 64 * 64
    bad = tmp_path / "header.snap"
    bad.write_bytes(
        data[:24] + struct.pack("=q", len(raw)) + raw.ljust(start - 32, b"\0")
        + planes
    )
    return bad


def _with_fields(snap, tmp_path, edit):
    """A copy of ``snap`` whose field table went through ``edit`` (a
    mutator of ``name -> [offset, length]``)."""
    def edit_meta(meta):
        fields = {name: [off, length] for name, off, length in meta["fields"]}
        edit(fields)
        meta["fields"] = [[name, *fields[name]] for name, _, _ in meta["fields"]]
        return meta
    return _with_header(snap, tmp_path, edit_meta)


def _set(name, index, value):
    def edit(fields):
        fields[name][index] = value(fields) if callable(value) else value
    return edit


@pytest.mark.parametrize("mapped", [pytest.param(True, marks=needs_numpy), False])
class TestFieldTable:
    """The field table is validated before any plane is trusted: one
    test per rule, on both the mapped and the decoded load."""

    def _refused(self, snap, tmp_path, mapped, edit, match):
        bad = _with_fields(snap, tmp_path, edit)
        with pytest.raises(SnapshotError, match=match):
            load_structure(bad, mapped=mapped)

    def test_negative_length(self, snap, tmp_path, mapped):
        self._refused(snap, tmp_path, mapped, _set("tree_hop", 1, -1),
                      "'tree_hop' has a negative offset or length")

    def test_negative_offset(self, snap, tmp_path, mapped):
        self._refused(snap, tmp_path, mapped, _set("tree_hop", 0, -64),
                      "'tree_hop' has a negative offset or length")

    def test_plane_past_the_data_region(self, snap, tmp_path, mapped):
        size = snap.stat().st_size
        self._refused(snap, tmp_path, mapped, _set("tree_tin", 0, size),
                      "plane 'tree_tin' extends past end of file")

    def test_overlapping_planes(self, snap, tmp_path, mapped):
        self._refused(
            snap, tmp_path, mapped,
            _set("tree_hop", 0, lambda f: f["tree_hop"][0] - 64),
            "plane 'tree_hop' overlaps plane 'pert'",
        )

    @pytest.mark.parametrize(
        "name, delta",
        [("indptr", -1), ("indices", -1), ("edge_ids", -1), ("edge_u", -1),
         ("edge_v", -1), ("pert", -1), ("tree_pert", -1), ("tree_tout", -1)],
    )
    def test_graph_and_tree_plane_lengths(self, snap, tmp_path, mapped,
                                          name, delta):
        self._refused(
            snap, tmp_path, mapped,
            _set(name, 1, lambda f: f[name][1] + delta),
            f"plane '{name}' has .* entries, expected",
        )

    def test_short_tree_plane(self, snap, tmp_path, mapped):
        self._refused(snap, tmp_path, mapped, _set("tree_hop", 1, 3),
                      "plane 'tree_hop' has 3 entries, expected 50")

    def test_tree_preorder_longer_than_n(self, snap, tmp_path, mapped):
        self._refused(snap, tmp_path, mapped, _set("tree_preorder", 1, 51),
                      "'tree_preorder' has 51 entries, more than the 50")

    @pytest.mark.parametrize("name", ["repl_child", "repl_offsets"])
    def test_row_planes_follow_repl_eids(self, snap, tmp_path, mapped, name):
        self._refused(
            snap, tmp_path, mapped,
            _set(name, 1, lambda f: f[name][1] - 1),
            f"plane '{name}' has .* entries, expected",
        )

    @pytest.mark.parametrize(
        "name", ["repl_hop", "repl_pert", "repl_parent", "repl_parent_eid"]
    )
    def test_value_planes_follow_repl_offsets(self, snap, tmp_path, mapped,
                                              name):
        self._refused(
            snap, tmp_path, mapped,
            _set(name, 1, lambda f: f[name][1] - 1),
            f"plane '{name}' has .* entries, expected",
        )

    def test_untouched_table_loads(self, snap, tmp_path, mapped):
        good = _with_fields(snap, tmp_path, lambda fields: None)
        structure = load_structure(good, mapped=mapped)
        assert len(structure.arrays["tree_hop"]) == 50
        structure.close()


def _meta_set(key, value):
    def edit(meta):
        meta[key] = value
        return meta
    return edit


def _short_field_entry(meta):
    meta["fields"][3] = meta["fields"][3][:2]
    return meta


def _weights_without_shift(meta):
    del meta["weights"]["shift"]
    return meta


def _negative_shift(meta):
    meta["weights"]["shift"] = -1
    return meta


@pytest.mark.parametrize("mapped", [pytest.param(True, marks=needs_numpy), False])
class TestHeaderFields:
    """A header whose fields have the wrong shape is refused at load
    with a SnapshotError, on both load paths, instead of escaping as a
    TypeError/ValueError/KeyError or loading a source that is not the
    tree's root (whose every path then fails)."""

    @pytest.mark.parametrize(
        "edit, match",
        [
            (list, "not a JSON object"),
            (_short_field_entry, r"\[name, offset, length\]"),
            (_meta_set("num_vertices", "fifty"), "'num_vertices' is not"),
            (_weights_without_shift, "'weights' needs a nonnegative"),
            (_negative_shift, "'weights' needs a nonnegative"),
            (_meta_set("source", -1), "source -1 is not the tree's root"),
            (_meta_set("source", 999), "source 999 is not the tree's root"),
            (_meta_set("source", 3), "source 3 is not the tree's root"),
        ],
        ids=["array", "short-field-entry", "string-num-vertices",
             "weights-without-shift", "negative-shift", "source-minus-one",
             "source-past-n", "source-not-root"],
    )
    def test_malformed_header_refused(self, snap, tmp_path, mapped, edit,
                                      match):
        bad = _with_header(snap, tmp_path, edit)
        with pytest.raises(SnapshotError, match=match):
            load_structure(bad, mapped=mapped)


# ----------------------------------------------------------------------
# replacement rows against the tree planes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def row_snap(tmp_path_factory):
    """A snapshot whose replacement rows 1 and 9 both cover 3-vertex
    subtrees, so swapping their edges passes every length check."""
    graph = connected_gnp_graph(40, 0.12, seed=4)
    tree = build_spt(graph, make_weights(graph, "random", seed=1), 0)
    path = tmp_path_factory.mktemp("rows") / "rows.snap"
    save_structure(path, tree)
    return tree, path


def _with_planes(snap, tmp_path, edits):
    """A copy of ``snap`` whose planes went through ``edits`` (plane name
    -> mutator of the plane's values as a list)."""
    data = bytearray(snap.read_bytes())
    (header_len,) = struct.unpack_from("=q", data, 24)
    meta = json.loads(bytes(data[32 : 32 + header_len]))
    data_start = (32 + header_len + 63) // 64 * 64
    for name, offset, length in meta["fields"]:
        if name in edits:
            lo, hi = data_start + offset, data_start + offset + 8 * length
            values = array("q", bytes(data[lo:hi])).tolist()
            edits[name](values)
            data[lo:hi] = array("q", values).tobytes()
    bad = tmp_path / "rows.snap"
    bad.write_bytes(bytes(data))
    return bad


def _swap(i, j):
    def edit(values):
        values[i], values[j] = values[j], values[i]
    return edit


def _put(i, value):
    def edit(values):
        values[i] = value
    return edit


def _copy(src, dst):
    def edit(values):
        values[dst] = values[src]
    return edit


def _bump(i):
    def edit(values):
        values[i] += 1
    return edit


@pytest.mark.parametrize("mapped", [pytest.param(True, marks=needs_numpy), False])
class TestRowCheck:
    """A row whose edge, child or length disagrees with the tree planes
    would answer for the wrong subtree: the load refuses it and names
    the first such row, on the mapped and the decoded path alike."""

    @pytest.mark.parametrize(
        "edits, row",
        [
            ({"repl_eids": _swap(1, 9)}, 1),
            ({"repl_child": _put(1, -1)}, 1),
            ({"repl_child": _put(1, 40)}, 1),
            ({"repl_offsets": _bump(5)}, 4),
            ({"repl_eids": _copy(1, 9), "repl_child": _copy(1, 9)}, 9),
        ],
        ids=["swapped-eids", "child-minus-one", "child-n",
             "offset-shifted", "duplicated-row"],
    )
    def test_disagreeing_row_refused(self, row_snap, tmp_path, mapped,
                                     edits, row):
        _, snap = row_snap
        bad = _with_planes(snap, tmp_path, edits)
        with pytest.raises(SnapshotError, match=f"replacement row {row} "):
            load_structure(bad, mapped=mapped)

    def test_untouched_rows_load_and_answer(self, row_snap, tmp_path, mapped):
        tree, snap = row_snap
        structure = load_structure(
            _with_planes(snap, tmp_path, {}), mapped=mapped
        )
        oracle = QueryOracle(structure)
        live = QueryOracle.from_tree(tree)
        for eid in _tree_eids(tree):
            for v in range(tree.graph.num_vertices):
                assert oracle.dist(v, [eid]) == live.dist(v, [eid])
        structure.close()


# ----------------------------------------------------------------------
# pinned bytes
# ----------------------------------------------------------------------
def _pinned_input(name):
    """A hand-built ``(graph, source, weights)`` triple, no RNG anywhere."""
    if name == "bridge":
        # pert(e) = 2**e as in the exact scheme; (3, 5) is a bridge, so
        # its row cuts off {5, 6}, and vertex 7 is isolated.
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5),
                 (5, 6)]
        shift = len(edges) + 2
        return Graph(8, edges, name=name), 0, WeightAssignment(
            weights=[(1 << shift) + (1 << e) for e in range(len(edges))],
            shift=shift, scheme="exact", seed=0,
        )
    if name == "lone":
        # An isolated source: an empty tree and no replacement rows.
        return Graph(3, [(1, 2)], name=name), 0, WeightAssignment(
            weights=[(1 << 63) + 0x2C4F1E5A93B], shift=63, scheme="random",
            seed=0,
        )
    # 44-bit perturbations written out, as the random scheme draws them.
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5),
             (3, 6), (4, 7), (5, 8), (6, 7), (7, 8), (8, 9)]
    perts = [0x3A1F07C2D95, 0x0B44E1A9F3C, 0x7E02C5D1B88, 0x1C9D3F0A647,
             0x5F61B2E0C19, 0x2D07A8F4E31, 0x6AB3C9015D2, 0x44E8D17B2A6,
             0x09C5F3E68B4, 0x73B10D4C9EF, 0x128F6A3D5C0, 0x5B2E94C7F13,
             0x3F70A1B6D28]
    return Graph(10, edges, name=name), 4, WeightAssignment(
        weights=[(1 << 63) + p for p in perts], shift=63, scheme="random",
        seed=7,
    )


#: sha256 of ``save_structure``'s output per hand-built tree.  A change
#: here is a change of the snapshot bytes, on every engine.
PINNED_SNAPSHOTS = {
    "bridge": "bc5d9e0920ae9bddac28a411687ad485603c6931a360e6c7d3358fb78c8811f2",
    "grid": "5e29104b7d11a04ee509b0d236fa9081fbc13107b817237b5b4ffce16c152bd9",
    "lone": "91c3313037cb813fbb7c5be03b35a260d7f99c08114f36af3fe057cb910fdb69",
}


@pytest.mark.skipif(
    sys.byteorder != "little", reason="planes are written in native byte order"
)
@pytest.mark.parametrize("name", sorted(PINNED_SNAPSHOTS))
def test_pinned_snapshot_bytes(name, tmp_path):
    graph, source, weights = _pinned_input(name)
    path = tmp_path / f"{name}.snap"
    save_structure(path, build_spt(graph, weights, source))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED_SNAPSHOTS[name]


# ----------------------------------------------------------------------
# façades over the planes
# ----------------------------------------------------------------------
@needs_numpy
class TestFacades:
    def test_shared_graph_matches_original(self, instance):
        from repro.engine.csr import CSRAdjacency, csr_view
        from repro.oracle.facades import SharedGraph

        graph, _, _ = instance
        view = csr_view(graph)
        arrays = {
            key: getattr(view, key)
            for key in ("indptr", "indices", "edge_ids", "edge_u", "edge_v")
        }
        shared = SharedGraph(
            CSRAdjacency.from_arrays(graph.num_vertices, graph.num_edges, arrays)
        )
        assert shared.num_vertices == graph.num_vertices
        assert shared.num_edges == graph.num_edges
        assert shared == graph
        assert [shared.adjacency(v) for v in shared.vertices()] == [
            graph.adjacency(v) for v in graph.vertices()
        ]
        u, v = graph.endpoints(5)
        assert shared.endpoints(5) == (u, v)
        assert shared.edge_id(u, v) == 5
        assert shared.degrees() == graph.degrees()
        # the loaded CSR view is the zero-copy cache
        assert csr_view(shared) is shared._csr_cache
        assert numpy.array_equal(csr_view(shared).indptr, view.indptr)

    def test_weights_facade(self, instance):
        from repro.oracle.facades import weights_facade

        graph, weights, tree = instance
        pert, max_pert = weights.pert_array()
        w2 = weights_facade(
            pert, weights.shift, weights.scheme, weights.seed, max_pert
        )
        assert list(w2.weights) == list(weights.weights)
        assert (w2.shift, w2.scheme, w2.seed) == (
            weights.shift, weights.scheme, weights.seed,
        )
        assert w2.pert_array()[0] is pert  # the memo is the plane itself


# ----------------------------------------------------------------------
# mapping lifecycle
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
        assert summary == {"requests": 9, "errors": 0}
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

    def test_deeply_nested_line_is_a_bad_request(self, snap):
        """The JSON decoder gives up on deep nesting with a
        RecursionError; the line is answered as a bad request and the
        next one is still served."""
        structure = load_structure(snap, mapped=False)
        out = io.StringIO()
        summary = serve_structure(
            structure, ["[" * 200_000, json.dumps({"op": "ping"})], out
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert summary == {"requests": 2, "errors": 1}
        assert [r["ok"] for r in responses] == [False, True]
        assert responses[0]["error"].startswith("bad request")
        assert responses[1]["op"] == "ping"
        structure.close()

    def test_live_structure_serves_inline(self, instance):
        """from_live structures carry no CSR planes and serve the same
        protocol."""
        _, _, tree = instance
        structure = OracleStructure.from_live(tree)
        summary, responses = _roundtrip(structure, [{"op": "dist", "v": 3}])
        assert summary == {"requests": 1, "errors": 0}
        assert responses[0]["ok"]
        assert responses[0]["pid"] == os.getpid()
        assert responses[0]["dist"] == [QueryOracle.from_tree(tree).dist(3)]


class TestQueryCounts:
    """``OracleStats`` counts each query once per target, as it documents."""

    def test_path_request_counts_one_query(self, instance, snap):
        _, _, tree = instance
        structure = load_structure(snap, mapped=False)
        eid = _tree_eids(tree)[0]
        live = QueryOracle.from_tree(tree)
        n = tree.graph.num_vertices
        server = OracleServer(structure)
        out = io.StringIO()
        request = {"op": "path", "v": n - 1, "failed": [eid]}
        server.serve([json.dumps(request)], out)
        response = json.loads(out.getvalue())
        assert server.oracle.stats.queries == 1
        assert response["path"] == live.path(n - 1, [eid])
        assert response["edges"] == live.path_edges(n - 1, [eid])
        assert response["hops"] == len(response["edges"])
        structure.close()

    def test_fallback_resolved_once_per_query(self, instance, snap):
        """One uncached set of two nested failed tree edges: a 32-target
        dist with several targets inside the failed subtree is one
        fallback traversal and no hit; a following path to a target
        inside is one hit, however many of its hops lie inside."""
        graph, _, tree = instance
        structure = load_structure(snap, mapped=False)
        oracle = QueryOracle(structure)
        live = QueryOracle.from_tree(tree)
        outer = max(
            _tree_eids(tree), key=lambda e: tree.subtree_size(tree.edge_child(e))
        )
        union = tree.subtree_vertices(tree.edge_child(outer))
        failed = [outer, tree.parent_eid[union[1]]]
        inside = set(union)
        targets = list(range(32))
        assert len(inside.intersection(targets)) > 1
        assert oracle.dist_many(targets, failed) == live.dist_many(targets, failed)
        stats = oracle.stats
        assert (stats.fallback_traversals, stats.fallback_hits) == (1, 0)
        assert stats.queries == 32
        reachable = [u for u in union if live.dist(u, failed) is not None]
        v = max(reachable, key=lambda u: len(inside.intersection(live.path(u, failed))))
        vertices, edges = oracle.route(v, failed)
        assert len(inside.intersection(vertices)) > 1
        assert vertices == live.path(v, failed)
        assert edges == live.path_edges(v, failed)
        assert (stats.fallback_traversals, stats.fallback_hits) == (1, 1)
        assert stats.queries == 33
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
    answers ``ok: false`` naming the field."""

    def test_non_integer_ids_are_rejected(self, snap):
        structure = load_structure(snap, mapped=False)
        table = [
            (field, bad, request)
            for field in ("v", "targets", "failed", "eid")
            for bad in _NOT_IDS
            for request in _id_requests(field, bad)
        ]
        summary, responses = _roundtrip(
            structure,
            [request for _, _, request in table] + [{"op": "stats"}],
        )
        structure.close()
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
    names = snapshot_mod.PLANE_NAMES
    repl = snapshot_mod.REPL_PLANE_NAMES
    assert names[len(names) - len(repl):] == repl
    assert all(name.startswith("repl_") for name in repl)
