"""Versioned, mmap-able snapshots of a built FT-BFS query structure.

The structure the paper constructs *is* a single-edge-failure
sensitivity oracle, but until PR 9 it only existed as live Python
objects: serving queries meant rebuilding the tree and the replacement
cache from scratch in every process.  This module makes the built
structure a **file**:

``save_structure``
    Serializes graph CSR + weight perturbations + the SPT arrays + one
    replacement row per tree edge (the sweep a
    :class:`~repro.spt.replacement.ReplacementEngine` runs at
    construction) into one snapshot of 64-byte-aligned int64 planes
    behind a tiny binary prelude and a JSON field table.

``load_structure``
    Maps the file (``mmap`` + zero-copy numpy views over the planes -
    nothing is parsed; O(planes) plus one vectorized row check) and
    wraps the graph and weight planes in the façades of
    :mod:`repro.oracle.facades`, so a loaded structure is query-ready
    immediately and bit-identical to the saved one.  Without numpy the
    planes decode into ``array('q')`` sequences instead (an O(n + m)
    read and a looped row check, documented fallback - same answers).

File format (version 1)
-----------------------
========  ==========================================================
bytes     content
========  ==========================================================
0..7      magic ``b"RPROSNAP"``
8..15     format version (int64, native order)
16..23    endianness sentinel ``0x0102030405060708`` (int64, native)
24..31    JSON header length in bytes (int64)
32..      JSON header: graph/weights/tree metadata + the field table
          ``[[name, relative_offset, length], ...]``
aligned   int64 planes, each 64-byte aligned; the plane region starts
          at the first 64-byte boundary after the JSON header
========  ==========================================================

A reader on a machine with the opposite byte order sees a flipped
sentinel and gets a :class:`~repro.errors.SnapshotError` instead of
garbage distances; truncated files fail the field-table bounds check
the same way, and so does a field table whose planes overlap or whose
lengths disagree with the header.  The replacement planes are
Euler-keyed: row ``i`` covers ``subtree_vertices(repl_child[i])`` in
preorder, so per-row vertex keys are implied, never stored (see
:class:`~repro.engine.base.ReplacementRows`); a row that disagrees
with the tree planes is refused at load, by row number.

Snapshots require the weights to be int64-representable - any random
scheme assignment, or the exact scheme up to 62 edges (the same gate as
``WeightAssignment.pert_array``).  Exceeding that raises
:class:`~repro.errors.SnapshotError` at save time, never silently.
"""

from __future__ import annotations

import json
import os
import struct
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._types import Vertex
from repro.engine.base import ReplacementRows
from repro.errors import SnapshotError
from repro.graphs.graph import Graph
from repro.spt.replacement import ReplacementEngine
from repro.spt.spt_tree import ShortestPathTree
from repro.spt.weights import WeightAssignment

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "OracleStructure",
    "save_structure",
    "load_structure",
]

SNAPSHOT_MAGIC = b"RPROSNAP"
SNAPSHOT_VERSION = 1

#: Written in native byte order; a flipped read means the file crossed
#: an endianness boundary.
_ENDIAN_SENTINEL = 0x0102030405060708
_ENDIAN_FLIPPED = int.from_bytes(
    _ENDIAN_SENTINEL.to_bytes(8, "little"), "big", signed=False
)

_ALIGN = 64
_PRELUDE = struct.Struct("=8sqqq")  # magic, version, sentinel, json length

#: Planes every snapshot must carry, in canonical order.  The ``tree_*``
#: and ``repl_*`` names are the keys of :meth:`OracleStructure.from_live`;
#: the ``repl_*`` ones are :class:`ReplacementRows`' fields.
PLANE_NAMES = (
    "indptr",
    "indices",
    "edge_ids",
    "edge_u",
    "edge_v",
    "pert",
    "tree_hop",
    "tree_pert",
    "tree_parent",
    "tree_parent_eid",
    "tree_tin",
    "tree_tout",
    "tree_preorder",
) + ReplacementRows._fields

#: The replacement planes.
REPL_PLANE_NAMES = ReplacementRows._fields


# ----------------------------------------------------------------------
# the in-memory structure (live or mapped)
# ----------------------------------------------------------------------
@dataclass
class OracleStructure:
    """Everything a :class:`~repro.oracle.query.QueryOracle` reads.

    ``arrays`` maps plane names to int-indexable sequences - live
    Python lists or mmap-backed numpy views; the oracle never cares
    which.  ``owner`` (if any) pins the backing mapping: the mmap'd
    file for a loaded snapshot (numpy views do not keep their buffer
    alive on their own).
    """

    graph: Graph
    weights: WeightAssignment
    source: Vertex
    arrays: Mapping[str, Sequence[int]]
    meta: Dict[str, Any] = field(default_factory=dict)
    owner: Any = None

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def shift(self) -> int:
        """The weight decomposition shift (``dist = (hop << shift) + pert``)."""
        return self.weights.shift

    @property
    def num_replacement_rows(self) -> int:
        """Exported tree-edge failure rows available for O(path) queries."""
        return len(self.arrays["repl_eids"])

    def close(self) -> None:
        """Release the backing mapping (no-op for live structures).

        Best-effort: with plane views still referenced somewhere the
        mapping stays open until they are collected (the mmap refuses
        to close under exported buffers).
        """
        owner = self.owner
        self.owner = None
        if owner is not None:
            owner.close()

    @classmethod
    def from_live(cls, tree: ShortestPathTree) -> "OracleStructure":
        """Wrap live objects (no file, no copies of the tree arrays).

        The replacement rows come from one :class:`ReplacementEngine`
        sweep, so every single-tree-edge failure is an O(path) row;
        big-int exact-scheme weights are fine here - only
        *serialization* needs fixed width.
        """
        arrays: Dict[str, Sequence[int]] = {
            "tree_hop": tree.depth,
            "tree_pert": tree.dist_perturbations(),
            "tree_parent": tree.parent,
            "tree_parent_eid": tree.parent_eid,
            "tree_tin": tree.tin,
            "tree_tout": tree.tout,
            "tree_preorder": tree.preorder,
        }
        arrays.update(ReplacementEngine(tree).export_arrays())
        meta = {
            "num_vertices": tree.graph.num_vertices,
            "num_edges": tree.graph.num_edges,
            "source": tree.source,
            "graph_name": tree.graph.name,
            "live": True,
        }
        return cls(
            graph=tree.graph,
            weights=tree.weights,
            source=tree.source,
            arrays=arrays,
            meta=meta,
        )


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _encode_plane(name: str, values) -> bytes:
    """Values as native int64 bytes; loud on anything unrepresentable."""
    tobytes = getattr(values, "tobytes", None)
    if tobytes is not None and getattr(values, "itemsize", 0) == 8:
        return tobytes()
    try:
        packed = array("q", (int(x) for x in values))
    except OverflowError:
        raise SnapshotError(
            f"plane {name!r} has values outside int64 - the exact weight "
            "scheme past 62 edges cannot be snapshotted; build the tree "
            "with the random scheme"
        ) from None
    if packed.itemsize != 8:  # pragma: no cover - exotic platforms only
        raise SnapshotError("platform has no 8-byte array('q') type")
    return packed.tobytes()


def _csr_planes(graph: Graph) -> List[Tuple[str, Sequence[int]]]:
    """Graph CSR planes - numpy view when available, pure-python else."""
    try:
        from repro.engine.csr import csr_view
    except ImportError:
        csr_view = None
    if csr_view is not None:
        csr = csr_view(graph)
        return [
            ("indptr", csr.indptr),
            ("indices", csr.indices),
            ("edge_ids", csr.edge_ids),
            ("edge_u", csr.edge_u),
            ("edge_v", csr.edge_v),
        ]
    indptr = [0]
    indices: List[int] = []
    edge_ids: List[int] = []
    for v in range(graph.num_vertices):
        for u, eid in graph.adjacency(v):
            indices.append(u)
            edge_ids.append(eid)
        indptr.append(len(indices))
    edge_u = [u for u, _ in graph.edge_list()]
    edge_v = [v for _, v in graph.edge_list()]
    return [
        ("indptr", indptr),
        ("indices", indices),
        ("edge_ids", edge_ids),
        ("edge_u", edge_u),
        ("edge_v", edge_v),
    ]


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def save_structure(path, tree: ShortestPathTree) -> Path:
    """Write a query-ready snapshot of ``tree`` and its replacement rows.

    A :class:`ReplacementEngine` sweeps every tree-edge failure first
    (:meth:`OracleStructure.from_live`), so the saved file answers all
    single-failure queries in O(path).  The write is atomic (temp file
    + rename).  Raises :class:`~repro.errors.SnapshotError` when the
    weights have no int64 representation (see the module docstring).
    """
    path = Path(path)
    weights = tree.weights
    big = weights.big
    perts = [w - big for w in weights.weights]
    if perts and min(perts) < 0:
        raise SnapshotError("weights below BIG cannot be decomposed")

    arrays = OracleStructure.from_live(tree).arrays
    planes: List[Tuple[str, Sequence[int]]] = _csr_planes(tree.graph)
    planes.append(("pert", perts))
    planes += [(name, arrays[name]) for name in PLANE_NAMES[6:]]

    blobs: List[Tuple[int, bytes]] = []
    fields: List[List[Any]] = []
    offset = 0
    for name, values in planes:
        data = _encode_plane(name, values)
        offset = _align(offset)
        fields.append([name, offset, len(data) // 8])
        blobs.append((offset, data))
        offset += len(data)

    meta = {
        "format": "repro-oracle-snapshot",
        "version": SNAPSHOT_VERSION,
        "num_vertices": tree.graph.num_vertices,
        "num_edges": tree.graph.num_edges,
        "source": tree.source,
        "graph_name": tree.graph.name,
        "weights": {
            "shift": weights.shift,
            "scheme": weights.scheme,
            "seed": weights.seed,
            "max_pert": max(perts) if perts else 0,
        },
        "replacement_rows": len(arrays["repl_eids"]),
        "fields": fields,
    }
    header = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    data_start = _align(_PRELUDE.size + len(header))

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(
            _PRELUDE.pack(
                SNAPSHOT_MAGIC, SNAPSHOT_VERSION, _ENDIAN_SENTINEL, len(header)
            )
        )
        fh.write(header)
        fh.write(b"\0" * (data_start - _PRELUDE.size - len(header)))
        pos = 0
        for rel_offset, data in blobs:
            fh.write(b"\0" * (rel_offset - pos))
            fh.write(data)
            pos = rel_offset + len(data)
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
class _SnapshotMapping:
    """Pins the open file + mmap under the mapped plane views."""

    __slots__ = ("_file", "_mm")

    def __init__(self, file, mm) -> None:
        self._file = file
        self._mm = mm

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # views still alive; closes on their GC
                pass
            else:
                self._mm = None
        if self._mm is None and self._file is not None:
            self._file.close()
            self._file = None


def _read_prelude(buf, size: int, path: Path):
    if size < _PRELUDE.size:
        raise SnapshotError(f"{path}: truncated snapshot ({size} bytes)")
    magic, version, sentinel, header_len = _PRELUDE.unpack_from(buf, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: not a repro snapshot (bad magic)")
    if sentinel != _ENDIAN_SENTINEL:
        if sentinel == _ENDIAN_FLIPPED:
            raise SnapshotError(
                f"{path}: endianness mismatch - snapshot written on an "
                "opposite-byte-order machine"
            )
        raise SnapshotError(f"{path}: corrupt snapshot prelude")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if header_len <= 0 or _PRELUDE.size + header_len > size:
        raise SnapshotError(f"{path}: truncated snapshot header")
    return header_len


def _is_int(value: Any) -> bool:
    """Whether a decoded JSON value is an integer (``bool`` is not)."""
    return type(value) is int


def _parse_meta(buf, header_len: int, path: Path) -> Dict[str, Any]:
    """The JSON header, with every field the loader reads type-checked:
    integer sizes and source, a ``weights`` object with a nonnegative
    integer ``shift``, integer ``seed``/``max_pert`` and a ``scheme``
    name, and a field table of ``[name, offset, length]`` entries naming
    every plane."""
    raw = bytes(buf[_PRELUDE.size : _PRELUDE.size + header_len])
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header ({exc})") from None
    if not isinstance(meta, dict):
        raise SnapshotError(f"{path}: snapshot header is not a JSON object")
    for key in ("num_vertices", "num_edges", "source", "weights", "fields"):
        if key not in meta:
            raise SnapshotError(f"{path}: snapshot header missing {key!r}")
    for key in ("num_vertices", "num_edges", "source"):
        if not _is_int(meta[key]) or (key != "source" and meta[key] < 0):
            raise SnapshotError(
                f"{path}: snapshot header {key!r} is not a valid integer"
            )
    wmeta = meta["weights"]
    if not (
        isinstance(wmeta, dict)
        and all(_is_int(wmeta.get(k)) for k in ("shift", "seed", "max_pert"))
        and wmeta["shift"] >= 0
        and isinstance(wmeta.get("scheme"), str)
    ):
        raise SnapshotError(
            f"{path}: snapshot header 'weights' needs a nonnegative integer "
            "shift, integer seed and max_pert, and a scheme name"
        )
    fields = meta["fields"]
    if not isinstance(fields, list) or not all(
        isinstance(f, list) and len(f) == 3 and isinstance(f[0], str)
        and _is_int(f[1]) and _is_int(f[2])
        for f in fields
    ):
        raise SnapshotError(
            f"{path}: snapshot field table entries must be "
            "[name, offset, length]"
        )
    names = [f[0] for f in fields]
    missing = [name for name in PLANE_NAMES if name not in names]
    if missing:
        raise SnapshotError(f"{path}: snapshot missing planes {missing}")
    return meta


def _check_length(path: Path, name: str, length: int, expected: int) -> None:
    if length != expected:
        raise SnapshotError(
            f"{path}: plane {name!r} has {length} entries, expected {expected}"
        )


def _plane_spans(
    meta: Dict[str, Any], data_start: int, size: int, path: Path
) -> Dict[str, Tuple[int, int]]:
    """The field table as ``name -> (byte offset, entries)``, validated
    in O(number of planes) before any plane is mapped.

    Offsets and lengths are nonnegative, every plane lies inside the
    data region and overlaps no other, and each plane's length is the
    one the header implies (the four ``repl_*`` value planes are checked
    against ``repl_offsets[-1]`` once that plane is readable).
    """
    spans: Dict[str, Tuple[int, int]] = {}
    for name, rel_offset, length in meta["fields"]:
        if rel_offset < 0 or length < 0:
            raise SnapshotError(
                f"{path}: plane {name!r} has a negative offset or length"
            )
        start = data_start + rel_offset
        if start + 8 * length > size:
            raise SnapshotError(
                f"{path}: truncated snapshot - plane {name!r} extends "
                "past end of file"
            )
        spans[name] = (start, length)
    end, previous = data_start, None
    for name, (start, length) in sorted(spans.items(), key=lambda it: it[1]):
        if start < end:
            raise SnapshotError(
                f"{path}: plane {name!r} overlaps plane {previous!r}"
            )
        end, previous = start + 8 * length, name
    n, m = meta["num_vertices"], meta["num_edges"]
    rows = spans["repl_eids"][1]
    expected = {
        "indptr": n + 1, "indices": 2 * m, "edge_ids": 2 * m,
        "edge_u": m, "edge_v": m, "pert": m,
        "tree_hop": n, "tree_pert": n, "tree_parent": n,
        "tree_parent_eid": n, "tree_tin": n, "tree_tout": n,
        "repl_child": rows, "repl_offsets": rows + 1,
    }
    for name, want in expected.items():
        _check_length(path, name, spans[name][1], want)
    if spans["tree_preorder"][1] > n:
        raise SnapshotError(
            f"{path}: plane 'tree_preorder' has {spans['tree_preorder'][1]} "
            f"entries, more than the {n} vertices"
        )
    return spans


def _check_rows(
    arrays: Mapping[str, Sequence[int]], n: int, mapped: bool, path: Path
) -> None:
    """Refuse replacement rows that disagree with the tree planes.

    Row ``i`` needs a child ``c = repl_child[i]`` in ``[0, n)`` with
    ``0 <= tin[c] < tout[c] <= n``, parent edge ``repl_eids[i]`` and
    ``tout[c] - tin[c]`` value entries (offsets from 0), and no child
    may repeat: such a row passes every length check yet answers for
    the wrong subtree.  Vectorized over mapped planes, a loop otherwise.
    """
    eids, child = arrays["repl_eids"], arrays["repl_child"]
    offsets, parent_eid = arrays["repl_offsets"], arrays["tree_parent_eid"]
    tin, tout = arrays["tree_tin"], arrays["tree_tout"]
    if offsets[0] != 0:
        raise SnapshotError(f"{path}: plane 'repl_offsets' does not start at 0")
    if mapped:
        ok = (child >= 0) & (child < n)
        if n:
            c = child.clip(0, n - 1)  # rows out of range are already bad
            lo, hi = tin[c], tout[c]
            ok &= (lo >= 0) & (lo < hi) & (hi <= n) & (parent_eid[c] == eids)
            ok &= offsets[1:] - offsets[:-1] == hi - lo
            order = child.argsort(kind="stable")
            ok[order[1:][child[order][1:] == child[order][:-1]]] = False
        rows = (~ok).nonzero()[0]
        bad = int(rows[0]) if rows.size else None
    else:
        seen, bad = set(), None
        for i, c in enumerate(child):
            if not (
                0 <= c < n and 0 <= tin[c] < tout[c] <= n
                and parent_eid[c] == eids[i] and c not in seen
                and offsets[i + 1] - offsets[i] == tout[c] - tin[c]
            ):
                bad = i
                break
            seen.add(c)
    if bad is not None:
        raise SnapshotError(
            f"{path}: replacement row {bad} (edge {int(eids[bad])}, child "
            f"{int(child[bad])}) disagrees with the tree planes"
        )


def load_structure(path, *, mapped: Optional[bool] = None) -> OracleStructure:
    """Load a snapshot into a query-ready :class:`OracleStructure`.

    ``mapped=None`` (the default) memory-maps the planes when numpy is
    available and falls back to decoding ``array('q')`` sequences
    otherwise; ``mapped=True`` insists on the zero-copy path (raises
    :class:`~repro.errors.SnapshotError` without numpy) and
    ``mapped=False`` forces the decode path (exercised by tests and
    useful for short-lived scripts on network filesystems).

    Raises :class:`~repro.errors.SnapshotError` on bad magic, version or
    endianness mismatch, a header that is not a JSON object of the
    expected field types, truncated planes, a field table whose planes
    overlap or disagree with the header's sizes, a source that is not
    the tree's root, replacement rows that disagree with the tree
    planes, or a missing file.
    """
    path = Path(path)
    if mapped is None or mapped:
        try:
            import numpy  # noqa: F401

            have_numpy = True
        except ImportError:
            have_numpy = False
        if mapped and not have_numpy:
            raise SnapshotError("mapped load requires numpy")
        mapped = have_numpy

    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise SnapshotError(f"cannot open snapshot {path}: {exc}") from None

    owner = None
    try:
        size = os.fstat(fh.fileno()).st_size
        if size < _PRELUDE.size:
            raise SnapshotError(f"{path}: truncated snapshot ({size} bytes)")
        if mapped:
            import mmap

            import numpy as np

            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            buf = mm
            owner = _SnapshotMapping(fh, mm)
        else:
            buf = fh.read()
        header_len = _read_prelude(buf, size, path)
        meta = _parse_meta(buf, header_len, path)
        data_start = _align(_PRELUDE.size + header_len)

        arrays: Dict[str, Sequence[int]] = {}
        for name, (start, length) in _plane_spans(
            meta, data_start, size, path
        ).items():
            if mapped:
                arr = np.frombuffer(
                    buf, dtype=np.int64, count=length, offset=start
                )
                arrays[name] = arr
            else:
                seq = array("q")
                seq.frombytes(buf[start : start + 8 * length])
                arrays[name] = seq
        flat = int(arrays["repl_offsets"][-1])
        for name in REPL_PLANE_NAMES[3:]:
            _check_length(path, name, len(arrays[name]), flat)
        n, source = meta["num_vertices"], meta["source"]
        if not (0 <= source < n and arrays["tree_hop"][source] == 0):
            raise SnapshotError(
                f"{path}: snapshot source {source} is not the tree's root"
            )
        _check_rows(arrays, n, mapped, path)
    except Exception:
        if owner is not None:
            owner.close()
        else:
            fh.close()
        raise
    if not mapped:
        fh.close()

    return _assemble(arrays, meta, owner)


def _assemble(
    arrays: Mapping[str, Sequence[int]],
    meta: Dict[str, Any],
    owner: Any,
) -> OracleStructure:
    """Rebuild the graph and weights façades over loaded planes."""
    from repro.oracle.facades import weights_facade

    n = int(meta["num_vertices"])
    m = int(meta["num_edges"])
    wmeta = meta["weights"]
    graph_name = meta.get("graph_name", "")

    graph: Graph
    if hasattr(arrays["indptr"], "tolist") and not isinstance(
        arrays["indptr"], array
    ):
        from repro.engine.csr import CSRAdjacency
        from repro.oracle.facades import SharedGraph

        csr = CSRAdjacency.from_arrays(n, m, dict(arrays), owner=owner)
        graph = SharedGraph(csr, name=graph_name)
    else:
        edges = list(zip(arrays["edge_u"], arrays["edge_v"]))
        graph = Graph(n, edges, name=graph_name)

    weights = weights_facade(
        arrays["pert"],
        int(wmeta["shift"]),
        wmeta["scheme"],
        int(wmeta["seed"]),
        int(wmeta["max_pert"]),
        owner,
    )
    return OracleStructure(
        graph=graph,
        weights=weights,
        source=int(meta["source"]),
        arrays=arrays,
        meta=meta,
        owner=owner,
    )
