"""Persistent, zero-copy serving of the FT-BFS query structure.

The structure the paper builds (base SPT + per-tree-edge replacement
data) *is* a single-edge-failure sensitivity oracle; this package makes
it durable and servable:

* :mod:`repro.oracle.snapshot` - a versioned, mmap-able file format
  (:func:`save_structure` / :func:`load_structure`): one snapshot of
  aligned int64 planes, loaded by mapping instead of parsing (the
  replacement rows are checked against the tree planes on load).
* :mod:`repro.oracle.query` - :class:`QueryOracle`, answering
  ``dist(s, v | failed_edges)`` / ``path`` / batched variants in
  O(path) array lookups, bit-identical to a fresh engine traversal.
* :mod:`repro.oracle.serve` - :class:`OracleServer`, a JSONL request
  loop answering inline (``repro serve``); parallel serving is one
  process per core over the same mapped snapshot.
* :mod:`repro.oracle.facades` - the graph and weights façades a loaded
  snapshot's planes are wrapped in.

The live, hop-level convenience wrapper
:class:`repro.spt.sensitivity.DistanceSensitivityOracle` builds the same
structure in-process; this package is the persistence and serving layer
beneath it.
"""

from repro.oracle.query import OracleStats, QueryOracle
from repro.oracle.serve import OracleServer, serve_structure
from repro.oracle.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    OracleStructure,
    load_structure,
    save_structure,
)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "OracleStats",
    "OracleStructure",
    "OracleServer",
    "QueryOracle",
    "load_structure",
    "save_structure",
    "serve_structure",
]
