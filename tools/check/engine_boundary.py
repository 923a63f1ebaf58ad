"""CHK001 - engine-boundary: no traversal-internal imports outside
``repro/engine/``.

The PR-3 contract: every traversal (hop BFS, weighted Dijkstra, the
batched sweeps) dispatches through the :class:`TraversalEngine` surface
(``repro.engine`` / ``engine.base`` / ``engine.registry``), never by
importing the kernels directly.  Importing a kernel module from outside
the engine package silently bypasses engine selection, parity testing,
and the no-numpy gating - the exact drift this pass freezes out.

Prohibited outside ``repro/engine/`` (and the mirrored ``engine/``
directory of fixture trees):

* ``repro.spt.dijkstra`` - the reference weighted traversal;
* every engine-internal module: the array/compiled kernels and the
  concrete engine classes.  The public surface (``repro.engine``,
  ``engine.base``, ``engine.registry``) stays importable.
"""

from __future__ import annotations

import ast
from typing import List

from tools.check.project import Project, enclosing_stack, resolve_import, scope_name

RULE = "CHK001"
TITLE = "engine-boundary: traversal kernels only imported inside repro/engine/"

#: Module suffixes (matched on whole dotted components) that only the
#: engine package may import.
PROHIBITED = (
    "spt.dijkstra",
    "engine.kernels",
    "engine.weighted_kernels",
    "engine.csr",
    "engine.csr_engine",
    "engine.python_engine",
    "engine.compiled",
    "engine.cbuild",
)


def _is_prohibited(dotted: str) -> bool:
    parts = dotted.split(".")
    for suffix in PROHIBITED:
        want = suffix.split(".")
        if len(parts) >= len(want) and parts[: len(want)] == want:
            return True
        for i in range(len(parts) - len(want) + 1):
            if parts[i : i + len(want)] == want:
                return True
    return False


def run(project: Project) -> List:
    from tools.check import Violation

    violations: List[Violation] = []
    for module in project.modules:
        if "engine/" in module.root_rel or module.root_rel.startswith("engine"):
            continue
        per_line = {}
        stacks = enclosing_stack(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for dotted, lineno in resolve_import(module, node):
                if _is_prohibited(dotted):
                    # ``from a.b import c`` resolves as both ``a.b`` and
                    # ``a.b.c``: keep the shortest match per line.
                    best = per_line.get(lineno)
                    if best is None or len(dotted) < len(best[0]):
                        per_line[lineno] = (dotted, stacks.get(id(node), ()))
        for lineno, (dotted, stack) in sorted(per_line.items()):
            violations.append(
                    Violation(
                        rule=RULE,
                        path=module.rel,
                        line=lineno,
                        symbol=f"{scope_name(stack)}:{dotted}",
                        message=(
                            f"traversal-internal import {dotted!r} outside "
                            "repro/engine/ - route through the TraversalEngine "
                            "surface (engine contract, PR 3)"
                        ),
                    )
                )
    return violations
