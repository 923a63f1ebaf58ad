"""Repo-invariant analyzer: ``python -m tools.check`` / ``repro check``.

Five stdlib-only AST passes freeze the reproduction's cross-layer
contracts at lint time instead of leaving them to runtime sweeps (or to
the fragile CI greps they replace):

========  ==============================================================
CHK001    engine-boundary: traversal kernels (``spt.dijkstra``, the
          array/compiled kernel modules) only imported inside
          ``repro/engine/``
CHK002    optional-dependency: ``import numpy`` guarded by
          try/except ImportError outside the gated kernel modules
CHK003    env-var registry: every ``REPRO_*`` read is in the
          ``repro --help`` table and README, and vice versa
CHK005    pickle hygiene: memoized ``_*_cache`` attributes excluded
          from pickled state (the PR-5 bug class)
CHK006    ctypes ABI drift: ``_ckernels.c`` exports match
          ``cbuild.py`` arity/kind bindings
========  ==============================================================

Pass IDs are never renumbered - allowlist keys and ``--pass`` name
them - so a retired pass leaves a gap in the sequence.

Each violation prints as ``path:line: CHK### message`` and carries a
stable key ``CHK### path::symbol`` (no line numbers, so edits don't
churn it).  Intentional violations live in the committed allowlist
(``tools/check/allowlist.txt``) with a justification comment; the
checker exits 1 on any violation not allowlisted, and 0 otherwise.

``--engines PROFILE`` / ``--serve-log`` run the runtime registry/log
checks (see :mod:`tools.check.runtime`) that replaced the invariant
greps in ``ci.yml``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["Violation", "PASSES", "load_allowlist", "run_passes", "main"]


@dataclass(frozen=True)
class Violation:
    """One finding of one pass."""

    rule: str     #: CHK###
    path: str     #: repo-relative posix path
    line: int
    symbol: str   #: stable within-file key (module, scope, var, ...)
    message: str

    @property
    def key(self) -> str:
        """Allowlist key - line numbers intentionally excluded."""
        return f"{self.rule} {self.path}::{self.symbol}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _passes():
    from tools.check import (
        abi_drift,
        engine_boundary,
        env_registry,
        optional_deps,
        pickle_hygiene,
    )

    return (
        engine_boundary,
        optional_deps,
        env_registry,
        pickle_hygiene,
        abi_drift,
    )


#: The registered passes, in CHK order.
PASSES = _passes()

_DEFAULT_ROOT = "src/repro"
_DEFAULT_ALLOWLIST = Path(__file__).with_name("allowlist.txt")


def load_allowlist(path: Path) -> Set[str]:
    """Violation keys suppressed by a committed allowlist file.

    Format: one ``CHK### path::symbol`` per line; ``#`` starts a
    comment (the justification), blank lines are skipped.
    """
    entries: Set[str] = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.add(line)
    return entries


def run_passes(
    root: Path,
    only: Optional[Iterable[str]] = None,
) -> Tuple[List[Violation], List[str]]:
    """Run (a subset of) the static passes over one tree.

    Returns ``(violations, notes)``; unparsable files surface as
    CHK000 violations rather than crashing the run.
    """
    from tools.check.project import Project

    project = Project(root)
    wanted = set(only) if only is not None else None
    violations: List[Violation] = []
    notes: List[str] = []
    for rel, error in project.broken:
        violations.append(
            Violation("CHK000", rel, 0, "<syntax>", f"unparsable: {error}")
        )
    for pass_module in PASSES:
        if wanted is not None and pass_module.RULE not in wanted:
            continue
        found = pass_module.run(project)
        violations.extend(found)
        notes.append(f"{pass_module.RULE} {pass_module.TITLE}: {len(found)}")
    return violations, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.check",
        description="repo-invariant analyzer (static passes + runtime profiles)",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=_DEFAULT_ROOT,
        help=f"tree to analyze (default: {_DEFAULT_ROOT})",
    )
    parser.add_argument(
        "--allowlist",
        default=None,
        help="allowlist file (default: tools/check/allowlist.txt)",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="report allowlisted violations too",
    )
    parser.add_argument(
        "--pass",
        dest="only",
        action="append",
        metavar="CHK###",
        help="run only this pass (repeatable)",
    )
    parser.add_argument(
        "--list-passes", action="store_true", help="list passes and exit"
    )
    parser.add_argument(
        "--engines",
        metavar="PROFILE",
        default=None,
        help="runtime registry check instead of the static passes "
        "(full | no-numpy | no-compiler)",
    )
    parser.add_argument(
        "--serve-log",
        metavar="PATH",
        default=None,
        help="check a repro serve JSONL transcript instead",
    )
    args = parser.parse_args(argv)

    if args.list_passes:
        for pass_module in PASSES:
            print(f"{pass_module.RULE}  {pass_module.TITLE}")
        return 0

    # Runtime modes replace the static run entirely (CI invokes them in
    # environment-specific jobs where the source tree was already checked).
    runtime_failures: List[str] = []
    runtime_requested = False
    from tools.check import runtime as runtime_checks

    if args.engines:
        runtime_requested = True
        runtime_failures += runtime_checks.check_engines(args.engines)
    if args.serve_log:
        runtime_requested = True
        runtime_failures += runtime_checks.check_serve_log(Path(args.serve_log))
    if runtime_requested:
        for failure in runtime_failures:
            print(failure)
        if runtime_failures:
            print(f"tools.check: {len(runtime_failures)} runtime violation(s)")
            return 1
        print("tools.check: runtime invariants hold")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"tools.check: {root} is not a directory", file=sys.stderr)
        return 2
    violations, notes = run_passes(root, only=args.only)

    allowed: Set[str] = set()
    if not args.no_allowlist:
        allowlist_path = (
            Path(args.allowlist) if args.allowlist else _DEFAULT_ALLOWLIST
        )
        if args.allowlist and not allowlist_path.is_file():
            print(
                f"tools.check: allowlist {allowlist_path} not found",
                file=sys.stderr,
            )
            return 2
        if allowlist_path.is_file():
            allowed = load_allowlist(allowlist_path)

    reported = [v for v in violations if v.key not in allowed]
    suppressed = [v for v in violations if v.key in allowed]
    # Only passes that ran can prove an entry stale (--pass filters).
    ran_rules = {pass_module.RULE for pass_module in PASSES} | {"CHK000"}
    if args.only:
        ran_rules = set(args.only) | {"CHK000"}
    stale = {
        key
        for key in allowed - {v.key for v in violations}
        if key.split(" ", 1)[0] in ran_rules
    }

    for violation in reported:
        print(violation.render())
    for note in notes:
        print(f"  [{note} violation(s)]")
    if suppressed:
        print(f"  [{len(suppressed)} allowlisted violation(s) suppressed]")
    for key in sorted(stale):
        print(f"  [stale allowlist entry: {key}]")
    if reported:
        print(f"tools.check: {len(reported)} new violation(s)")
        return 1
    print("tools.check: all invariants hold")
    return 0
