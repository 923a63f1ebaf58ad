"""CHK003 - env-var registry: every ``REPRO_*`` variable read in code is
documented, and everything documented is actually read.

The toolkit's behavior knobs are environment variables; their one
contract is the table printed by ``repro --help`` (the ``_ENV_VAR_HELP``
epilog in ``cli.py``) mirrored into the README.  A variable read in
code but missing from either is invisible to users; a table row for a
variable nothing reads is a lie waiting to mislead.  This pass
cross-checks all three surfaces:

* *code vars*: every string literal in the scan tree that is exactly a
  ``REPRO_[A-Z0-9_]+`` token (the repo's convention: each env var is
  introduced as a named constant, e.g. ``ENGINE_ENV_VAR = "REPRO_ENGINE"``);
* *help table*: the ``REPRO_*`` tokens inside the ``_ENV_VAR_HELP``
  string (any module of the tree may define it);
* *README*: the ``REPRO_*`` tokens anywhere in the repo's README.md.

Code vars must appear in both documents; table rows must correspond to
a code var.  Trees that define no ``_ENV_VAR_HELP`` (or have no README)
skip the corresponding direction - fixture mini-trees opt in by
shipping both files.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from tools.check.project import Project

RULE = "CHK003"
TITLE = "env-var registry: REPRO_* reads match --help table and README"

_TOKEN = re.compile(r"REPRO_[A-Z0-9_]+")
_HELP_NAME = "_ENV_VAR_HELP"


def _find_help_table(project: Project) -> Optional[Tuple[str, str, int]]:
    """``(rel_path, table_text, lineno)`` of the ``_ENV_VAR_HELP`` constant."""
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == _HELP_NAME
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    return module.rel, node.value.value, node.lineno
    return None


def run(project: Project) -> List:
    from tools.check import Violation

    # var -> first (rel path, line) reading it
    code_vars: Dict[str, Tuple[str, int]] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _TOKEN.fullmatch(node.value)
            ):
                code_vars.setdefault(node.value, (module.rel, node.lineno))

    violations: List[Violation] = []
    table = _find_help_table(project)
    table_vars = set(_TOKEN.findall(table[1])) if table else set()
    readme = project.readme_path
    readme_vars = (
        set(_TOKEN.findall(readme.read_text(encoding="utf-8"))) if readme else set()
    )

    for var in sorted(code_vars):
        path, line = code_vars[var]
        if table and var not in table_vars:
            violations.append(
                Violation(
                    rule=RULE,
                    path=path,
                    line=line,
                    symbol=var,
                    message=(
                        f"env var {var} is read in code but missing from the "
                        f"_ENV_VAR_HELP table ({table[0]})"
                    ),
                )
            )
        if readme is not None and var not in readme_vars:
            violations.append(
                Violation(
                    rule=RULE,
                    path=path,
                    line=line,
                    symbol=f"{var}@README",
                    message=(
                        f"env var {var} is read in code but undocumented in "
                        "README.md"
                    ),
                )
            )
    if table:
        for var in sorted(table_vars - set(code_vars)):
            violations.append(
                Violation(
                    rule=RULE,
                    path=table[0],
                    line=table[2],
                    symbol=var,
                    message=(
                        f"env var {var} appears in the _ENV_VAR_HELP table "
                        "but nothing in the tree reads it"
                    ),
                )
            )
    return violations
