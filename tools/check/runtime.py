"""Runtime invariant checks: the CI assertions that used to be greps.

The static passes freeze source-level invariants; these check the
*registry-level* ones that depend on the installed environment - which
engines exist, which backends and toolchains they report - plus the
serve smoke-log format.  They replace the hand-rolled ``grep``s over
``repro engines`` / serve output that ``ci.yml`` accumulated:
a grep over human-oriented text breaks silently when the wording
shifts, and asserts far less than the registry can.

Profiles (``python -m tools.check --engines PROFILE``):

``full``
    A numpy + C-toolchain install: python and csr registered, csr on
    compiled weighted kernels and the compiled interference kernel with
    a loaded kernel library.
``no-numpy``
    A bare install: numpy genuinely absent, only python registered.
``no-compiler``
    numpy without a C toolchain (``REPRO_CC=0``): csr still registered,
    on its inherited numpy kernels and the interpreted interference
    spec, nothing claims a compiler.

No profile may register any other engine, so a retired engine that
comes back fails every profile.

``--serve-log`` parses a ``repro serve`` JSONL transcript (every
response must be ``"ok": true``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

__all__ = ["ENGINE_PROFILES", "check_engines", "check_serve_log"]


def _registry():
    from repro.engine import available_engines, get_engine

    names = available_engines()
    return names, {name: get_engine(name) for name in names}


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401

        return True
    except ImportError:
        return False


def _check_names(names: List[str], expected: Tuple[str, ...]) -> List[str]:
    """Missing expected engines, plus any registration beyond them.

    Every profile names its engines exactly, so a retired engine that
    registers again fails the check like any other stray name.
    """
    failures = [
        f"engine {name!r} not registered (have {names})"
        for name in expected
        if name not in names
    ]
    failures += [
        f"engine {name!r} registered: the engines are {list(expected)}"
        for name in names
        if name not in expected
    ]
    return failures


def _check_full() -> List[str]:
    names, engines = _registry()
    failures = _check_names(names, ("python", "csr"))
    if failures:
        return failures
    csr = engines["csr"]
    if not csr.weighted_backend.startswith("compiled C"):
        failures.append(
            f"csr weighted_backend is {csr.weighted_backend!r}, expected "
            "the compiled C levels"
        )
    if "cache:" not in csr.compiler:
        failures.append(
            f"csr compiler is {csr.compiler!r}, expected a loaded "
            "toolchain with a kernel-cache path"
        )
    if not csr.interference_backend.startswith("compiled C"):
        failures.append(
            f"csr interference_backend is {csr.interference_backend!r}, "
            "expected the compiled C kernel"
        )
    return failures


def _check_no_numpy() -> List[str]:
    failures: List[str] = []
    if _numpy_available():
        failures.append("numpy unexpectedly importable in the no-numpy profile")
    names, _ = _registry()
    if names != ["python"]:
        failures.append(f"expected the python engine alone, have {names}")
    return failures


def _check_no_compiler() -> List[str]:
    failures: List[str] = []
    if not _numpy_available():
        failures.append("numpy missing - the no-compiler profile gates only cc")
    names, engines = _registry()
    failures += _check_names(names, ("python", "csr"))
    csr = engines.get("csr")
    if csr is not None:
        if not csr.weighted_backend.startswith("inherited numpy"):
            failures.append(
                f"csr weighted_backend is {csr.weighted_backend!r}, "
                "expected the inherited numpy kernels"
            )
        if "cache:" in csr.compiler:
            failures.append(
                f"csr compiler is {csr.compiler!r}, expected no toolchain claim"
            )
        spec = engines["python"].interference_backend
        if csr.interference_backend != spec:
            failures.append(
                f"csr interference_backend is {csr.interference_backend!r}, "
                f"expected the spec {spec!r}"
            )
    return failures


ENGINE_PROFILES: Dict[str, Callable[[], List[str]]] = {
    "full": _check_full,
    "no-numpy": _check_no_numpy,
    "no-compiler": _check_no_compiler,
}


def check_engines(profile: str) -> List[str]:
    """Failure messages for one registry profile (empty = pass)."""
    try:
        checker = ENGINE_PROFILES[profile]
    except KeyError:
        return [
            f"unknown engines profile {profile!r} "
            f"(choose from {sorted(ENGINE_PROFILES)})"
        ]
    return checker()


def check_serve_log(path: Path) -> List[str]:
    """Every JSONL response in a ``repro serve`` transcript must be ok."""
    failures: List[str] = []
    responses = 0
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"cannot read serve log {path}: {exc}"]
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            failures.append(f"{path}:{lineno}: not a JSON response: {line[:80]}")
            continue
        responses += 1
        if obj.get("ok") is not True:
            failures.append(f"{path}:{lineno}: response not ok: {line[:120]}")
    if responses == 0:
        failures.append(f"{path}: no JSONL responses found")
    return failures

