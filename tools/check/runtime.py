"""Runtime invariant checks: the CI assertions that used to be greps.

The static passes freeze source-level invariants; these check the
*registry-level* ones that depend on the installed environment - which
engines exist, which transports and toolchains they report - plus two
smoke-log formats.  They replace the hand-rolled ``grep``s over
``repro engines`` / serve / resume output that ``ci.yml`` accumulated:
a grep over human-oriented text breaks silently when the wording
shifts, and asserts far less than the registry can.

Profiles (``python -m tools.check --engines PROFILE``):

``full``
    A numpy + C-toolchain install: all four engines registered, the
    sharded transport on the shared-memory plane with per-sweep
    base-state segments, csr on compiled weighted kernels with a loaded
    kernel library.
``no-numpy``
    A bare install: numpy genuinely absent, only python + sharded
    registered, sharded degraded to the pickle transport.
``no-compiler``
    numpy without a C toolchain (``REPRO_CC=0``): csr and csr-mt still
    registered, csr on its inherited numpy kernels, nothing claims a
    compiler.

No profile may register ``csr-c``: the compiled kernels are csr's own
backend, not an engine of their own.

``--serve-log`` parses a ``repro serve`` JSONL transcript (every
response must be ``"ok": true``); ``--resume-log`` parses ``repro run``
output and requires every experiment to come fully from cache.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Dict, List, Tuple

__all__ = ["ENGINE_PROFILES", "check_engines", "check_serve_log", "check_resume_log"]


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


def _check_names(names: List[str], required: Tuple[str, ...]) -> List[str]:
    """Missing required engines, plus any ``csr-c`` registration."""
    failures = [
        f"engine {name!r} not registered (have {names})"
        for name in required
        if name not in names
    ]
    if "csr-c" in names:
        failures.append("csr-c registered: the C kernels belong to csr")
    return failures


def _check_full() -> List[str]:
    names, engines = _registry()
    failures = _check_names(names, ("python", "csr", "csr-mt", "sharded"))
    if failures:
        return failures
    sharded = engines["sharded"]
    if "shared-memory plane" not in sharded.transport:
        failures.append(
            f"sharded transport is {sharded.transport!r}, expected the "
            "shared-memory plane"
        )
    if "base-state (per sweep)" not in sharded.plane_segments:
        failures.append(
            f"sharded segments are {sharded.plane_segments!r}, expected "
            "per-sweep base-state segments"
        )
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
    for name, engine in engines.items():
        if not engine.threads:
            failures.append(f"engine {name!r} reports no thread budget")
    return failures


def _check_no_numpy() -> List[str]:
    failures: List[str] = []
    if _numpy_available():
        failures.append("numpy unexpectedly importable in the no-numpy profile")
    names, engines = _registry()
    if "python" not in names:
        failures.append(f"pure-python engine missing (have {names})")
    for gated in ("csr", "csr-mt"):
        if gated in names:
            failures.append(f"engine {gated!r} registered without numpy")
    sharded = engines.get("sharded")
    if sharded is None:
        failures.append(f"sharded engine missing (have {names})")
    elif "pickle (shared memory unavailable)" not in sharded.transport:
        failures.append(
            f"sharded transport is {sharded.transport!r}, expected the "
            "pickle fallback"
        )
    return failures


def _check_no_compiler() -> List[str]:
    failures: List[str] = []
    if not _numpy_available():
        failures.append("numpy missing - the no-compiler profile gates only cc")
    names, engines = _registry()
    failures += _check_names(names, ("python", "csr", "csr-mt", "sharded"))
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


_POINTS = re.compile(r"(\d+) points(?:, (\d+) cached)?")


def check_resume_log(path: Path) -> List[str]:
    """Every experiment in a ``repro run`` transcript must be fully cached."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [f"cannot read resume log {path}: {exc}"]
    failures: List[str] = []
    matches = _POINTS.findall(text)
    if not matches:
        failures.append(f"{path}: no 'N points, M cached' lines found")
    for points, cached in matches:
        if not cached or int(points) != int(cached) or int(points) == 0:
            failures.append(
                f"{path}: resume executed points ({points} points, "
                f"{cached or 0} cached) - the content-key cache regressed"
            )
    return failures
