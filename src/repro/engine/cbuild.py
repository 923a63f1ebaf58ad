"""Compile-on-demand loader for the ``csr`` engine's C kernels.

``_ckernels.c`` (the sweep hot pair - ordered BFS + Euler walk, subtree
recompute - the weighted stacked-level relaxation, the detour batch's
escape pass, and Phase S1's interference existence query) ships as
source; no wheel, no build step at install time.
The first time the csr engine needs its kernels this module

1. finds a system C compiler (``$REPRO_CC`` override > ``$CC`` >
   ``cc`` > ``gcc`` > ``clang``; ``REPRO_CC=0`` disables the kernels,
   so csr runs on its numpy kernels); the answer is memoized per
   setting of ``REPRO_CC``, ``CC`` and ``PATH``, so the ``PATH`` scan
   runs once per process while a changed setting still probes again;
2. compiles the source once into a per-version cache directory
   (``$REPRO_CC_CACHE`` > ``$XDG_CACHE_HOME/repro`` > ``~/.cache/repro``
   > a temp dir), with the shared object keyed by a hash of the source,
   the compiler's version banner, and the flags - so upgrading any of
   them recompiles and stale caches are never loaded;
3. loads it with stdlib :mod:`ctypes` and pins argument/return types.

Everything degrades, never raises, at the module boundary:
:func:`kernel_library` returns ``None`` when the kernels are disabled,
no compiler exists, or the compile/load fails (with a one-time
warning), and the csr engine falls back to its numpy kernels.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

__all__ = [
    "CC_ENV_VAR",
    "CC_CACHE_ENV_VAR",
    "CC_FLAGS_ENV_VAR",
    "CFLAGS",
    "KernelLib",
    "cache_dir",
    "cc_disabled",
    "cflags",
    "compiler_description",
    "extra_cflags",
    "find_compiler",
    "kernel_library",
    "toolchain_info",
]

#: ``0`` disables the C kernels (csr runs on numpy); any other value
#: names/paths the compiler to use instead of the ``$CC``/cc/gcc/clang
#: search.
CC_ENV_VAR = "REPRO_CC"

#: Overrides the kernel cache directory.
CC_CACHE_ENV_VAR = "REPRO_CC_CACHE"

#: Extra compiler flags appended to :data:`CFLAGS` (shlex-split), e.g.
#: ``-fsanitize=address,undefined -g`` for the CI sanitizer jobs.  The
#: flags fold into the shared-object cache key, so flipping them
#: recompiles into a distinct cache entry instead of reusing a stale one.
CC_FLAGS_ENV_VAR = "REPRO_CC_FLAGS"

#: One compilation unit, no Python headers: plain C11 at -O3.
CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c11")

_SOURCE = Path(__file__).with_name("_ckernels.c")

#: Memoized per (compiler, effective flags): None -> attempted and
#: unavailable (warned once), else the loaded KernelLib.  Keyed so a
#: test or sanitizer job flipping $REPRO_CC_FLAGS mid-process gets the
#: right library, while repeat calls keep returning the same object.
_loaded: dict = {}


def extra_cflags() -> Tuple[str, ...]:
    """Flags from ``$REPRO_CC_FLAGS`` (shlex-split, possibly empty)."""
    raw = os.environ.get(CC_FLAGS_ENV_VAR, "").strip()
    return tuple(shlex.split(raw)) if raw else ()


def cflags() -> Tuple[str, ...]:
    """The effective compile flags: :data:`CFLAGS` + ``$REPRO_CC_FLAGS``."""
    return CFLAGS + extra_cflags()


def cc_disabled() -> bool:
    """True when ``REPRO_CC=0`` gates the C kernels out."""
    return os.environ.get(CC_ENV_VAR, "").strip() == "0"


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or None.

    Memoized on the three settings it reads (``REPRO_CC``, ``CC``,
    ``PATH``): every kernel call asks, but only a new setting scans
    ``PATH`` again, so mid-process flips apply with no reset hook.
    """
    env = os.environ
    return _probe_compiler(
        env.get(CC_ENV_VAR, "").strip(), env.get("CC", "").strip(), env.get("PATH")
    )


@functools.lru_cache(maxsize=None)
def _probe_compiler(
    override: str, env_cc: str, path: Optional[str]
) -> Optional[str]:
    if override == "0":
        return None
    for cand in [c for c in (override, env_cc) if c] + ["cc", "gcc", "clang"]:
        found = shutil.which(cand, path=path)
        if found:
            return found
    return None


_version_cache: dict = {}


def _cc_version(cc: str) -> str:
    """First line of ``cc --version`` (cache key + human description)."""
    if cc not in _version_cache:
        try:
            proc = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            )
            banner = (proc.stdout or proc.stderr).splitlines()
            _version_cache[cc] = banner[0].strip() if banner else cc
        except OSError:
            _version_cache[cc] = cc
    return _version_cache[cc]


def cache_dir() -> Path:
    """Where compiled kernels live (not created until a compile runs)."""
    override = os.environ.get(CC_CACHE_ENV_VAR, "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def _lib_path(cc: str) -> Path:
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(
        source + _cc_version(cc).encode() + " ".join(cflags()).encode()
    ).hexdigest()[:16]
    return cache_dir() / f"_ckernels-{key}.so"


def _compile(cc: str, lib_path: Path) -> None:
    """Compile the kernels to ``lib_path`` (atomic rename, raise on error)."""
    lib_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(lib_path.parent), prefix=".ckernels-", suffix=".so"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *cflags(), "-o", tmp, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{cc} exited {proc.returncode}: {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, lib_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class KernelLib:
    """The loaded shared object with argument types pinned.

    Array arguments are ``c_void_p`` so callers pass raw
    ``ndarray.ctypes.data`` addresses (or None for the NULL-able
    masks/outputs); scalars are int64.  Foreign calls release the GIL.
    """

    def __init__(self, path: Path, cc: str) -> None:
        self.path = path
        self.cc = cc
        self.cc_version = _cc_version(cc)
        dll = ctypes.CDLL(str(path))
        i64, ptr = ctypes.c_int64, ctypes.c_void_p

        self.bfs_order = dll.repro_bfs_order
        self.bfs_order.restype = i64
        self.bfs_order.argtypes = [
            i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        self.bfs_euler = dll.repro_bfs_euler
        self.bfs_euler.restype = i64
        self.bfs_euler.argtypes = [
            i64, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        self.recompute_subtree = dll.repro_recompute_subtree
        self.recompute_subtree.restype = i64
        self.recompute_subtree.argtypes = [
            i64, ptr, ptr, ptr, ptr, i64, ptr, i64, i64, ptr, ptr, ptr,
        ]
        self.weighted_levels = dll.repro_weighted_levels
        self.weighted_levels.restype = i64
        self.weighted_levels.argtypes = [
            i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        self.detour_escapes = dll.repro_detour_escapes
        self.detour_escapes.restype = i64
        self.detour_escapes.argtypes = [
            i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        self.exists_live_partner = dll.repro_exists_live_partner
        self.exists_live_partner.restype = i64
        self.exists_live_partner.argtypes = [
            i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr, ptr, i64, ptr,
        ]


def kernel_library() -> Optional[KernelLib]:
    """The loaded kernels, compiling on first use; None when unavailable.

    Success and failure are both memoized per process (failure warns
    once); ``REPRO_CC=0`` is honored even between calls, so tests can
    gate an already-warm process back out.
    """
    cc = find_compiler()
    if cc is None:
        return None
    memo_key = (cc, cflags())
    if memo_key in _loaded:
        return _loaded[memo_key]
    try:
        lib_path = _lib_path(cc)
        if not lib_path.exists():
            _compile(cc, lib_path)
        _loaded[memo_key] = KernelLib(lib_path, cc)
    except Exception as exc:  # compile or load failure: degrade, once
        warnings.warn(
            f"C kernels unavailable ({exc}); csr falls back to its numpy kernels",
            RuntimeWarning,
            stacklevel=2,
        )
        _loaded[memo_key] = None
    return _loaded[memo_key]


def compiler_description() -> str:
    """One line for ``repro engines``: toolchain + kernel cache path."""
    if cc_disabled():
        return f"disabled (${CC_ENV_VAR}=0; numpy kernels in use)"
    cc = find_compiler()
    if cc is None:
        return "no C compiler found (cc/gcc/clang; numpy kernels in use)"
    lib = kernel_library()
    if lib is None:
        return f"{_cc_version(cc)} (compile failed; numpy kernels in use)"
    return f"{lib.cc_version} [{' '.join(cflags())}] cache: {lib.path}"


def toolchain_info() -> dict:
    """Toolchain stamp for bench artifacts (JSON-safe)."""
    cc = find_compiler()
    lib = kernel_library()
    return {
        "cc": cc,
        "cc_version": _cc_version(cc) if cc else None,
        "cflags": " ".join(cflags()),
        "kernel_lib": str(lib.path) if lib else None,
        "compiled": lib is not None,
    }
