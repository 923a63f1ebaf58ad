"""Engine registry: naming, selection, and scoped overrides.

Selection precedence for :func:`get_engine` with no explicit name:

1. the innermost active :func:`engine_context`;
2. the ``REPRO_ENGINE`` environment variable;
3. ``"csr"`` when numpy is available, else ``"python"``.

The registry adds its two engines lazily on first lookup, so importing
this module costs nothing and works without numpy (the csr engine is
simply absent then).  ``"csr"`` is :class:`~repro.engine.compiled.CompiledEngine`:
it runs the C kernels whenever they compile and load, and its inherited
numpy kernels otherwise (no compiler, ``REPRO_CC=0``, a failed compile),
so a C toolchain changes its speed, never its registration.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.engine.base import TraversalEngine
from repro.errors import EngineError

__all__ = [
    "available_engines",
    "engine_context",
    "get_engine",
    "ENGINE_ENV_VAR",
]

#: Environment variable consulted when no engine is named explicitly.
ENGINE_ENV_VAR = "REPRO_ENGINE"

_ENGINES: Dict[str, TraversalEngine] = {}
_default_override: Optional[str] = None
_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.engine.python_engine import PythonEngine

    _ENGINES["python"] = PythonEngine()
    try:
        from repro.engine.compiled import CompiledEngine
    except ImportError:  # numpy unavailable: the fast backend is gated out
        return
    # Compilation is deferred to the first kernel call.
    _ENGINES["csr"] = CompiledEngine()


def available_engines() -> List[str]:
    """Registered engine names, reference engine first."""
    _ensure_builtins()
    return sorted(_ENGINES, key=lambda name: (name != "python", name))


def get_engine(name: Optional[str] = None) -> TraversalEngine:
    """Resolve an engine by name (None = the current default)."""
    _ensure_builtins()
    if name is None:
        name = _default_override or os.environ.get(ENGINE_ENV_VAR) or (
            "csr" if "csr" in _ENGINES else "python"
        )
    try:
        return _ENGINES[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; available: {', '.join(available_engines())}"
        ) from None


def default_engine_name() -> str:
    """The name :func:`get_engine` would resolve with no argument."""
    return get_engine().name


@contextmanager
def engine_context(name: Optional[str]) -> Iterator[TraversalEngine]:
    """Scoped default-engine override (no-op when ``name`` is None)."""
    global _default_override
    previous = _default_override
    if name is not None:
        get_engine(name)  # validate before entering
        _default_override = name
    try:
        yield get_engine()
    finally:
        _default_override = previous
