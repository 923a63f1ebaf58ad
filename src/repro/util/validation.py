"""Parameter validation helpers with consistent error messages."""

from __future__ import annotations

import os

from repro.errors import ParameterError

__all__ = [
    "check_epsilon",
    "check_probability",
    "check_positive",
    "env_int",
]


def env_int(name: str, default: int) -> int:
    """Read an integer environment override, with a clear domain error.

    Empty/unset falls back to ``default``; anything non-integer raises
    :class:`ParameterError` naming the variable instead of a bare
    ``ValueError`` from deep inside a hot path.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"${name} must be an integer, got {raw!r}") from None


def check_epsilon(epsilon: float, *, name: str = "epsilon") -> float:
    """Validate the tradeoff parameter ``epsilon`` in ``[0, 1]``."""
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {epsilon!r}")
    return eps


def check_probability(p: float, *, name: str = "p") -> float:
    """Validate a probability in ``[0, 1]``."""
    value = float(p)
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} must lie in [0, 1], got {p!r}")
    return value


def check_positive(value: float, *, name: str = "value") -> float:
    """Validate a strictly positive number."""
    v = float(value)
    if not v > 0:
        raise ParameterError(f"{name} must be positive, got {value!r}")
    return v

