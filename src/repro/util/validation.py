"""Parameter validation helpers with consistent error messages."""

from __future__ import annotations

from repro.errors import ParameterError

__all__ = [
    "check_epsilon",
    "check_probability",
    "check_positive",
]


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

