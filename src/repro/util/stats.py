"""Statistics helper: log-log exponent fitting.

The benchmark harness checks *shape* claims of the paper (growth
exponents such as ``n^{3/2}`` or ``n^{1+eps}``) by fitting a straight
line to ``(log n, log size)`` pairs; :func:`fit_loglog` implements the
least-squares fit and reports the exponent, the multiplicative constant
and the coefficient of determination.

Pure Python on purpose: these run on a handful of points per
experiment, and keeping numpy out of the module keeps the whole library
importable on the no-numpy CI matrix (where the python engine proves
the array-free fallback path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["LogLogFit", "fit_loglog"]


@dataclass(frozen=True)
class LogLogFit:
    """Result of fitting ``y ~ constant * x**exponent``."""

    exponent: float
    constant: float
    r_squared: float
    num_points: int

    def predict(self, x: float) -> float:
        """Evaluate the fitted power law at ``x``."""
        return self.constant * float(x) ** self.exponent

    def __str__(self) -> str:
        return (
            f"y ~ {self.constant:.3g} * x^{self.exponent:.3f} "
            f"(R^2={self.r_squared:.4f}, {self.num_points} pts)"
        )


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> LogLogFit:
    """Fit a power law ``y = c * x**a`` by least squares in log-log space.

    Raises ``ValueError`` on fewer than two points or non-positive data,
    since a power-law fit is meaningless there.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points for a power-law fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit requires strictly positive data")
    lx = [math.log(float(x)) for x in xs]
    ly = [math.log(float(y)) for y in ys]
    k = len(lx)
    mean_x = sum(lx) / k
    mean_y = sum(ly) / k
    var_x = sum((x - mean_x) ** 2 for x in lx)
    if var_x == 0:
        raise ValueError("power-law fit requires at least two distinct x values")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly)) / var_x
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly))
    ss_tot = sum((y - mean_y) ** 2 for y in ly)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LogLogFit(
        exponent=float(slope),
        constant=float(math.exp(intercept)),
        r_squared=r_squared,
        num_points=len(xs),
    )

