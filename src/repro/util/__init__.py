"""Utility layer: text tables, log-log fitting, durations, validation.

These helpers are pure Python, so the whole library stays importable
without numpy.  The experiment harness renders its tables and checks
the paper's growth exponents with them.
"""

from repro.util.stats import fit_loglog
from repro.util.tables import Table, format_float, render_table
from repro.util.timing import format_seconds
from repro.util.validation import (
    check_epsilon,
    check_positive,
    check_probability,
)

__all__ = [
    "fit_loglog",
    "Table",
    "format_float",
    "render_table",
    "format_seconds",
    "check_epsilon",
    "check_positive",
    "check_probability",
]
