"""Duration formatting for the CLI's experiment summaries."""

from __future__ import annotations

__all__ = ["format_seconds"]


def format_seconds(seconds: float) -> str:
    """Human-readable duration (``830us``, ``1.24s``, ``2m03s``)."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 120.0:
        return f"{seconds:.2f}s"
    minutes, rem = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rem:02.0f}s"

