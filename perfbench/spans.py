"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing open span (``-1`` at the top).  Spans stay in memory and are
written out once, at the end of the run.  Everything runs on the calling
thread; the recorder is not shared across threads or processes.

A span whose name is already open on the stack is not recorded again, so
a wrapped method that delegates to another wrapped implementation of the
same layer (a subclass calling ``super()``) counts once.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._open: Counter = Counter()

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a span; returns its index (``-1`` when not recorded)."""
        self._open[name] += 1
        if self._open[name] > 1:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, name: str, idx: int) -> None:
        """End the span ``open`` returned ``idx`` for."""
        self._open[name] -= 1
        if idx < 0:
            return
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------
    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` with each call recorded as a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(name, idx)

        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning a generator, with each item's production
        recorded as a span while the caller consumes it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.drive(name, fn(*args, **kwargs))

        return wrapper

    def drive(self, name: str, items) -> Iterator[Any]:
        """Re-yield ``items``, timing every ``next`` as a span."""
        it = iter(items)
        while True:
            idx = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(name, idx)
            yield item

    def counted(self, name: str, fn: Callable, *, within: str = "") -> Callable:
        """``fn`` with its calls counted (only inside span ``within``,
        when given) - for calls too frequent to record as spans."""
        counters = self.counters

        if within:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._open[within]:
                    counters[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- derived figures ----------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        part its direct children cover.  Children run on the same thread
        inside their parent, so they never overlap one another."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def count(self, name: str) -> int:
        """Number of recorded spans called ``name``."""
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "counters": dict(self.counters)}, fh
            )
