"""In-memory spans for the traced benchmark run.

Spans wrap the benchmark's own calls into mmwpl's public functions; nothing
inside the package is instrumented.  A span's self time is its duration minus
the time covered by its child spans.  The untraced run uses ``NULL``, whose
spans do nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects (name, parent, start, end) spans until ``drain`` is called."""

    enabled = True

    def __init__(self):
        self._spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self._spans)
        self._spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self._spans[index][3] = time.perf_counter()

    def drain(self) -> dict[str, float]:
        """Self time in seconds summed per span name; forgets the spans."""
        child_time = defaultdict(float)
        for name, parent, start, end in self._spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, _parent, start, end) in enumerate(self._spans):
            totals[name] += (end - start) - child_time[index]
        self._spans.clear()
        return dict(totals)


class _NullTracer:
    enabled = False

    def span(self, name: str):
        return nullcontext()

    def drain(self) -> dict[str, float]:
        return {}


NULL = _NullTracer()
