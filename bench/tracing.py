"""In-memory spans and counters for the traced benchmark run.

A span has a name, a start, an end, the index of its parent span and the id
of the item (image or sample) it belongs to. Spans stay in memory until the
run ends; a layer's self time is its spans' durations minus the time their
child spans cover. The untraced run uses :class:`NullTracer`, whose ``call``
is a plain function call, so the end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import time

_NULL_CONTEXT = contextlib.nullcontext()


class NullTracer:
    """Records nothing; the untraced run's stand-in for :class:`Tracer`."""

    enabled = False
    item = None

    def span(self, name: str):
        return _NULL_CONTEXT

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        pass


class Tracer:
    """Spans and counts recorded at the benchmark's calls into each layer."""

    enabled = True

    def __init__(self) -> None:
        # each span is [name, start, end, parent index or None, item id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.item = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.item]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _parent, _item), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def durations(self, name: str) -> list[float]:
        """Wall time of every span with this name, in recording order."""
        return [end - start for n, start, end, _p, _i in self.spans if n == name]
