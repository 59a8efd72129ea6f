"""In-memory spans for the benchmark's traced runs.

A span records one call into the package: its name, start, end, the
index of the span that was open when it started (-1 for none) and the
run id of the pass it belongs to.  Spans stay in memory while the
benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self._open: list[int] = []
        self.run = 0

    def span(self, name: str):
        return _Span(self, name)

    def self_times(self, run: int) -> dict[str, float]:
        """Seconds per span name in one run, minus the time covered by
        the spans nested directly inside each span."""
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, r in self.spans:
            if r == run and parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, r) in enumerate(self.spans):
            if r == run:
                out[name] += end - start - covered[i]
        return out

    def busy_times(self, run: int) -> dict[str, float]:
        """Seconds per span name in one run, nested spans included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, r in self.spans:
            if r == run:
                out[name] += end - start
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        t._open.append(self.index)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.run])

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._open.pop()
        return False


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Replace each (module, attribute) function with a wrapper that
    records a span named `name`, so calls made inside the package are
    traced too; the originals are restored on exit."""
    saved = []
    try:
        for module, attr, name in targets:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _spanned(tracer, name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper
