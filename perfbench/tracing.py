"""In-memory spans around the calls the benchmark makes into bloomclock.

A span is ``(id, parent, name, start, end)`` with times from
``time.perf_counter``.  Spans nest through a stack, so a call made while
another span is open becomes its child.  ``patched`` temporarily replaces
module attributes with span-recording wrappers, which records the calls
one module makes into another (``experiments`` calling ``run``, say)
without changing the package's source.  Counts observed at the same
boundaries go into ``counts``.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

Observer = Callable[[Counter, tuple, Any], None]


class NullTracer:
    """Tracing off: calls go straight through, so untraced passes pay almost nothing."""

    def call(self, name: str, fn: Callable, *args, observe: Observer | None = None):
        return fn(*args)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, fn: Callable, name: str, observe: Observer | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    def call(self, name: str, fn: Callable, *args, observe: Observer | None = None):
        """Call ``fn(*args)`` inside a span, then let ``observe`` count what it returned."""
        return self.wrap(fn, name, observe)(*args)

    @contextlib.contextmanager
    def patched(self, patches) -> Iterator[None]:
        """Wrap each ``(module, attribute, span name, observer)`` for the duration."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
        try:
            for (module, attr, name, observe), (_, _, fn) in zip(patches, originals):
                setattr(module, attr, self.wrap(fn, name, observe))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, _, start, end in self.spans if parent is None)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_s: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            totals[name] += end - start - child_s[span_id]
        return dict(totals)

    def records(self, origin: float) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": name, "start_s": start - origin, "end_s": end - origin}
            for i, p, name, start, end in self.spans
        ]
