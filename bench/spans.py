"""Spans recorded from outside the package, by wrapping module attributes.

Each wrapped call becomes a span with a name, start, end, parent and the
request (strategy run) it belongs to.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
under a set of root spans add up to the roots' total time.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.request,
                    attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, describe=None):
        """`fn` timed as span `name`; `describe(span, args, result)` may add
        attributes once the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if describe is not None:
                    describe(span, args, result)
                return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each (module, attribute, span name, describe) target with
        a traced wrapper; every attribute is restored on exit."""
        originals = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                out.setdefault(span.parent, []).append(i)
        return out

    def self_times(self) -> list[float]:
        kids = self.children()
        return [span.seconds - sum(self.spans[k].seconds
                                   for k in kids.get(i, ()))
                for i, span in enumerate(self.spans)]
