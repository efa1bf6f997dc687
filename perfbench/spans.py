"""Span recording for the traced benchmark run.

Library functions are wrapped where the calling module binds them, for
example ``sketchlab.bench.fd_sketch`` or ``sketchlab.sketch.svd``, so every
call the library makes through that name is recorded.  ``patched`` puts the
original attributes back when it exits; no library source is edited.

A span is ``(name, start, end, parent, thread)`` plus free-form attributes.
The parent is the innermost open span on the same thread, so spans opened on
worker threads start their own trees.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; the benchmark reads them after the run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, dict]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block; an exception leaving it is noted in
        the span's ``error`` attribute and re-raised."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, attrs))
        start = self.clock()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), attrs)
            )

    def bump(self, key: str) -> None:
        """Add one to counter ``key`` of the innermost open span on this
        thread; outside any span the count is dropped."""
        stack = self._stack()
        if stack:
            attrs = stack[-1][1]
            attrs[key] = attrs.get(key, 0) + 1

    def wrap(self, fn: Callable, name: str, describe: Optional[Callable] = None):
        """Return ``fn`` wrapped in a span; ``describe(*args, **kwargs)``
        supplies the span's attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def patched(replacements: Iterable[tuple[object, str, Callable]]):
    """Set each ``(module, attribute, make_wrapper)``: the attribute becomes
    ``make_wrapper(current_value)``.  Every original is restored on exit, in
    reverse order, also when the body raises."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module, attr, make_wrapper in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its children on
    the same thread.  A child on another thread ran beside the parent, not
    inside it, so it takes nothing off the parent's self time."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children.setdefault(parent.id, []).append((lo, hi))
    return {
        s.id: s.duration - _union_length(children.get(s.id, [])) for s in spans
    }


def ancestors(span: Span, by_id: dict[int, Span]):
    """Yield the span's parent, grandparent, ... up to the root."""
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)
