"""In-memory span recorder and lookup-site wrappers for the benchmark.

A span is (id, parent, name, start, end, attrs).  Spans are kept in a list
while the traced pass runs and written out once at the end.  Wrappers are
installed on module attributes, i.e. at the name a caller looks up at call
time, so the program's own source is never edited; ``Patches.restore``
puts the original attributes back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans of one thread; the open span is the parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def start(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans
    }


class Patches:
    """Replaces module attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        wrapper = make_wrapper(original)
        functools.update_wrapper(wrapper, original)
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def span_wrapper(recorder: SpanRecorder, name: str, annotate=None):
    """Wrapper factory: one span per call; ``annotate(span, args, kwargs,
    result)`` may add attributes once the call has returned."""

    def make(fn):
        def wrapper(*args, **kwargs):
            span = recorder.start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder.finish(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return wrapper

    return make
