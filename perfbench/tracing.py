"""In-memory spans and counters recorded around calls into the epidelay layers.

Spans are taken in the benchmark's own code, around each call into a layer's
public functions; nothing inside the package is instrumented. A span keeps
its wall interval and the CPU time of the thread that ran it, so busy time
under the interpreter lock (threads waiting, not computing) can be told
apart from parallel work.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    op: int
    start: float
    end: float
    cpu: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and integer counters; safe to use from worker threads.
    Span intervals come from `clock`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, layer: str, name: str, op: int):
        start, cpu0 = self.clock(), time.thread_time()
        try:
            yield
        finally:
            span = Span(layer, name, op, start, self.clock(), time.thread_time() - cpu0)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def distinct(self, name: str, key) -> None:
        with self._lock:
            self.keys[name].add(key)

    def select(self, layer: str, name: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.layer == layer and (name is None or s.name == name)]


def call(tracer: Tracer | None, layer: str, name: str, op: int, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    with tracer.span(layer, name, op):
        return fn(*args, **kwargs)


def covered_time(spans: list[Span]) -> float:
    """Length of the union of the spans' wall intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end <= reach:
            continue
        total += s.end - max(s.start, reach)
        reach = s.end
    return total
