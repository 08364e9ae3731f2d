"""Spans around the benchmark's calls into each quickwake layer.

A span records a layer name, a label (strategy, policy or command), its
start and end on ``time.perf_counter``, the span that was open when it
started, and counts of the work done inside it.  Spans stay in memory
and are summarised when the run ends.

Only the benchmark opens spans; nothing inside the package is traced, so
a layer span is a leaf and its self time equals its duration.  The
benchmark's own phase spans (``bench.setup``, ``bench.timed``) are the
parents, and their self time is the harness's own work between calls.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    label: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, label: str = ""):
        """Open a span for the block; yields its counts dict (or a scratch dict)."""
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, label, self.clock(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record.counts
        finally:
            self._stack.pop()
            record.end = self.clock()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans.

        Spans nest strictly (one stack, one thread), so children never
        overlap and their durations add.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def select(self, name: str, label: str | None = None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and (label is None or s.label == label)
        ]

    def median_duration(self, name: str, label: str | None = None) -> float:
        """Median duration over matching spans; 0 when the layer never ran."""
        picked = self.select(name, label)
        if not picked:
            return 0.0
        return statistics.median(self.spans[i].duration for i in picked)

    def median_self(self, name: str, label: str | None = None) -> float:
        picked = self.select(name, label)
        if not picked:
            return 0.0
        own = self.self_times()
        return statistics.median(own[i] for i in picked)

    def first_counts(self, name: str, label: str | None = None) -> dict:
        picked = self.select(name, label)
        return dict(self.spans[picked[0]].counts) if picked else {}


def span_cost(samples: int = 2000) -> float:
    """Measured seconds one enabled span adds, from timing empty spans."""
    tracer = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / samples
