"""In-memory span recorder for the benchmark's traced runs (stdlib only).

A span is one timed call from the benchmark into the library, named
``<module>.<function>``, or a harness step (``pass``, ``task.<label>``).  A
span opened while another is open records it as its parent, so a span's self
time is its duration minus the time its child spans cover.  Spans can carry
counts; keys starting with ``max_`` keep the largest value, all others are
summed.  Nothing is written while the benchmark runs: the caller summarises
or dumps the spans once at the end.
"""
from __future__ import annotations

import time


class _Span:
    __slots__ = ("recorder", "name", "parent", "start", "end", "counts")

    def __init__(self, recorder: "Recorder", name: str):
        self.recorder = recorder
        self.name = name
        self.parent = -1
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, float] = {}

    def __enter__(self) -> "_Span":
        rec = self.recorder
        self.parent = rec._stack[-1] if rec._stack else -1
        rec._stack.append(len(rec.spans))
        rec.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        self.recorder._stack.pop()
        return False

    def count(self, **counts: float) -> None:
        for key, value in counts.items():
            if key.startswith("max_"):
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


class Recorder:
    """Collects spans in start order; ``span(name)`` is a context manager."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (self time) and merged counts."""
        out: dict[str, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += own
            for key, value in s.counts.items():
                if key.startswith("max_"):
                    row[key] = max(row.get(key, value), value)
                else:
                    row[key] = row.get(key, 0) + value
        return out

    def dump(self) -> list[list]:
        """Every span as [name, parent index, start, end, counts]."""
        return [[s.name, s.parent, s.start, s.end, s.counts] for s in self.spans]


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, **counts: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Tracing off: spans cost one method call and record nothing."""

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN
