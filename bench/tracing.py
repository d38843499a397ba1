"""Spans around the calls into each package layer, recorded from outside.

The tracer replaces module-level bindings (``estimator.solve_lp``,
``design.design_info``, ...) with wrappers that record a span per call:
its name, start, end, parent and the round it belongs to.  Spans stay in
memory until the run ends; per-layer metrics are derived from them
afterwards.  A layer's self time is its span's duration minus the
durations of its direct child spans (the program is single-threaded, so
children never overlap).  A binding that no longer exists is skipped, and
its metrics then read zero calls.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    round: int
    count: int = 0  # work the call reported: LP pivots, cuts, replicates


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call while the tracer is active.

        ``count(result, args)`` returns the work the call reported.
        """

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self.round)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = int(count(result, args))
            return result

        return traced

    def install(self, bindings) -> None:
        """Wrap each ``(owner, attribute, span name, count)`` that exists."""
        for owner, attr, name, count in bindings:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def round_totals(self) -> list[dict[str, dict[str, float]]]:
        """Per traced round: for each span name its calls, time, self time, count."""
        rounds = sorted({s.round for s in self.spans})
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = []
        for r in rounds:
            totals: dict[str, dict[str, float]] = {}
            for i, s in enumerate(self.spans):
                if s.round != r:
                    continue
                t = totals.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
                dur = s.end - s.start
                t["calls"] += 1
                t["s"] += dur
                t["self_s"] += dur - child_time[i]
                t["count"] += s.count
            out.append(totals)
        return out


def per_round_median(rounds: list[dict[str, dict[str, float]]], name: str, key: str) -> float:
    """Median over traced rounds of one span total; 0 when never called."""
    values = [r.get(name, {}).get(key, 0) for r in rounds]
    return float(statistics.median(values)) if values else 0.0
