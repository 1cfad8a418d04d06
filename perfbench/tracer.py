"""In-memory span tracer that wraps module attributes from outside.

A span is (id, parent id, name, start, end).  Wrappers are installed only
for a traced run and removed afterwards, so untraced runs execute the
program's own functions.  The program is single-threaded under
``serial=True``, so a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import math
import time

# highest first; ``tail_percentile`` takes the first with ten samples beyond
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())  # fn may be a class
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span_id, parent, name, 0.0, 0.0))
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)

        return traced

    def patch(self, module, attr: str, name: str | None = None):
        """Replace ``module.attr`` by a traced wrapper until ``restore``."""
        original = getattr(module, attr)
        if name is None:
            name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def to_json(self) -> list[list]:
        return [list(s) for s in self.spans]


def tail_percentile(sorted_values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile in
    ``TAIL_PERCENTILES`` with at least ten samples beyond it (nearest rank);
    the maximum, with none beyond, when there are too few samples."""
    n = len(sorted_values)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, sorted_values[rank - 1], n - rank
    return 100.0, (sorted_values[-1] if n else 0.0), 0


def span_stats(spans: list[tuple[int, int, str, float, float]]) -> dict[str, dict]:
    """Per name: calls, busy_s (outermost spans of that name), self_s (minus
    child spans), p50_ms and the tail percentile of the durations."""
    names = {s[0]: s[2] for s in spans}
    parent_of = {s[0]: s[1] for s in spans}
    child_time: dict[int, float] = {}
    for span_id, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for span_id, parent, name, start, end in spans:
        d = end - start
        st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += d - child_time.get(span_id, 0.0)
        ancestor = parent
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parent_of[ancestor]
        if ancestor < 0:
            st["busy_s"] += d
        durations.setdefault(name, []).append(d)
    for name, ds in durations.items():
        ds.sort()
        n = len(ds)
        p50 = ds[n // 2] if n % 2 else 0.5 * (ds[n // 2 - 1] + ds[n // 2])
        pct, value, beyond = tail_percentile(ds)
        stats[name].update(
            p50_ms=1e3 * p50, tail_ms=1e3 * value, tail_percentile=pct, tail_beyond=beyond
        )
    return stats


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, from a wrapped no-op against the bare one."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start - bare) / calls


def top_level_time(spans) -> float:
    return sum(end - start for _, parent, _, start, end in spans if parent < 0)
