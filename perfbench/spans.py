"""Spans recorded around the benchmark's calls into archon's public API.

A span is (name, start, end, parent index, pass id); its layer is the
part of the name before the first dot.  Spans stay in memory and are
written once, at the end, in Chrome Trace Event JSON (Perfetto opens it).
Spans inside archon itself are not recorded here.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.pass_id = 0
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); when enabled, record a span named `name`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.pass_id))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)

    def self_times(self, pass_job: dict[int, str]) -> dict[str, float]:
        """Per layer, its self time in one pass of each workload, summed (s).

        Self time is a span's duration minus the time its child spans
        cover.  For each workload (`pass_job` maps pass id to workload) the
        layer's per-pass self time is the median over that workload's
        passes; the sum over workloads makes every traced run report the
        same quantity, whichever workload it repeats.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_pass: dict[tuple[str, str], dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            key = (name.split(".", 1)[0], pass_job[pass_id])
            per_pass[key][pass_id] += end - start - child_time[i]
        totals: dict[str, float] = defaultdict(float)
        for (layer, _), by_pass in per_pass.items():
            totals[layer] += statistics.median(by_pass.values())
        return dict(totals)

    def write_chrome(self, path: str) -> None:
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": os.getpid(),
                "tid": 1,
                "args": {"pass": pass_id, "parent": parent, "index": i},
            }
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
