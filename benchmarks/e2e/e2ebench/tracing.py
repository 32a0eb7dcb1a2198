"""In-memory spans around the calls the benchmark makes into each layer.

Spans are recorded from the benchmark's own files (choosing-metrics guide,
section 4): the caller times a call with ``time.perf_counter`` and hands the
finished interval to :meth:`Tracer.add`, so the hot path costs one tuple
append.  Spans are kept in memory and written as a Chrome-trace JSON (open in
``chrome://tracing`` or Perfetto) when the workload ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Optional


class Tracer:
    """Span store for one traced run of one workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start_s, end_s, parent_id, args]; a span's id is its index.
        self._spans: List[list] = []
        self._child_seconds: Dict[int, float] = defaultdict(float)

    def __len__(self) -> int:
        return len(self._spans)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **args) -> int:
        """Record a finished span; returns its id (usable as ``parent``)."""
        self._spans.append([name, start, end, parent, args])
        if parent is not None:
            self._child_seconds[parent] += end - start
        return len(self._spans) - 1

    def begin(self, name: str, start: float, parent: Optional[int] = None,
              **args) -> int:
        """Open a span that encloses calls still to come; close with :meth:`end`."""
        return self.add(name, start, start, parent, **args)

    def end(self, span: int, end: float) -> None:
        self._spans[span][2] = end
        parent = self._spans[span][3]
        if parent is not None:
            self._child_seconds[parent] += end - self._spans[span][1]

    def self_seconds(self, name: str) -> List[float]:
        """Self time of every span called ``name``: its duration minus the
        part of that interval its child spans cover."""
        return [end - start - self._child_seconds.get(index, 0.0)
                for index, (span, start, end, _, _) in enumerate(self._spans)
                if span == name]

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace "complete" events (microseconds)."""
        origin = min((s[1] for s in self._spans), default=0.0)
        events = []
        for index, (name, start, end, parent, args) in enumerate(self._spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": dict(args, id=index, parent=parent, run=self.run_id),
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"run": self.run_id}}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
