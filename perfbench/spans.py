"""In-memory span recorder for the benchmark's traced run.

A span is one call into a layer of canids: its name, start and end
(perf_counter seconds), the span that was open when it began, and the run
id. Spans stay in memory and are written out once, when the run ends.
The untraced runs use NULL_TRACER, whose span() does nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the time its
        children cover (children run one after another, never overlapping)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            own = s["end"] - s["start"] - covered
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class _NullTracer:
    def span(self, name: str):
        return nullcontext()


NULL_TRACER = _NullTracer()
