"""Spans recorded by the benchmark around its calls into massiveforests.

A span has a name, the layer (module) it is charged to, start and end
times from `time.perf_counter`, the id of the span that was open when it
began, and the run id.  Spans are kept in memory and written once, when the
run ends.  A span's self time is its duration minus the durations of its
child spans.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    """Records nested spans in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, layer):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "layer": layer, "parent": parent,
               "run_id": self.run_id, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_seconds(self):
        """{span id: its duration minus the durations of its child spans}."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def span_seconds(batches=5, n=2000):
    """Cost of one empty span, enter and exit: median over batches."""
    tr = Tracer("probe")
    per_batch = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("probe", "bench"):
                pass
        per_batch.append((time.perf_counter() - t0) / n)
        tr.spans.clear()
    return statistics.median(per_batch)


class NullTracer:
    """Same interface as Tracer; records nothing (the untraced runs)."""

    def span(self, name, layer):
        return contextlib.nullcontext()
