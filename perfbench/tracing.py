"""Spans around the benchmark's calls into each layer of the program.

A span is ``(name, start, end, parent, job)``; the layer is the part of
the name before the first dot (``cpu.run`` belongs to ``cpu``).  Spans
stay in memory and are written out once, at the end, as Chrome trace
JSON.  Untraced runs use :data:`NO_TRACE`, whose ``span`` is a shared
no-op context manager.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

#: Layers the benchmark calls into, in report order.
LAYERS = ("asm", "metal", "machine", "cpu", "mem", "mmu", "serve")


class NullTracer:
    """Records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def record(self, name, start, end, job=None, lane=0):
        pass

    def set_job(self, job):
        pass


NO_TRACE = NullTracer()


class Tracer:
    """Records spans in memory; nesting follows the call stack."""

    enabled = True

    def __init__(self):
        self.origin = perf_counter()
        #: [name, start, end, parent index or None, job id, lane]
        self.spans = []
        self._stack = []
        self._job = None

    def set_job(self, job):
        """Tag the spans that follow with request/job id *job*."""
        self._job = job

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self._job, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def record(self, name, start, end, job=None, lane=0):
        """Add a finished root span (for concurrent client requests,
        which do not nest on one stack)."""
        self.spans.append([name, start, end, None, job, lane])

    # -- reports --------------------------------------------------------
    def self_times(self) -> dict:
        """Total self time (span minus its children) per layer, seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child[i]
        return totals

    def durations(self, name) -> list:
        """Durations of every span called *name*, in record order."""
        return [end - start for n, start, end, _, _, _ in self.spans
                if n == name]

    def chrome_trace(self, workload: str) -> dict:
        """The spans as a Chrome trace-event payload (``X`` events)."""
        events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                   "args": {"name": f"perfbench {workload}"}}]
        for i, (name, start, end, parent, job, lane) in enumerate(self.spans):
            events.append({
                "ph": "X", "name": name, "cat": name.split(".", 1)[0],
                "pid": 1, "tid": lane + 1,
                "ts": int((start - self.origin) * 1e6),
                "dur": int((end - start) * 1e6),
                "args": {"span": i, "parent": parent, "job": job},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"exporter": "perfbench", "spans": len(self.spans)}}
