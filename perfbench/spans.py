"""In-memory spans recorded by the benchmark around its calls into sgkit.

A span has a name, start and end (perf_counter seconds), its own id, the id of
the span that was open when it started, and the id of the operation (trace)
it belongs to.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.kinds: dict[int, str] = {0: "run"}
        self._open: list[int] = []
        self.trace_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        record = {
            "name": name,
            "id": span_id,
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def new_trace(self, kind: str) -> int:
        """Start a new operation; later spans belong to it."""
        self.trace_id = len(self.kinds)
        self.kinds[self.trace_id] = kind
        return self.trace_id

    def extend(self, spans: list[dict], kind: str) -> int:
        """Adopt spans recorded by a child process, as one new trace."""
        trace = self.new_trace(kind)
        offset = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + offset
            self.spans.append({**s, "id": s["id"] + offset, "parent": parent, "trace": trace})
        return trace


def no_span(name: str):
    """Stand-in for ``Tracer.span`` on untraced runs."""
    return contextlib.nullcontext()


def top_level_total(spans, trace: int) -> float:
    """Time covered by the outermost spans of one trace."""
    return sum(s["end"] - s["start"] for s in spans if s["trace"] == trace and s["parent"] is None)
