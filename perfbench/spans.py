"""In-memory spans recorded by the benchmark around its calls into cliqueops.

A span is one timed call, or one batch of calls, into a layer.  Its name
starts with the layer (`operad.partial_compose`, `verify.verify_cyclic`);
`calls` and `items` count the work inside it.  Spans nest: an operation
span (`bench.<op>`) is the parent of the layer spans it opens.  With
tracing off, `span()` hands back one shared no-op context so that the
plain run pays almost nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.spans.append(self.record)
        return False


class Tracer:
    """Collects spans while `enabled`; one tracer per benchmark process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.enabled = False
        self.pass_index = 0
        self.spans = []
        self.stack = []
        self._next_id = 0

    def span(self, name, calls=1, items=0):
        if not self.enabled:
            return _NULL
        self._next_id += 1
        record = {
            "id": self._next_id,
            "name": name,
            "calls": calls,
            "items": items,
            "run": self.run_id,
            "pass": self.pass_index,
        }
        return _Span(self, record)


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-name totals (seconds, calls, items) and per-layer self time.

    Self time is a span's duration minus the time its children cover;
    the benchmark is serial, so children never overlap.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name = defaultdict(lambda: {"s": 0.0, "calls": 0, "items": 0})
    self_by_layer = defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        entry = by_name[s["name"]]
        entry["s"] += duration
        entry["calls"] += s["calls"]
        entry["items"] += s["items"]
        self_by_layer[layer_of(s["name"])] += duration - child_time[s["id"]]
    return dict(by_name), dict(self_by_layer)
