"""In-memory spans and counters around the benchmark's calls into kunzcone.

A span records (id, parent id, op id, name, calls, start ns, end ns).
Spans stay in memory during the run and are written out at the end.
A span's self time is its duration minus the durations of its direct
children; the layer of a span is the part of its name before the first
dot ("cone.dimension" belongs to the layer "cone").
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Used for untraced runs: every call is a no-op."""

    on = False

    def span(self, name: str, calls: int = 1):
        return _NULL_SPAN

    def count(self, name: str, k: int = 1):
        pass


class _Span:
    __slots__ = ("tracer", "name", "calls", "sid", "parent", "t0")

    def __init__(self, tracer, name, calls):
        self.tracer = tracer
        self.name = name
        self.calls = calls

    def __enter__(self):
        tr = self.tracer
        self.sid = tr.next_id
        tr.next_id += 1
        self.parent = tr.stack[-1] if tr.stack else -1
        tr.stack.append(self.sid)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((self.sid, self.parent, tr.op_id, self.name, self.calls, self.t0, t1))
        return False


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.next_id = 0
        self.op_id = -1

    def span(self, name: str, calls: int = 1):
        return _Span(self, name, calls)

    def count(self, name: str, k: int = 1):
        self.counts[name] += k

    def aggregate(self) -> dict:
        """Self ns and calls per span name, plus the counters."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for sid, _, _, name, n, t0, t1 in self.spans:
            self_ns[name] += t1 - t0 - child_ns[sid]
            calls[name] += n
        return {"self_ns": dict(self_ns), "calls": dict(calls), "counts": dict(self.counts)}

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "calls", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
