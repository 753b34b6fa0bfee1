"""In-memory span recorder for the traced benchmark run.

Spans are opened only by the benchmark around its own calls into the
library; nothing inside ``src/`` is instrumented.  Each span records its
name, start, end, parent span and task id.  Counters and samples sit next
to the spans, so work counts are measured at the same boundaries.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Untraced runs: every hook is a no-op, so timing sees no tracing cost."""

    enabled = False

    def span(self, name: str, probe: bool = False):
        return nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass

    def begin_task(self, task_id: int) -> None:
        pass


class Tracer:
    """Records spans, counters and samples in memory; written out at the end."""

    enabled = True

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # span record: [name, start, end, parent index, task id, probe]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._task: int | None = None

    def begin_task(self, task_id: int) -> None:
        self._task = task_id

    @contextmanager
    def span(self, name: str, probe: bool = False):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
               self._task, probe]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, busy seconds (inclusive duration)
        and self seconds (duration minus the part covered by child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _task, _probe in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _parent, _task, _probe) in enumerate(self.spans):
            agg = out.setdefault(name, {"spans": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["spans"] += 1
            agg["busy_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time[i]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, task, probe) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "task": task, "probe": probe}) + "\n")
