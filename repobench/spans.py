"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, rid)``: *parent* is the index of
the enclosing span on the same thread (or ``None``), *rid* groups the
spans of one request.  Spans stay in memory and are written out once,
when the run ends.  A disabled recorder costs one attribute test per
call, so untraced runs measure the program, not the recorder.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, rid])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds (total
        minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def render(self) -> str:
        rows = sorted(self.summary().items(), key=lambda kv: -kv[1]["total_s"])
        lines = [f"{'span':<34}{'count':>8}{'total s':>11}{'self s':>11}"]
        for name, row in rows:
            lines.append(
                f"{name:<34}{row['count']:>8}{row['total_s']:>11.4f}"
                f"{row['self_s']:>11.4f}"
            )
        return "\n".join(lines)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "rid")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
