"""Spans recorded by the benchmark around its calls into each layer.

A span is ``(name, start, end, parent, request id)``.  Spans stay in
memory and are written as JSON when the run ends.  A span's self time
is its duration minus the time its child spans cover; children of one
span run on the parent's thread, one after another, so their durations
add up without overlap.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class Tracer:
    """Collects spans when enabled; costs one attribute test when not."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, request_id: Optional[int] = None):
        if not self.enabled:
            return _NULL
        return self._span(name, request_id)

    @contextlib.contextmanager
    def _span(self, name: str, request_id: Optional[int]):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent["request"]
        record = {
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "request": request_id,
            "children_ns": 0,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent["children_ns"] += record["end"] - record["start"]

    def durations(self, name: str) -> List[float]:
        """Seconds spent in every finished span called ``name``."""
        return [
            (s["end"] - s["start"]) / 1e9
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def median_ms(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) * 1000.0 if values else 0.0

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total seconds and self seconds."""
        table: Dict[str, dict] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            entry = table.setdefault(
                span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span["end"] - span["start"]
            entry["count"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - span["children_ns"]) / 1e9
        return table

    def write(self, path: Path, extra: Optional[dict] = None) -> None:
        document = {
            "spans": [
                {k: v for k, v in span.items() if k != "children_ns"}
                for span in self.spans
            ],
            "self_time": self.summary(),
        }
        if extra:
            document.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))
