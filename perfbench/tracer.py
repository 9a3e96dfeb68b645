"""Spans and per-layer timings recorded from the benchmark's own files.

The traced run wraps public functions and methods of objects the
benchmark built (an ``IndexCache``, a ``QueryEngine``, an algorithm
instance, an oracle, a ``KNNServer``'s cache).  Nothing under ``src/``
is changed.  Each wrapped call records a span -- name, start, end, the
span that caused it and the root span it belongs to -- and adds its
duration to a per-name total.  Spans stay in memory and are written out
when the run ends.  With tracing off :meth:`Tracer.wrap` returns the
function unchanged, so the untraced run pays nothing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Spans kept in memory; totals keep counting past it.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self._ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                self._ids += 1
                span_id = self._ids
            parent, root = stack[-1] if stack else (None, span_id)
            stack.append((span_id, root))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.record(name, start, end, span_id, parent, root)

        return traced

    def patch(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by its traced wrapper (once per object)."""
        key = (id(obj), attr)
        if not self.enabled or key in self._patched:
            return
        self._patched.add(key)
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def record(self, name, start, end, span_id=None, parent=None, root=None):
        with self._lock:
            self.calls[name] += 1
            self.seconds[name] += end - start
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, root, name, start, end))

    def mean(self, name: str, scale: float = 1.0) -> float:
        calls = self.calls.get(name, 0)
        return self.seconds[name] / calls * scale if calls else 0.0

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Write the spans as JSON lines, a header line first."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta or {}, "spans": len(self.spans),
                                 "dropped": max(0, sum(self.calls.values())
                                                - len(self.spans))}) + "\n")
            for span_id, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": root,
                    "name": name, "start": start, "end": end,
                }) + "\n")
