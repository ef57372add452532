"""In-memory span recorder for the traced benchmark runs.

Spans are recorded only from the benchmark's own files: :class:`Recorder`
wraps public functions of the program at the name each caller actually
uses (a module attribute the caller looks up at call time, or a method on
the class), so ``from x import simulate`` bindings are patched where they
live. Nothing inside ``src/`` is edited.

Every span is ``(name, start, end, parent, attrs)``. The program's traced
paths run on one thread, so a stack gives the parent. A span's self time
is its duration minus the time its direct children cover; summing self
times per name splits the wall clock across layers without double
counting nested calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """Collects spans and counters; installs and removes wrappers."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": {},
        })
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        if self._stack.pop() != span_id:
            raise RuntimeError(f"span {self.spans[span_id]['name']} closed out of order")

    def record(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """A span timed by the caller, with no parent (e.g. one request of many in flight)."""
        self.spans.append({
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": None, "attrs": attrs,
        })

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[Dict[str, Any], tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(attrs, args, result)`` annotates it."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span_id)
            if after is not None:
                after(self.spans[span_id]["attrs"], args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------- analysis

    def self_times(self) -> Dict[int, float]:
        """Self time of every closed span, by span id."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return {
            span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in self.spans
            if span["end"] is not None
        }

    def self_time_by_name(self) -> Dict[str, float]:
        """Self times summed per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for span_id, self_time in self.self_times().items():
            totals[self.spans[span_id]["name"]] += self_time
        return dict(totals)

    def under(self, span: Dict[str, Any], name: str) -> bool:
        """Whether some ancestor of ``span`` is named ``name``."""
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)

    @classmethod
    def load(cls, path: str) -> "Recorder":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        recorder = cls()
        recorder.spans = data["spans"]
        recorder.counters.update(data["counters"])
        return recorder
