"""In-memory spans recorded from the benchmark's own files.

A span has a name, start and end (``time.perf_counter`` seconds), the index
of its parent span, a run id, and the process's high-water RSS at both ends.
Spans stay in memory while the traced run works and are written out as JSON
lines when it ends.  The program under test carries no tracing of its own;
``patched`` records a span around every call of a public function by
swapping the module attribute for the length of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time


def maxrss_mb() -> float:
    """High-water RSS of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "rss_start_mb": maxrss_mb(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["rss_end_mb"] = maxrss_mb()
            rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str, keep: list = None):
        """Record a span named ``name`` around every call of ``module.attr``;
        with ``keep``, also append each call's (args, kwargs, result) to it.

        Callers that look the attribute up at call time (``module.attr(...)``
        or an unqualified call inside ``module``) go through the wrapper."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if keep is not None:
                keep.append((args, kwargs, result))
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def first(self, name: str) -> dict:
        return next(s for s in self.spans if s["name"] == name)

    def self_time(self, index: int) -> float:
        """Span duration minus the time its direct children cover."""
        s = self.spans[index]
        children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == index)
        return (s["end"] - s["start"]) - children

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(dict(s, id=i), sort_keys=True) + "\n")
