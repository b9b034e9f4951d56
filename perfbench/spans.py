"""Span recording for the traced run.

Spans are recorded only by the benchmark's own code: :func:`patched`
replaces public functions at the module attributes their callers resolve
(``flairr.session.retrieve``, ``flairr.cli.load_csv``, ...) with timing
wrappers, and puts the originals back on exit. Spans stay in memory until
the run ends; they are then written out as JSON lines and reduced to calls
and self time per layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: int


class Tracer:
    """Single-threaded span recorder; the program runs with ``jobs=1``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.request = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._open.append(index)
        try:
            yield
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` inside a span; ``on_call(tracer, args, kwargs, result)``
        records counts at the same boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (duration
        minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span, children in zip(self.spans, child_time):
            entry = stats[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - children
        return dict(stats)


@contextmanager
def patched(targets):
    """Set each ``(dotted module, attribute, replacement)`` and restore the
    originals on exit. A missing attribute raises at once, so a renamed
    import cannot leave a wrapper silently unused."""
    saved = []
    try:
        for module_name, attr, replacement in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, replacement(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
