"""In-memory span recorder for the traced benchmark run.

A span is one call into a public layer function: its name, start and end
``perf_counter`` readings, the span that was open when it began, and the id
of the ``run_pipeline`` or study call it belongs to.  Spans stay in memory
until ``write`` is called at the end of the run.  A layer's self time is its
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans in call order; ``call`` and ``patched`` open them."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, call id, work items)
        self.call_id = -1
        self._stack = []

    def new_call(self) -> int:
        """Open a new call id; spans until the next one share it."""
        self.call_id += 1
        return self.call_id

    def call(self, name, fn, *args, work=0, **kwargs):
        """Run ``fn`` inside a span named ``name``; ``work`` counts items it handles."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.call_id, work)

    def wrap(self, name, fn, work=None):
        """A function that calls ``fn`` inside a span; ``work(*args)`` sizes it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = work(*args) if work is not None else 0
            return self.call(name, fn, *args, work=items, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Replace ``(owner, attribute, span name, work)`` targets with traced wrappers."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, work in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), work))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def child_time(self, root: int) -> float:
        """Seconds that the direct children of span ``root`` cover (0 if it is absent)."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans[root + 1:]
                   if parent == root)

    def self_times(self, first: int = 0, last: int | None = None, by_call=False) -> dict:
        """``{name: [self seconds, calls, work items]}`` over spans[first:last].

        With ``by_call`` the keys are ``(call id, name)``.
        """
        spans = self.spans[first:last]
        if not spans:
            return {}
        duration = np.array([s[2] - s[1] for s in spans])
        parents = np.array([s[3] - first for s in spans])
        child_time = np.zeros(len(spans))
        inside = parents >= 0
        np.add.at(child_time, parents[inside], duration[inside])
        out = {}
        for (name, _, _, _, call, work), own in zip(spans, duration - child_time):
            entry = out.setdefault((call, name) if by_call else name, [0.0, 0, 0])
            entry[0] += own
            entry[1] += 1
            entry[2] += work
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for index, (name, start, end, parent, call, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start_s": round(start - t0, 9),
                    "end_s": round(end - t0, 9), "parent": parent, "call": call,
                    "work": work,
                }) + "\n")


class NullTracer:
    """Stand-in for untraced runs: calls go straight through."""

    def new_call(self) -> int:
        return 0

    def call(self, name, fn, *args, work=0, **kwargs):
        return fn(*args, **kwargs)

    def mark(self) -> int:
        return 0

    def child_time(self, root: int) -> float:
        return 0.0
