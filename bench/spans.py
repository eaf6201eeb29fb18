"""In-memory spans around calls into keyedmod's layers, recorded from outside.

A span has a name, start and end times, the span that caused it, and the
trace (one round or one replay) it belongs to. Layer functions are
wrapped by replacing the module attributes that hold them, in every
keyedmod module that imported them, for the duration of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "trace": self.trace,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, namer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(*args, **kwargs) if callable(namer) else namer
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def instrument(self, modules, namers: dict):
        """Wrap each function in ``namers`` wherever one of ``modules`` holds it."""
        by_id = {id(fn): (fn, namer) for fn, namer in namers.items()}
        wrappers = {}
        replaced = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    fn, namer = by_id[id(value)]
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.wrap(fn, namer)
                    setattr(module, attr, wrappers[id(fn)])
                    replaced.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def self_times(self, trace) -> dict[str, float]:
        """Per span name, total duration minus the time covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["trace"] == trace and record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            if record["trace"] == trace:
                duration = record["end"] - record["start"]
                totals[record["name"]] += duration - child_time[index]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")
