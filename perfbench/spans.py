"""In-memory span tracer that times calls into ormllm from the outside.

The tracer replaces a function with a timing wrapper at every place an
ormllm module binds it: `lm_forward`, for example, is imported by name into
`model`, `training` and `cli`, so patching only `ormllm.fusion` would miss
most calls. Methods are wrapped on their class. Everything is restored when
the `installed` context exits, and the program itself is never edited.

A span records its name, start, end and parent. Self time is a span's
duration minus the time its direct children cover; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to trace: `attr` names it in `module` (a dotted
    `Class.method` for methods). `label` is the span name, or a callable of
    (args, kwargs) that picks one per call. `around(tracer, call, args,
    kwargs)` may record counters; it must return `call()`."""

    module: str
    attr: str
    label: object
    around: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans = []
        self.counters = defaultdict(float)

    def wrap(self, fn, label, around=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(Span(name=name, start=self.clock(), parent=parent))
            self._stack.append(idx)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(self, lambda: fn(*args, **kwargs), args, kwargs)
            finally:
                span = self.spans[idx]
                span.end = self.clock()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.duration

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every binding of each target while the block runs."""
        undo = []
        try:
            for t in targets:
                undo += self._install(t)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, t: Target):
        home = importlib.import_module(t.module)
        if "." in t.attr:
            cls_name, meth = t.attr.split(".", 1)
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(original, t.label, t.around))
            return [(cls, meth, original)]
        original = getattr(home, t.attr)
        traced = self.wrap(original, t.label, t.around)
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ormllm" or mod_name.startswith("ormllm.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    undo.append((mod, key, original))
        return undo

    # -- aggregation ---------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """calls, total_s and self_s per span name, plus every duration."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += s.duration - s.child_s
            agg["durations"].append(s.duration)
        return out
