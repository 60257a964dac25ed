"""In-memory call tracer that wraps functions of an already imported package.

A ``Hook`` names one function or method to time.  ``Tracer.install`` wraps
each target and rebinds every module-level name in the package that refers
to the original object, so callers that imported the function by name
(``from .model import gradient``) also go through the wrapper.  Methods are
wrapped on the named class and on every subclass that defines its own
override.  ``Tracer.uninstall`` restores every binding it changed.

Each call becomes one span ``(span_id, parent_id, solve_id, name, start,
end)``; spans stay in a list until ``write_spans`` saves them.  A hook may
carry a ``count`` callback that adds to ``Tracer.counters`` from the call's
arguments and result.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    solve_id: int
    name: str
    start: float
    end: float


@dataclass(frozen=True)
class Hook:
    """Target ``attr`` of ``module`` (``"func"`` or ``"Class.method"``),
    recorded under span ``name``."""
    name: str
    module: str
    attr: str
    count: Callable | None = None  # (tracer, args, kwargs, result) -> None


class Tracer:
    def __init__(self, hooks: list[Hook], package: str = "gpcg"):
        self.hooks = hooks
        self.package = package
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for hook in self.hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.absent.append(hook.name)
                continue
            owner_name, _, meth = hook.attr.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name, None)
                if not isinstance(cls, type) or meth not in vars(cls):
                    self.absent.append(hook.name)
                    continue
                for c in [cls, *_subclasses(cls)]:
                    if meth in vars(c):
                        self._rebind(c, meth, self._wrap(hook, vars(c)[meth]))
            else:
                original = getattr(module, hook.attr, None)
                if not callable(original):
                    self.absent.append(hook.name)
                    continue
                wrapper = self._wrap(hook, original)
                for mod in self._package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _package_modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, hook: Hook, func):
        name, count = hook.name, hook.count
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, self.solve_id, name, start, end))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.perfbench_hook = name
        return traced

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Save every span as gzip-compressed CSV, times relative to the first."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "parent_id", "solve_id", "name", "start_s", "end_s"])
            for s in sorted(self.spans):
                out.writerow([s.span_id, s.parent_id, s.solve_id, s.name,
                              f"{s.start - t0:.9f}", f"{s.end - t0:.9f}"])


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (calls are nested and sequential, so
    children never overlap)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id >= 0:
            child_time[s.parent_id] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += (s.end - s.start) - child_time.get(s.span_id, 0.0)
    return dict(totals)


def call_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        counts[s.name] += 1
    return dict(counts)
