"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the hammersim package from
outside, at the module attribute their caller looks up, and records one
span per call: (id, parent id, name, start, end).  Spans stay in memory
until the run ends and are then written out as JSON lines.  A layer's
self time is its span's duration minus the part of that interval its
child spans cover.

A binding that no longer exists (a later change removed or renamed the
function) is skipped, and a layer none of whose bindings exist is
reported as absent instead of failing the run.
"""
from __future__ import annotations

import importlib
import itertools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

ROOT = -1  # parent id of a top-level span


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float


def covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi) covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered(s.start, s.end, children.get(s.id, []))
    return dict(out)


def call_counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += 1
    return dict(out)


def median_durations(spans: list[Span]) -> dict[str, float]:
    by_name: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.end - s.start)
    return {name: statistics.median(d) for name, d in by_name.items()}


def _resolve(target: str):
    """'pkg.module' or 'pkg.module:Class' to the object, None if missing."""
    module_name, _, attr_path = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr_path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# counter hook: called with the recorder and the wrapped call's result
CountHook = Callable[["Recorder", object], None]


class Recorder:
    """In-memory spans and counters from wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.broken_counters: set[str] = set()
        self._ids = itertools.count()
        self._stack = [ROOT]
        self._patches: list[tuple[object, str, object]] = []
        self._present: set[str] = set()
        self._wanted: list[str] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def wrap(self, name: str, fn: Callable, count: CountHook | None = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self.clock

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, name, start, end))
            if count is not None:
                try:
                    count(self, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    self.broken_counters.add(name)
            return result

        return traced

    def install(self, name: str, target: str, attr: str, count: CountHook | None = None) -> bool:
        """Replace target.attr with a traced wrapper; False if it is missing."""
        if name not in self._wanted:
            self._wanted.append(name)
        owner = _resolve(target)
        if owner is None or not callable(getattr(owner, attr, None)):
            return False
        raw = vars(owner).get(attr)
        wrapped = self.wrap(name, getattr(owner, attr), count)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))
        self._present.add(name)
        return True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    @property
    def absent(self) -> list[str]:
        """Layers none of whose bindings could be wrapped."""
        return [n for n in self._wanted if n not in self._present]

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")
