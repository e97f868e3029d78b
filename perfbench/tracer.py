"""Outside-in span tracer for the spanforge benchmark.

The tracer wraps public functions by rebinding the names that callers
resolve at call time (for example ``spanforge.spanner.contract``, the
binding the engine uses), so the program itself is never edited.  Spans
are kept in memory as (name, start, end, parent, job) and written out
once the run ends.  Garbage-collector pauses are recorded separately
through ``gc.callbacks``: they cut across layers and are not subtracted
from any span's self time.

Nothing is installed until ``Tracer.job`` is entered, and every wrapped
name is restored when it exits, so untraced jobs in the same process run
the original functions.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


@dataclass(frozen=True)
class WrapPoint:
    """One name to rebind: ``module.attr`` becomes a span called ``name``.

    ``name`` may be a callable of (args, kwargs) to pick the span name per
    call.  ``counts`` maps (args, kwargs, result) to span attributes; it
    runs after the job ends, outside every timed span.
    """

    module: str
    attr: str
    name: str | Callable[[tuple, dict], str]
    counts: Callable[[tuple, dict, Any], dict[str, float]] | None = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


class Tracer:
    def __init__(self, points: list[WrapPoint]):
        self.points = points
        self.spans: list[Span] = []
        self.gc_pauses: list[tuple[int, float, float]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._deferred: list[tuple[Span, Callable, tuple, dict, Any]] = []
        self._job = -1
        self._gc_started: float | None = None

    @contextmanager
    def job(self, job_id: int):
        """Trace one job: install every wrap point, restore them on exit."""
        self._job = job_id
        saved = self._install()
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._stack.clear()
            deferred, self._deferred = self._deferred, []
            for span, counts, args, kwargs, result in deferred:
                span.attrs.update(counts(args, kwargs, result))

    def _install(self) -> list[tuple[Any, str, Any]]:
        saved = []
        for point in self.points:
            try:
                module = importlib.import_module(point.module)
                original = getattr(module, point.attr)
            except (ImportError, AttributeError):
                where = f"{point.module}.{point.attr}"
                if where not in self.missing:
                    self.missing.append(where)
                continue
            saved.append((module, point.attr, original))
            setattr(module, point.attr, self._wrap(original, point))
        return saved

    def _wrap(self, fn: Callable, point: WrapPoint) -> Callable:
        spans, stack, deferred = self.spans, self._stack, self._deferred
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = point.name if isinstance(point.name, str) else point.name(args, kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self._job)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if point.counts is not None:
                deferred.append((span, point.counts, args, kwargs, result))
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pauses.append((self._job, self._gc_started, time.perf_counter()))
            self._gc_started = None

    def dump(self) -> dict:
        return {
            "spans": [s.as_list() for s in self.spans],
            "gc_pauses": self.gc_pauses,
            "missing": self.missing,
        }
