"""Span tracing by wrapping a program's functions from outside.

A ``Tracer`` replaces functions at the names their callers look up
(``module.attr`` or ``Class.attr``) with wrappers that record one span
per call: name, start, end and the span that was open when the call
began.  Optional counter functions turn a call's arguments and result
into named counts.  ``restore`` puts every original object back, so
untraced work runs the program's own code with no wrapper in the way.

A name that no longer exists (because the program renamed it) is not
an error: the wrap is skipped and the caller learns which targets were
missing, so it can report the layer as absent.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    """One timed call. ``parent`` is the index of the enclosing span or -1."""

    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts; installs and removes wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers stay."""
        if self._stack:
            raise RuntimeError("cannot reset while a span is open")
        self.spans = []
        self.counts = Counter()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrapper(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(fn, args, kwargs, result))
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, count=None) -> bool:
        """Wrap ``owner.attr`` in a span named ``name``.

        ``count(fn, args, kwargs, result)`` may return a mapping of
        counter increments.  A class-level ``classmethod`` is wrapped as
        a ``classmethod``.  Returns False,
        and changes nothing, when ``owner`` has no such attribute.
        """
        raw = inspect.getattr_static(owner, attr, _MISSING)
        if raw is _MISSING:
            return False
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, count))
        elif callable(raw):
            new = self._wrapper(raw, name, count)
        else:
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, new)
        return True

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> int:
        return len(self._originals)


def bound_argument(fn, args, kwargs, param: str):
    """Value that ``param`` takes in the call ``fn(*args, **kwargs)``."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[param]


# -- span arithmetic ----------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
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


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def inclusive_time(spans, names) -> float:
    """Total duration of spans named in ``names``, counting a span nested
    inside another such span only once (through its outermost ancestor)."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


def self_time(spans, names, selfs=None) -> float:
    """Summed self time of every span named in ``names``."""
    names = set(names)
    selfs = self_times(spans) if selfs is None else selfs
    return sum(t for s, t in zip(spans, selfs) if s.name in names)
