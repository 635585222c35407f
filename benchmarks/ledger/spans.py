"""Benchmark-side span recorder: timing from outside, at public boundaries.

A span is ``(name, start, end, parent, op)``: ``parent`` is the span that
was open on the same thread when this one began (the span that caused
it), and ``op`` identifies the operation — every span below one top-level
span shares that span's index. Spans are kept in memory and written out
by the caller when the run ends.

Layers are timed by temporarily replacing *public* methods on their
classes with timing wrappers (``install``) and putting the originals back
(``uninstall``); nothing inside the program is edited and no
underscore-prefixed name is touched. A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``tag(instance, args, result)`` → a value stored on the span (``ref``).
Tag = Callable[[object, tuple, object], object]

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    thread: int
    ref: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans per thread; installs and removes method wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[type, str, object]] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str) -> int:
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            op = self.spans[parent].op if parent >= 0 else index
            self.spans.append(
                Span(name, 0.0, 0.0, parent, op, threading.get_ident())
            )
        stack.append(index)
        self.spans[index].start = self.clock()
        return index

    def end(self, index: int, ref: object = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.ref = ref
        self._open.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    # -- wrappers on public methods -------------------------------------
    def install(
        self, owner: type, attr: str, name: str, tag: Optional[Tag] = None
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        if attr.startswith("_"):
            raise ValueError(f"refusing to wrap private name {owner.__name__}.{attr}")
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(instance, *args, **kwargs):
            index = recorder.begin(name)
            result = None
            try:
                result = original(instance, *args, **kwargs)
                return result
            finally:
                recorder.end(
                    index, tag(instance, args, result) if tag is not None else None
                )

        self._installed.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        """Put every wrapped method back exactly as it was found."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    @contextmanager
    def installed(self, points: List[tuple]) -> Iterator["SpanRecorder"]:
        """``install`` every ``(owner, attr, name[, tag])``; always uninstall."""
        try:
            for point in points:
                self.install(*point)
            yield self
        finally:
            self.uninstall()

    # -- analysis -------------------------------------------------------
    def select(self, name: str, parent: Optional[str] = None) -> List[Span]:
        """Spans called ``name`` (whose direct parent is called ``parent``)."""
        chosen = []
        for span in self.spans:
            if span.name != name:
                continue
            if parent is not None and (
                span.parent < 0 or self.spans[span.parent].name != parent
            ):
                continue
            chosen.append(span)
        return chosen

    def total(self, name: str, parent: Optional[str] = None) -> float:
        """Summed duration of the outermost spans called ``name``.

        A span nested in another of the same name (a public method that
        calls a sibling public method) is already inside its ancestor's
        interval and is not counted twice.
        """
        seconds = 0.0
        for span in self.select(name, parent):
            ancestor = span.parent
            while ancestor >= 0 and self.spans[ancestor].name != name:
                ancestor = self.spans[ancestor].parent
            if ancestor < 0:
                seconds += span.duration
        return seconds

    def count(self, name: str, parent: Optional[str] = None) -> int:
        return len(self.select(name, parent))

    def children_of(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(index)
        return children

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        children = self.children_of()
        seconds = 0.0
        for index, span in enumerate(self.spans):
            if span.name == name:
                seconds += span.duration - covered(
                    [self.spans[child] for child in children.get(index, ())]
                )
        return seconds

    def to_rows(self) -> List[Dict[str, object]]:
        """The spans as JSON-serialisable rows (``ref`` only when simple)."""
        rows = []
        for index, span in enumerate(self.spans):
            row = {
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "op": span.op,
                "thread": span.thread,
            }
            if isinstance(span.ref, (int, float, str, bool)):
                row["ref"] = span.ref
            rows.append(row)
        return rows


@contextmanager
def span(recorder: Optional[SpanRecorder], name: str) -> Iterator[None]:
    """``recorder.span(name)``, or nothing at all in an untraced run."""
    if recorder is None:
        yield
    else:
        with recorder.span(name):
            yield


def covered(spans: List[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    reach = float("-inf")
    for span in sorted(spans, key=lambda item: item.start):
        if span.end <= reach:
            continue
        total += span.end - max(span.start, reach)
        reach = span.end
    return total
