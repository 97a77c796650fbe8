"""In-memory span recording, self-time arithmetic and attribute patching.

A span is ``(id, name, start, end, parent, rid)``: ``parent`` is the span
that caused it (possibly on another thread) and ``rid`` the id of the
end-to-end operation it belongs to.  A span's *self time* is its duration
minus the part of its interval that its children cover; the *residual* of an
operation is the self time of its root span, i.e. the end-to-end time that no
layer span accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; parents default to the thread's open span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Optional[int], str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enclosing(self) -> Optional[Tuple[int, Optional[int], str]]:
        """``(span id, rid, name)`` of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open_names(self) -> Iterator[str]:
        return (name for _, _, name in self._stack())

    @contextlib.contextmanager
    def span(self, name: str, *, parent: Optional[int] = None, rid: Optional[int] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the block as one span; yields its ``attrs`` dict for late additions."""
        stack = self._stack()
        if stack and parent is None:
            parent, inherited_rid, _ = stack[-1]
            rid = inherited_rid if rid is None else rid
        span_id = next(self._ids)
        stack.append((span_id, span_id if rid is None and parent is None else rid, name))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            _, own_rid, _ = stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, own_rid, attrs))

    def record(self, name: str, start: float, end: float, parent: Optional[int],
               rid: Optional[int], **attrs: Any) -> None:
        """Add a span whose interval was measured elsewhere (e.g. a queue wait)."""
        self.spans.append(Span(next(self._ids), name, start, end, parent, rid, attrs))

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span called ``name``.

        Same bookkeeping as :meth:`span`, inlined: wrappers sit on hot paths
        and their own cost lands in their parents' self time.
        """
        ids, spans, clock = self._ids, self.spans, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, rid = stack[-1][:2] if stack else (None, None)
            span_id = next(ids)
            if parent is None:
                rid = span_id
            stack.append((span_id, rid, name))
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, rid, {}))

        return traced

    def dump_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "rid": span.rid,
                    "attrs": span.attrs,
                }, default=str))
                handle.write("\n")


class Patches:
    """Replace attributes where the program looks them up, and undo it all later."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attribute = make(current value)``."""
        own = vars(owner)
        had_own = attribute in own
        raw = own.get(attribute)
        setattr(owner, attribute, make(getattr(owner, attribute)))
        if had_own:
            self._undo.append(lambda: setattr(owner, attribute, raw))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's (clipped) intervals."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
            if child.end > span.start and child.start < span.end
        )
        result[span.span_id] = span.duration - covered
    return result


@dataclass
class LayerTotals:
    """Per span name: call count, summed self time and summed duration."""

    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0


def layer_totals(spans: List[Span], selfs: Dict[int, float]) -> Dict[str, LayerTotals]:
    totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.self_s += selfs[span.span_id]
        entry.inclusive_s += span.duration
    return dict(totals)


def residual_share(spans: List[Span], selfs: Dict[int, float], root: str) -> float:
    """Share of the root spans' total time that no child layer span covers."""
    roots = [span for span in spans if span.name == root]
    total = sum(span.duration for span in roots)
    if total <= 0.0:
        raise ValueError(f"no time recorded under root spans {root!r}")
    return sum(selfs[span.span_id] for span in roots) / total
