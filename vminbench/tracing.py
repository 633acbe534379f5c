"""Span tracing from outside the program.

The benchmark records spans only from its own files: it replaces public
functions and methods of ``repro`` with timing wrappers (on a class, on
a module or on one live instance), keeps every span in memory and
writes them out when the run ends.  Nothing under ``src/`` knows it is
being traced.

A span is ``(id, name, start, end, parent, request, thread)``.  Spans
opened while another span of the same thread is open become its
children; spans of one root share the root's id as their request id.
A span's *self time* is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecord", "Tracer", "in_window", "layer_table", "root_balance", "self_times"]

# (id, name, start, end, parent id or -1, request id, thread ident)
SpanRecord = Tuple[int, str, float, float, int, int, int]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.counts: Dict[str, int] = {}
        self._count_lock = threading.Lock()

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (-1, span_id)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, request, threading.get_ident())
            )

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- patching ---------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        ``owner`` is a class, a module or one instance.  Class-level
        ``classmethod``/``staticmethod`` descriptors keep their kind.
        """
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__))
        else:
            replacement = self.wrap(name, original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(
                json.dumps(["id", "name", "start", "end", "parent", "request", "thread"])
                + "\n"
            )
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: Iterable[SpanRecord]) -> Dict[int, float]:
    """Self time (seconds) of every span, keyed by span id."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, []))
        for span_id, _, start, end, _, _, _ in spans
    }


def in_window(
    spans: Iterable[SpanRecord], window: Tuple[float, float]
) -> List[SpanRecord]:
    """Spans that start inside ``window`` (a (start, end) pair)."""
    lo, hi = window
    return [span for span in spans if lo <= span[2] <= hi]


def layer_table(
    spans: List[SpanRecord], selfs: Dict[int, float]
) -> Dict[str, Dict[str, List[float]]]:
    """Per span name: the list of durations and of self times (seconds)."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for span_id, name, start, end, _, _, _ in spans:
        entry = table.setdefault(name, {"wall": [], "self": []})
        entry["wall"].append(end - start)
        entry["self"].append(selfs[span_id])
    return table


def root_balance(spans: List[SpanRecord], selfs: Dict[int, float]) -> Optional[float]:
    """Relative gap between summed self times and summed root durations.

    Every span's time is either its own or a child's, so the self times
    of a tree add up to its root's duration; a gap means lost spans,
    broken parent links or children overlapping inside one parent.
    ``None`` when there are no spans.
    """
    if not spans:
        return None
    roots = sum(end - start for _, _, start, end, parent, _, _ in spans if parent < 0)
    total_self = sum(selfs.values())
    return abs(total_self - roots) / roots if roots > 0 else 0.0
