"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the span that was open when it
began (its parent) and the collection round it belongs to.  The open
span is tracked in a :class:`contextvars.ContextVar`: every thread and
every asyncio task sees its own chain, so a shard coroutine's spans
nest under that shard's exchange, not under whichever coroutine ran
last, and spans on the socket transport's event-loop thread start
their own chain.  A span that begins with no open parent in its own
chain is parented to the open round span, so work on helper threads
still counts against the round it ran in.

Spans live in flat arrays (one slot per span, about 40 bytes) and are
written out once, by :meth:`SpanRecorder.write_csv`, after the run.

Self time is a span's duration minus the part of it that its children
cover.  Children of one parent may overlap (concurrent shard
exchanges), so the covered part is the length of the union of their
intervals, clipped to the parent's.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Tuple

NO_SPAN = -1


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """``end - start`` minus the union of the children, clipped to it."""
    clipped = ((max(start, child_start), min(end, child_end))
               for child_start, child_end in children)
    return (end - start) - covered_length(clipped)


class SpanRecorder:
    """Thread-safe span store with per-thread, per-task parent chains."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int] = \
            contextvars.ContextVar("perfbench_span", default=NO_SPAN)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._round = array("i")
        self._thread = array("q")
        self._start = array("d")
        self._end = array("d")
        #: Round id stamped on new spans (0 = outside any round).
        self.round_id = 0
        #: The open round span: parent of spans with no parent in
        #: their own chain.
        self.round_span = NO_SPAN

    def name_id(self, name: str) -> int:
        """Intern a span name (call before the hot path)."""
        with self._lock:
            found = self._name_ids.get(name)
            if found is None:
                found = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return found

    # -- recording ------------------------------------------------------
    def open(self, name_id: int, *, detached: bool = False):
        """Start a span; returns ``(span_id, token)``.

        A detached span (one that ends on another thread, such as a
        worker task finishing on the pool's reader thread) does not
        become the parent of spans begun after it; its token is None.
        """
        parent = self._current.get()
        if parent == NO_SPAN:
            parent = self.round_span
        started = self.clock()
        with self._lock:
            span_id = len(self._start)
            self._name.append(name_id)
            self._parent.append(parent)
            self._round.append(self.round_id)
            self._thread.append(threading.get_ident())
            self._start.append(started)
            self._end.append(math.nan)
        token = None if detached else self._current.set(span_id)
        return span_id, token

    def close(self, span_id: int, token=None) -> None:
        """End a span opened by :meth:`open`."""
        ended = self.clock()
        with self._lock:
            self._end[span_id] = ended
        if token is not None:
            self._current.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the ``with`` block as one span."""
        span_id, token = self.open(self.name_id(name))
        try:
            yield span_id
        finally:
            self.close(span_id, token)

    # -- analysis -------------------------------------------------------
    def spans(self) -> Iterator[Tuple[int, str, int, int, float, float]]:
        """``(id, name, parent, round, start, end)`` for every span."""
        for span_id in range(len(self._start)):
            yield (span_id, self.names[self._name[span_id]],
                   self._parent[span_id], self._round[span_id],
                   self._start[span_id], self._end[span_id])

    def unfinished(self) -> int:
        """Spans that were opened but never closed."""
        return sum(1 for end in self._end if math.isnan(end))

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        children: Dict[int, List[int]] = defaultdict(list)
        for span_id, parent in enumerate(self._parent):
            if parent != NO_SPAN:
                children[parent].append(span_id)
        starts, ends = self._start, self._end
        totals: Dict[str, float] = defaultdict(float)
        for span_id in range(len(starts)):
            start, end = starts[span_id], ends[span_id]
            kids = children.get(span_id)
            own = end - start if not kids else self_time(
                start, end, ((starts[kid], ends[kid]) for kid in kids))
            totals[self.names[self._name[span_id]]] += own
        return dict(totals)

    def wall_times(self) -> Dict[str, float]:
        """Per span name, the length of the union of its spans."""
        by_name: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for _id, name, _parent, _round, start, end in self.spans():
            by_name[name].append((start, end))
        return {name: covered_length(intervals)
                for name, intervals in by_name.items()}

    def counts(self) -> Dict[str, int]:
        """Number of spans per name."""
        totals: Dict[str, int] = defaultdict(int)
        for name_id in self._name:
            totals[self.names[name_id]] += 1
        return dict(totals)

    def write_csv(self, path: str) -> None:
        """Write every span, one line each, in one go."""
        lines = ["id,name,parent,round,thread,start,end"]
        for span_id, name, parent, round_id, start, end in self.spans():
            lines.append(f"{span_id},{name},{parent},{round_id},"
                         f"{self._thread[span_id]},{start!r},{end!r}")
        with open(path, "w", encoding="ascii") as stream:
            stream.write("\n".join(lines))
            stream.write("\n")
