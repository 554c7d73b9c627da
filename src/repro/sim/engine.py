"""The discrete-event simulation engine."""

from __future__ import annotations

import asyncio
import heapq
import math
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventKind
from repro.sim.trace import TraceRecorder


class SimulationError(RuntimeError):
    """Raised for invalid simulation operations (e.g. scheduling in the past)."""


class SimulationEngine:
    """Event-queue simulator with a virtual clock.

    Typical use::

        engine = SimulationEngine()
        engine.schedule(10.0, lambda ev: print("fired"), EventKind.TIMER)
        engine.run(until=100.0)

    The queue is a heap of ``(time, sequence, event)`` tuples.  Event
    times must be finite: a NaN compares false against everything and
    would fire at an arbitrary heap position.

    ``trace`` is an optional :class:`TraceRecorder`; components that
    report what happened (the prover records one ``"measurement"``
    event per attempt) write to it only when one was passed in, so an
    untraced engine keeps no per-event history.
    """

    def __init__(self, trace: Optional[TraceRecorder] = None) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self.trace = trace
        self.events_processed = 0
        self._running = False

    def schedule(self, time: float, callback: Callable[[Event], None],
                 kind: EventKind = EventKind.GENERIC,
                 payload: Any = None) -> Event:
        """Schedule ``callback`` to fire at absolute virtual ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.now}")
        event = Event.create(time, callback, kind, payload)
        heapq.heappush(self._queue, (time, event.sequence, event))
        return event

    def schedule_in(self, delay: float, callback: Callable[[Event], None],
                    kind: EventKind = EventKind.GENERIC,
                    payload: Any = None) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(
                f"delay must be non-negative, got {delay}")
        return self.schedule(self.now + delay, callback, kind, payload)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next pending event, if any."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _pop_due(self, until: Optional[float]) -> Optional[Event]:
        """Pop the next live event due by ``until`` and move the clock to it.

        Cancelled events at the head are discarded on the way; ``None``
        means nothing live is due (the queue is empty or its head lies
        past ``until``).
        """
        queue = self._queue
        while queue:
            time, _sequence, event = queue[0]
            if event.cancelled:
                heapq.heappop(queue)
                continue
            if until is not None and time > until:
                return None
            heapq.heappop(queue)
            self.now = time
            self.events_processed += 1
            return event
        return None

    def step(self) -> Optional[Event]:
        """Process a single event and return it (or ``None`` if idle)."""
        event = self._pop_due(None)
        if event is not None and event.callback is not None:
            event.callback(event)
        return event

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the virtual clock would pass this time.  Events
            scheduled exactly at ``until`` still fire.
        max_events:
            Safety limit on the number of events processed in this call.

        Returns the number of events processed in this call.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        processed = 0
        try:
            while max_events is None or processed < max_events:
                event = self._pop_due(until)
                if event is None:
                    break
                if event.callback is not None:
                    event.callback(event)
                processed += 1
            self._advance_to_horizon(until)
        finally:
            self._running = False
        return processed

    def _advance_to_horizon(self, until: Optional[float]) -> None:
        """Move the idle clock up to ``until`` once the drain got there.

        Only when no pending event remains at or before ``until``: if a
        ``max_events`` cap truncated the drain earlier, jumping the
        clock would strand queued events in the past — a later
        :meth:`step` would move time backwards, and scheduling between
        the stranded events would be falsely rejected.
        """
        if until is None or until <= self.now:
            return
        next_time = self.peek_time()
        if next_time is None or next_time > until:
            self.now = until

    async def run_async(self, until: Optional[float] = None,
                        max_events: Optional[int] = None,
                        yield_every: int = 64) -> int:
        """Awaitable :meth:`run`: drain events, yielding to the loop.

        Control returns to the asyncio event loop every ``yield_every``
        simulation events, so coroutines awaiting on simulation progress
        — an async transport waiting for collection responses, a
        scenario overlapping rounds with measurement schedules — can
        interleave with the drain instead of blocking behind it.  The
        same re-entrancy guard as :meth:`run` applies; concurrent
        *steppers* (e.g. a transport driving :meth:`step` directly while
        this coroutine is suspended) are fine, because each event is
        popped exactly once.
        """
        if yield_every <= 0:
            raise SimulationError("yield_every must be positive")
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        processed = 0
        try:
            while max_events is None or processed < max_events:
                event = self._pop_due(until)
                if event is None:
                    break
                if event.callback is not None:
                    event.callback(event)
                processed += 1
                if processed % yield_every == 0:
                    await asyncio.sleep(0)
            self._advance_to_horizon(until)
        finally:
            self._running = False
        return processed

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _time, _sequence, event in self._queue
                   if not event.cancelled)
