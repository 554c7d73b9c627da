"""Tests for the discrete-event simulation engine."""

import math

import pytest

from repro.sim import (
    Event,
    EventKind,
    SimulationEngine,
    SimulationError,
    TraceRecorder,
)


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(5.0, lambda event: order.append("b"))
    engine.schedule(1.0, lambda event: order.append("a"))
    engine.schedule(9.0, lambda event: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == pytest.approx(9.0)


def test_simultaneous_events_fire_in_scheduling_order():
    engine = SimulationEngine()
    order = []
    for index in range(40):
        # Interleave a same-time batch with earlier and later events, so
        # the heap reorders around the batch many times.
        engine.schedule(7.0, lambda event, index=index: order.append(index))
        engine.schedule(float(index % 13), lambda event: None)
        engine.schedule(20.0 - index % 5, lambda event: None)

    def at_seven(event):
        # Events scheduled *at* the current time during a drain queue
        # behind everything already scheduled for that time.
        engine.schedule(7.0, lambda inner: order.append("late"))

    engine.schedule(7.0, at_seven)
    engine.run()
    assert order == list(range(40)) + ["late"]


def test_run_until_stops_before_future_events():
    engine = SimulationEngine()
    fired = []
    engine.schedule(2.0, lambda event: fired.append(2.0))
    engine.schedule(8.0, lambda event: fired.append(8.0))
    processed = engine.run(until=5.0)
    assert processed == 1
    assert fired == [2.0]
    assert engine.now == pytest.approx(5.0)
    engine.run()
    assert fired == [2.0, 8.0]


def test_schedule_in_uses_relative_delay():
    engine = SimulationEngine()
    engine.schedule(4.0, lambda event: engine.schedule_in(
        3.0, lambda inner: None))
    engine.run()
    assert engine.now == pytest.approx(7.0)


def test_scheduling_in_the_past_rejected():
    engine = SimulationEngine()
    engine.schedule(10.0, lambda event: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(5.0, lambda event: None)
    with pytest.raises(SimulationError):
        engine.schedule_in(-1.0, lambda event: None)


def test_cancelled_events_do_not_fire():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(3.0, lambda ev: fired.append("cancelled"))
    engine.schedule(4.0, lambda ev: fired.append("kept"))
    engine.cancel(event)
    engine.run()
    assert fired == ["kept"]


def test_pending_count_excludes_cancelled():
    engine = SimulationEngine()
    events = [engine.schedule(float(index), lambda event: None)
              for index in range(10)]
    for event in events[::3]:
        event.cancel()
    assert engine.pending_count() == 6
    engine.run(max_events=2)
    assert engine.pending_count() == 4
    engine.run()
    assert engine.pending_count() == 0
    assert engine.events_processed == 6


def test_events_can_schedule_more_events():
    engine = SimulationEngine()
    times = []

    def chain(event: Event) -> None:
        times.append(engine.now)
        if len(times) < 5:
            engine.schedule_in(1.0, chain, EventKind.TIMER)

    engine.schedule(1.0, chain, EventKind.TIMER)
    engine.run(until=100.0)
    assert times == [pytest.approx(t) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]


def test_max_events_limit():
    engine = SimulationEngine()
    for index in range(10):
        engine.schedule(float(index), lambda event: None)
    processed = engine.run(max_events=4)
    assert processed == 4
    assert engine.pending_count() == 6


def test_step_returns_event_and_none_when_idle():
    engine = SimulationEngine()
    engine.schedule(1.0, lambda event: None, EventKind.COLLECTION)
    event = engine.step()
    assert event is not None
    assert event.kind is EventKind.COLLECTION
    assert engine.step() is None


def test_events_processed_counter():
    engine = SimulationEngine()
    for index in range(3):
        engine.schedule(float(index + 1), lambda event: None)
    engine.run()
    assert engine.events_processed == 3


def test_run_async_matches_run():
    import asyncio

    times = []
    engine = SimulationEngine()
    for index in range(10):
        engine.schedule(float(index), lambda event: times.append(event.time))
    processed = asyncio.run(engine.run_async(until=20.0, yield_every=3))
    assert processed == 10
    assert times == [float(index) for index in range(10)]
    assert engine.now == 20.0


def test_run_async_rejects_bad_yield_interval_and_reentry():
    import asyncio

    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        asyncio.run(engine.run_async(yield_every=0))

    async def reenter():
        for index in range(8):
            engine.schedule(float(index), lambda event: None)
        # yield_every=1 forces the first drain to suspend after each
        # event, so the second one genuinely starts mid-run.
        first = engine.run_async(yield_every=1)
        second = engine.run_async(max_events=1)
        return await asyncio.gather(first, second,
                                    return_exceptions=True)

    results = asyncio.run(reenter())
    assert any(isinstance(result, SimulationError) for result in results)


def test_truncated_run_does_not_jump_clock_past_pending_events():
    """A max_events-capped drain must not strand queued events behind now."""
    engine = SimulationEngine()
    engine.schedule(5.0, lambda event: None)
    engine.schedule(10.0, lambda event: None)
    processed = engine.run(until=100.0, max_events=1)
    assert processed == 1
    assert engine.now == 5.0  # not 100.0: the t=10 event is still queued
    engine.schedule(50.0, lambda event: None)  # must not be "in the past"
    engine.run(until=100.0)
    assert engine.now == 100.0


@pytest.mark.parametrize("bad_time", [math.nan, math.inf, -math.inf])
def test_non_finite_times_rejected(bad_time):
    engine = SimulationEngine()
    fired = []
    engine.schedule(3.0, lambda event: fired.append(3.0))
    engine.schedule(5.0, lambda event: fired.append(5.0))
    with pytest.raises(SimulationError):
        engine.schedule(bad_time, lambda event: fired.append(bad_time))
    with pytest.raises(SimulationError):
        engine.schedule_in(bad_time, lambda event: fired.append(bad_time))
    assert engine.pending_count() == 2
    engine.run()
    assert fired == [3.0, 5.0]
    assert engine.now == 5.0


def test_events_are_not_ordered_by_themselves():
    engine = SimulationEngine()
    first = engine.schedule(1.0, lambda event: None)
    second = engine.schedule(1.0, lambda event: None)
    with pytest.raises(TypeError):
        sorted([first, second])
    assert first != second and first == first


def test_cancelled_head_is_skipped_by_peek_time_and_step():
    engine = SimulationEngine()
    fired = []
    head = engine.schedule(1.0, lambda event: fired.append("head"))
    engine.schedule(2.0, lambda event: fired.append("next"))
    head.cancel()
    assert engine.peek_time() == 2.0
    event = engine.step()
    assert event is not None and event.time == 2.0
    assert fired == ["next"]
    assert engine.now == 2.0

    only = engine.schedule(4.0, lambda event: fired.append("only"))
    engine.cancel(only)
    assert engine.step() is None
    assert engine.peek_time() is None
    assert engine.events_processed == 1


def test_default_engine_keeps_no_trace():
    assert SimulationEngine().trace is None
    recorder = TraceRecorder()
    assert SimulationEngine(trace=recorder).trace is recorder
