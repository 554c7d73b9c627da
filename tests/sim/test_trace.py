"""Tests for the trace recorder."""

import pytest

from repro.sim import SimulationEngine, TraceRecorder


def test_record_and_filter_by_category():
    trace = TraceRecorder()
    trace.record(1.0, "measurement", device="a")
    trace.record(2.0, "collection", device="a")
    trace.record(3.0, "measurement", device="b")
    assert len(trace) == 3
    assert [event.time for event in trace.events("measurement")] == [1.0, 3.0]
    assert trace.categories() == {"measurement", "collection"}


def test_between_filters_by_time_window():
    trace = TraceRecorder()
    for time in (1.0, 5.0, 10.0, 15.0):
        trace.record(time, "tick")
    window = trace.between(4.0, 11.0)
    assert [event.time for event in window] == [5.0, 10.0]
    assert trace.between(4.0, 11.0, category="other") == []


def test_last_returns_most_recent_of_category():
    trace = TraceRecorder()
    assert trace.last("measurement") is None
    trace.record(1.0, "measurement", index=1)
    trace.record(2.0, "measurement", index=2)
    assert trace.last("measurement").details["index"] == 2


def test_details_are_copied_into_event():
    trace = TraceRecorder()
    event = trace.record(1.0, "infection", device="dev1", dwell=30.0)
    assert event.details == {"device": "dev1", "dwell": 30.0}
    assert list(trace)[0] is event


def test_traced_engine_records_one_measurement_event_per_attempt(
        erasmus_setup):
    prover, _verifier, _engine, _arch = erasmus_setup
    # Measurements land every 10 s; the critical task aborts those at
    # 20 s and 50 s.
    prover.critical_task_active = lambda time: time in (20.0, 50.0)
    observed = []
    prover.measurement_listeners.append(
        lambda device, time, measurement: observed.append(
            (time, measurement is None)))
    engine = SimulationEngine(trace=TraceRecorder())
    prover.attach(engine)
    engine.run(until=60.0)

    events = engine.trace.events("measurement")
    assert [(event.time, event.details["aborted"]) for event in events] \
        == observed
    assert len(events) == 6
    assert prover.measurements_aborted == 2
    assert [event.details["timestamp"] for event in events
            if not event.details["aborted"]] == [
        pytest.approx(time) for time in (10.0, 30.0, 40.0, 60.0)]


def test_untraced_engine_runs_provers_without_a_recorder(erasmus_setup):
    prover, _verifier, engine, _arch = erasmus_setup
    assert engine.trace is None
    prover.attach(engine)
    engine.run(until=60.0)
    assert prover.measurements_taken == 6
