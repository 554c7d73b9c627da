"""Tests for the ERASMUS prover."""

import pytest

from repro.core import CollectRequest, ErasmusConfig, ErasmusProver, \
    ScheduleKind
from repro.sim import SimulationEngine, TraceRecorder


def test_manual_measurement_is_stored(erasmus_setup):
    prover, _verifier, _engine, _arch = erasmus_setup
    measurement = prover.take_measurement(25.0)
    assert measurement is not None
    assert prover.measurements_taken == 1
    assert prover.store.newest().timestamp == pytest.approx(25.0)


def test_attached_prover_follows_schedule(erasmus_setup):
    prover, _verifier, engine, _arch = erasmus_setup
    prover.attach(engine)
    engine.run(until=60.0)
    assert prover.measurements_taken == 6
    timestamps = sorted(m.timestamp for m in prover.store.all_measurements())
    assert timestamps == [pytest.approx(t) for t in
                          (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)]


def test_measurement_events_recorded_in_trace(erasmus_setup):
    prover, _verifier, _engine, _arch = erasmus_setup
    engine = SimulationEngine(trace=TraceRecorder())
    prover.attach(engine)
    engine.run(until=30.0)
    events = engine.trace.events("measurement")
    assert len(events) == 3
    assert all(event.details["device"] == "dev-under-test"
               for event in events)


def test_handle_collect_returns_latest_k(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    prover.attach(engine)
    engine.run(until=60.0)
    response = prover.handle_collect(CollectRequest(k=3))
    assert len(response.measurements) == 3
    assert response.measurements[0].timestamp == pytest.approx(60.0)
    assert prover.collections_served == 1
    del verifier


def test_handle_collect_clamps_k_to_buffer(erasmus_setup):
    prover, _verifier, engine, _arch = erasmus_setup
    prover.attach(engine)
    engine.run(until=120.0)
    response = prover.handle_collect(CollectRequest(k=1000))
    assert len(response.measurements) <= prover.store.slots


def test_collection_involves_no_measurement(erasmus_setup):
    prover, _verifier, engine, _arch = erasmus_setup
    prover.attach(engine)
    engine.run(until=40.0)
    taken_before = prover.measurements_taken
    prover.handle_collect(CollectRequest(k=4))
    assert prover.measurements_taken == taken_before


def test_collection_runtime_much_smaller_than_measurement(erasmus_setup):
    prover, _verifier, _engine, arch = erasmus_setup
    collection = prover.collection_runtime()
    measurement = arch.cost_model.measurement_runtime(
        arch.measured_memory_bytes(), arch.mac_name)
    assert collection < measurement / 50


def test_ondemand_collection_costs_more(erasmus_setup):
    prover, _verifier, _engine, _arch = erasmus_setup
    assert prover.collection_runtime(on_demand=True) > \
        prover.collection_runtime(on_demand=False)


def test_critical_task_aborts_measurement(key, config, smartplus_arch):
    busy_windows = [(15.0, 25.0)]

    def critical(time: float) -> bool:
        return any(start <= time < end for start, end in busy_windows)

    prover = ErasmusProver(smartplus_arch, config, device_id="rt-device",
                           critical_task_active=critical)
    engine = SimulationEngine()
    prover.attach(engine)
    engine.run(until=60.0)
    # The measurement at t=20 collides with the busy window and is lost
    # (regular scheduling has no recovery).
    assert prover.measurements_aborted == 1
    assert prover.measurements_missed == 1
    assert prover.measurements_taken == 5


def test_lenient_schedule_recovers_aborted_measurement(key, smartplus_arch):
    config = ErasmusConfig(measurement_interval=10.0, collection_interval=60.0,
                           buffer_slots=8, schedule=ScheduleKind.LENIENT,
                           lenient_window_factor=1.5)
    busy_windows = [(19.0, 21.0)]

    def critical(time: float) -> bool:
        return any(start <= time < end for start, end in busy_windows)

    prover = ErasmusProver(smartplus_arch, config, device_id="rt-device",
                           critical_task_active=critical)
    engine = SimulationEngine()
    prover.attach(engine)
    engine.run(until=60.0)
    assert prover.measurements_aborted == 1
    assert prover.measurements_missed == 0
    # The aborted measurement was retried at the end of its window (t=25).
    timestamps = {round(m.timestamp, 1)
                  for m in prover.store.all_measurements()}
    assert 25.0 in timestamps


def test_busy_fraction_accounts_for_measurement_time(erasmus_setup):
    prover, _verifier, engine, _arch = erasmus_setup
    prover.attach(engine)
    engine.run(until=60.0)
    fraction = prover.busy_fraction(0.0, 60.0)
    assert 0 < fraction < 0.2
    assert prover.is_busy_at(10.0)
    with pytest.raises(ValueError):
        prover.busy_fraction(10.0, 10.0)


def test_irregular_prover_uses_round_robin_storage(key, smartplus_arch):
    config = ErasmusConfig(measurement_interval=10.0, collection_interval=60.0,
                           buffer_slots=16,
                           schedule=ScheduleKind.IRREGULAR)
    prover = ErasmusProver(smartplus_arch, config, device_id="irr",
                           scheduling_key=key)
    assert not prover.store.stateless
    engine = SimulationEngine()
    prover.attach(engine)
    engine.run(until=120.0)
    assert prover.store.overwrites == 0
    assert prover.measurements_taken == prover.store.occupancy()
