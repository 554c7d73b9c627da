"""Tests for the ERASMUS verifier."""

import pytest

from repro.adversary import TamperingMalware
from repro.core import CollectResponse, DeviceStatus, ErasmusVerifier, \
    Measurement
from repro.core.verifier import MeasurementVerdict


def run_schedule(prover, engine, until):
    prover.attach(engine)
    engine.run(until=until)


def collect(prover, verifier, time, k=None):
    response = prover.handle_collect(verifier.create_collect_request(k))
    return verifier.verify_collection(prover.device_id, response, time)


def test_healthy_history_verifies(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.HEALTHY
    assert report.measurement_count == 6
    assert report.freshness == pytest.approx(0.0)
    assert not report.detected_infection()


def test_unenrolled_device_rejected(erasmus_setup, config):
    prover, _verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 30.0)
    stranger = ErasmusVerifier(config)
    response = prover.handle_collect(stranger.create_collect_request())
    with pytest.raises(KeyError):
        stranger.verify_collection(prover.device_id, response, 30.0)


def test_infected_measurements_detected(erasmus_setup, malware_image,
                                        firmware):
    prover, verifier, engine, arch = erasmus_setup
    run_schedule(prover, engine, 30.0)
    arch.load_application(malware_image)
    engine.run(until=60.0)
    arch.load_application(firmware)
    engine.run(until=90.0)
    report = collect(prover, verifier, 90.0)
    assert report.status is DeviceStatus.INFECTED
    assert set(report.infected_timestamps) == {40.0, 50.0, 60.0}


def test_empty_response_is_tampered(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    report = verifier.verify_collection(prover.device_id, CollectResponse(),
                                        60.0)
    assert report.status is DeviceStatus.TAMPERED


def test_forged_mac_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    response = prover.handle_collect(verifier.create_collect_request())
    forged = [Measurement(m.timestamp, m.digest, b"\x00" * len(m.tag))
              for m in response.measurements]
    report = verifier.verify_collection(prover.device_id,
                                        CollectResponse(forged), 60.0)
    assert report.status is DeviceStatus.TAMPERED
    assert any("MAC" in anomaly for anomaly in report.anomalies)


def test_deleted_latest_measurements_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    TamperingMalware(prover.store).delete_latest(3)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.TAMPERED
    assert report.missing_intervals >= 1


def test_deleted_middle_measurement_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    slot = prover.store.slot_for_time(30.0)
    prover.store.overwrite_slot(slot, None)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.TAMPERED


def test_allowed_missing_policy_tolerates_gaps(erasmus_setup, config, key):
    prover, strict_verifier, engine, arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    slot = prover.store.slot_for_time(30.0)
    prover.store.overwrite_slot(slot, None)

    lenient_verifier = ErasmusVerifier(config, allowed_missing=2)
    healthy = strict_verifier.healthy_digests(prover.device_id)
    lenient_verifier.enroll(prover.device_id, key, healthy)
    response = prover.handle_collect(lenient_verifier.create_collect_request())
    report = lenient_verifier.verify_collection(prover.device_id, response,
                                                60.0)
    assert report.status is DeviceStatus.HEALTHY
    assert report.missing_intervals == 1
    del arch


def test_duplicate_timestamps_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    TamperingMalware(prover.store).replay_old_measurement()
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.TAMPERED


def test_future_timestamp_detected(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    response = prover.handle_collect(verifier.create_collect_request())
    # Collection claimed to happen before the newest measurement.
    report = verifier.verify_collection(prover.device_id, response, 45.0)
    assert report.status is DeviceStatus.TAMPERED


def test_redundant_recollection_is_not_flagged(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    first = collect(prover, verifier, 60.0)
    engine.run(until=70.0)
    # Collecting again very soon re-fetches mostly known measurements;
    # the paper calls this redundant, not suspicious.
    second = collect(prover, verifier, 70.0)
    assert first.status is DeviceStatus.HEALTHY
    assert second.status is DeviceStatus.HEALTHY


def test_reports_accumulate_per_device(erasmus_setup):
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    collect(prover, verifier, 60.0)
    engine.run(until=120.0)
    collect(prover, verifier, 120.0)
    assert len(verifier.reports_for(prover.device_id)) == 2
    assert verifier.last_collection_time(prover.device_id) == 120.0


def test_software_update_whitelisting(erasmus_setup, malware_image):
    prover, verifier, engine, arch = erasmus_setup
    run_schedule(prover, engine, 30.0)
    # Treat the new image as a legitimate update instead of malware.
    arch.load_application(malware_image)
    from repro.arch.base import hash_for_mac
    verifier.add_healthy_digest(prover.device_id, hash_for_mac(
        arch.mac_name)(arch.read_measured_memory()))
    engine.run(until=60.0)
    report = collect(prover, verifier, 60.0)
    assert report.status is DeviceStatus.HEALTHY


def test_measurement_verdict_acceptable_logic():
    measurement = Measurement(1.0, b"\x00" * 32, b"\x00" * 32)
    good = MeasurementVerdict(measurement, authentic=True, healthy=True)
    assert good.acceptable
    assert not MeasurementVerdict(measurement, authentic=False,
                                  healthy=True).acceptable
    assert not MeasurementVerdict(measurement, authentic=True, healthy=True,
                                  from_future=True).acceptable


def test_verifier_parameter_validation(config):
    with pytest.raises(ValueError):
        ErasmusVerifier(config, schedule_tolerance=1.5)
    with pytest.raises(ValueError):
        ErasmusVerifier(config, allowed_missing=-1)
    verifier = ErasmusVerifier(config)
    with pytest.raises(ValueError):
        verifier.enroll("dev", b"", [])


def test_enrollment_epoch_tracks_material_changes(config):
    verifier = ErasmusVerifier(config)
    start = verifier._enrollment_epoch
    verifier.enroll("dev", b"k" * 16, [b"d" * 32])
    assert verifier._enrollment_epoch == start + 1
    # Identical re-enrollment: nothing changed, caches stay valid.
    verifier.enroll("dev", b"k" * 16, [b"d" * 32])
    assert verifier._enrollment_epoch == start + 1
    # New key: precompiled judges must be rebuilt.
    verifier.enroll("dev", b"j" * 16, [b"d" * 32])
    assert verifier._enrollment_epoch == start + 2
    # New whitelist: ditto.
    verifier.enroll("dev", b"j" * 16, [b"e" * 32])
    assert verifier._enrollment_epoch == start + 3


def test_enrollment_key_change_check_is_constant_time(config, monkeypatch):
    """Re-enrollment key comparison routes through compare_digests."""
    verifier = ErasmusVerifier(config)
    verifier.enroll("dev", b"k" * 16, [b"d" * 32])
    calls = []
    real = verifier.crypto_backend.compare_digests

    def recorder(left, right):
        calls.append((bytes(left), bytes(right)))
        return real(left, right)

    monkeypatch.setattr(verifier.crypto_backend, "compare_digests",
                        recorder)
    verifier.enroll("dev", b"k" * 16, [b"d" * 32])
    assert (b"k" * 16, b"k" * 16) in calls


def test_key_change_invalidates_the_cached_judge(erasmus_setup):
    """Re-enrolling with a new key must not keep judging under the old."""
    prover, verifier, engine, _arch = erasmus_setup
    run_schedule(prover, engine, 60.0)
    response = prover.handle_collect(verifier.create_collect_request())
    first = verifier.verify_collection(prover.device_id, response, 60.0)
    assert first.status is DeviceStatus.HEALTHY
    verifier.enroll(prover.device_id, b"n" * 16,
                    verifier.healthy_digests(prover.device_id))
    report = verifier.verify_collection(prover.device_id, response, 60.0)
    assert report.status is DeviceStatus.TAMPERED
    assert any("failed MAC verification" in anomaly
               for anomaly in report.anomalies)
