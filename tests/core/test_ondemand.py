"""Tests for ERASMUS+OD and the on-demand attestation baseline."""

from dataclasses import replace

import pytest

from repro.arch.base import encode_timestamp, hash_for_mac
from repro.core import (
    DeviceStatus,
    ErasmusProver,
    ErasmusVerifier,
    Measurement,
    OnDemandProver,
    OnDemandRequest,
    OnDemandResponse,
    OnDemandVerifier,
)
from repro.crypto.backend import AcceleratedBackend, register_backend
from repro.crypto.mac import get_mac
from repro.sim import SimulationEngine


class _CountingBackend(AcceleratedBackend):
    """The accelerated backend, counting the MACs routed through it."""

    name = "counting-test"

    def __init__(self) -> None:
        self.macs = 0
        self.bound_macs = 0

    def mac(self, mac_name, key, data):
        self.macs += 1
        return super().mac(mac_name, key, data)

    def mac_function(self, mac_name, key):
        inner = super().mac_function(mac_name, key)

        def counted(data):
            self.bound_macs += 1
            return inner(data)
        return counted


class TestErasmusPlusOD:
    def test_valid_request_returns_fresh_and_history(self, erasmus_setup):
        prover, verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=60.0)
        request = verifier.create_ondemand_request(prover.device_id, 60.0)
        response = prover.handle_ondemand(request, time=61.0)
        assert response.fresh is not None
        assert response.fresh.timestamp == pytest.approx(61.0)
        assert len(response.measurements) >= 5
        report = verifier.verify_ondemand(prover.device_id, request, response,
                                          61.0)
        assert report.status is DeviceStatus.HEALTHY
        assert report.freshness == pytest.approx(0.0)

    def test_request_with_bad_mac_is_refused(self, erasmus_setup):
        prover, _verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        bogus = OnDemandRequest(request_time=30.0, k=3, tag=b"\x00" * 32)
        response = prover.handle_ondemand(bogus, time=31.0)
        assert response.fresh is None
        assert response.measurements == []

    def test_replayed_request_is_refused(self, erasmus_setup):
        prover, verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        request = verifier.create_ondemand_request(prover.device_id, 30.0)
        first = prover.handle_ondemand(request, time=31.0)
        assert first.fresh is not None
        replay = prover.handle_ondemand(request, time=32.0)
        assert replay.fresh is None

    def test_refusal_is_flagged_by_verifier(self, erasmus_setup):
        prover, verifier, engine, _arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        request = verifier.create_ondemand_request(prover.device_id, 30.0)
        bogus = OnDemandRequest(request.request_time, request.k, b"\x00" * 32)
        response = prover.handle_ondemand(bogus, time=31.0)
        report = verifier.verify_ondemand(prover.device_id, request, response,
                                          31.0)
        assert report.status is DeviceStatus.TAMPERED

    def test_fresh_measurement_detects_current_infection(self, erasmus_setup,
                                                         malware_image):
        prover, verifier, engine, arch = erasmus_setup
        prover.attach(engine)
        engine.run(until=30.0)
        arch.load_application(malware_image)
        request = verifier.create_ondemand_request(prover.device_id, 30.0)
        response = prover.handle_ondemand(request, time=31.0)
        report = verifier.verify_ondemand(prover.device_id, request, response,
                                          31.0)
        assert report.status is DeviceStatus.INFECTED


class TestOnDemandBaseline:
    @pytest.fixture
    def ondemand_setup(self, key, config, smartplus_arch):
        healthy = hash_for_mac(config.mac_name)(
            smartplus_arch.read_measured_memory())
        prover = OnDemandProver(smartplus_arch, config, device_id="od-dev")
        verifier = OnDemandVerifier(config)
        verifier.enroll("od-dev", key, [healthy])
        return prover, verifier, smartplus_arch

    def test_valid_attestation(self, ondemand_setup):
        prover, verifier, _arch = ondemand_setup
        request = verifier.create_ondemand_request("od-dev", 10.0)
        response = prover.handle_request(request, time=11.0)
        report = verifier.verify_response("od-dev", request, response, 11.0)
        assert report.status is DeviceStatus.HEALTHY
        assert prover.attestations_served == 1

    def test_dos_request_refused_without_measurement(self, ondemand_setup):
        prover, _verifier, _arch = ondemand_setup
        bogus = OnDemandRequest(request_time=10.0, k=0, tag=b"\x11" * 32)
        response = prover.handle_request(bogus, time=11.0)
        assert response.fresh is None
        assert prover.requests_refused == 1
        assert prover.attestations_served == 0

    def test_current_infection_detected(self, ondemand_setup, malware_image):
        prover, verifier, arch = ondemand_setup
        arch.load_application(malware_image)
        request = verifier.create_ondemand_request("od-dev", 10.0)
        response = prover.handle_request(request, time=11.0)
        report = verifier.verify_response("od-dev", request, response, 11.0)
        assert report.status is DeviceStatus.INFECTED

    def test_mobile_malware_missed_by_on_demand(self, ondemand_setup,
                                                malware_image, firmware):
        # Malware present between attestations leaves no trace for the
        # on-demand baseline: this is the gap ERASMUS closes (Figure 1).
        prover, verifier, arch = ondemand_setup
        arch.load_application(malware_image)
        arch.load_application(firmware)   # malware covered its tracks
        request = verifier.create_ondemand_request("od-dev", 20.0)
        response = prover.handle_request(request, time=21.0)
        report = verifier.verify_response("od-dev", request, response, 21.0)
        assert report.status is DeviceStatus.HEALTHY

    def test_no_response_reported(self, ondemand_setup):
        prover, verifier, _arch = ondemand_setup
        request = verifier.create_ondemand_request("od-dev", 10.0)
        refusal = prover.handle_request(
            OnDemandRequest(request.request_time, 0, b"\x00" * 32), time=11.0)
        report = verifier.verify_response("od-dev", request, refusal, 11.0)
        assert report.status is DeviceStatus.NO_DATA

    def test_fresh_measurement_from_the_future_is_tampered(
            self, ondemand_setup, key, config):
        """A validly MACed record stamped after collection is not fresh."""
        _prover, verifier, arch = ondemand_setup
        request = verifier.create_ondemand_request("od-dev", 10.0)
        digest = hash_for_mac(config.mac_name)(arch.read_measured_memory())
        stamped = 50.0
        tag = get_mac(config.mac_name).mac(
            key, encode_timestamp(stamped) + digest)
        response = OnDemandResponse(
            fresh=Measurement(stamped, digest, tag), measurements=[])
        report = verifier.verify_response("od-dev", request, response, 11.0)
        assert report.verdicts[0].authentic
        assert report.status is DeviceStatus.TAMPERED
        assert "fresh measurement is timestamped in the future" in \
            report.anomalies

    def test_attestation_runtime_includes_request_auth(self, ondemand_setup):
        prover, _verifier, arch = ondemand_setup
        assert prover.attestation_runtime() > \
            arch.cost_model.measurement_runtime(arch.measured_memory_bytes(),
                                                arch.mac_name)


def test_erasmus_vs_ondemand_history_asymmetry(key, config, smartplus_arch,
                                               malware_image, firmware):
    """The central comparison: same transient infection, different verdicts."""
    healthy = hash_for_mac(config.mac_name)(
        smartplus_arch.read_measured_memory())
    erasmus_prover = ErasmusProver(smartplus_arch, config, device_id="dev")
    erasmus_verifier = ErasmusVerifier(config)
    erasmus_verifier.enroll("dev", key, [healthy])
    ondemand_verifier = OnDemandVerifier(config)
    ondemand_verifier.enroll("dev", key, [healthy])

    engine = SimulationEngine()
    erasmus_prover.attach(engine)
    engine.run(until=30.0)
    smartplus_arch.load_application(malware_image)
    engine.run(until=45.0)
    smartplus_arch.load_application(firmware)
    engine.run(until=60.0)

    # ERASMUS sees the infection in its history.
    response = erasmus_prover.handle_collect(
        erasmus_verifier.create_collect_request())
    erasmus_report = erasmus_verifier.verify_collection("dev", response, 60.0)
    assert erasmus_report.status is DeviceStatus.INFECTED

    # An on-demand attestation at the same moment sees a clean device.
    ondemand_prover = OnDemandProver(smartplus_arch, config, device_id="dev")
    request = ondemand_verifier.create_ondemand_request("dev", 60.0)
    od_response = ondemand_prover.handle_request(request, time=61.0)
    od_report = ondemand_verifier.verify_response("dev", request, od_response,
                                                  61.0)
    assert od_report.status is DeviceStatus.HEALTHY


def test_ondemand_verifier_routes_macs_through_the_configured_backend(
        key, config, smartplus_arch):
    """The request tag and the MAC check both use config.crypto_backend."""
    backend = _CountingBackend()
    register_backend(backend)
    counted = replace(config, crypto_backend=backend.name)
    healthy = hash_for_mac(config.mac_name)(
        smartplus_arch.read_measured_memory())
    verifier = OnDemandVerifier(counted)
    verifier.enroll("od-dev", key, [healthy])
    prover = OnDemandProver(smartplus_arch, config, device_id="od-dev")

    request = verifier.create_ondemand_request("od-dev", 10.0)
    assert backend.macs == 1
    response = prover.handle_request(request, time=11.0)
    report = verifier.verify_response("od-dev", request, response, 11.0)
    assert report.status is DeviceStatus.HEALTHY
    assert backend.bound_macs == 1
