"""Tests for device profiles, provisioning and key derivation."""

import hashlib

import pytest

import repro.crypto.backend as backend_module
from repro.core import DeviceStatus, ScheduleKind
from repro.crypto.backend import AcceleratedBackend
from repro.fleet import DeviceProfile, derive_device_key
from repro.hw.memory import AccessContext
from repro.hydra.architecture import (
    KERNEL_IMAGE_REGION,
    PRATT_IMAGE_REGION,
    HydraArchitecture,
)
from repro.sim import SimulationEngine
from repro.smartplus.architecture import SmartPlusArchitecture

FIRMWARE = b"profile-test-firmware" + bytes(64)


def smart_profile(**overrides) -> DeviceProfile:
    return DeviceProfile.smartplus(firmware=FIRMWARE, application_size=512,
                                   measurement_interval=10.0,
                                   collection_interval=60.0,
                                   buffer_slots=8, **overrides)


def test_smartplus_provision_builds_ready_device():
    device = smart_profile().provision("unit-1", key=b"\x01" * 16)
    assert isinstance(device.architecture, SmartPlusArchitecture)
    assert device.prover.device_id == "unit-1"
    assert device.key == b"\x01" * 16
    # The healthy digest matches the freshly imaged measured memory.
    assert device.healthy_digest == device.current_digest()


def test_hydra_provision_builds_ready_device():
    profile = DeviceProfile.hydra(firmware=FIRMWARE,
                                  application_size=4096,
                                  measurement_interval=10.0,
                                  collection_interval=60.0)
    device = profile.provision("unit-2", key=b"\x02" * 32)
    assert isinstance(device.architecture, HydraArchitecture)
    assert device.healthy_digest == device.current_digest()


def test_provisioned_device_measures_and_verifies(config):
    del config
    device = smart_profile().provision("unit-3", key=b"\x03" * 16)
    engine = SimulationEngine()
    device.prover.attach(engine)
    engine.run(until=60.0)
    assert device.prover.measurements_taken == 6


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError):
        DeviceProfile(architecture="tpm")


def test_firmware_must_fit_application_region():
    with pytest.raises(ValueError):
        DeviceProfile(firmware=bytes(2048), application_size=512)


def test_provision_requires_exactly_one_key_source():
    profile = smart_profile()
    with pytest.raises(ValueError):
        profile.provision("unit-4")
    with pytest.raises(ValueError):
        profile.provision("unit-4", key=b"\x04" * 16,
                          master_secret=b"master")


def test_key_derivation_is_deterministic_and_per_device():
    first = derive_device_key(b"master", "dev-0001")
    again = derive_device_key(b"master", "dev-0001")
    other_device = derive_device_key(b"master", "dev-0002")
    other_master = derive_device_key(b"backup", "dev-0001")
    assert first == again
    assert first != other_device
    assert first != other_master
    with pytest.raises(ValueError):
        derive_device_key(b"", "dev-0001")


def test_with_config_overrides_schedule():
    profile = smart_profile().with_config(schedule=ScheduleKind.IRREGULAR)
    assert profile.config.schedule is ScheduleKind.IRREGULAR
    # The original profile is untouched (profiles are immutable).
    assert smart_profile().config.schedule is ScheduleKind.REGULAR


def test_infected_device_detected_after_reimage():
    """A provisioned device plugged into the classic verify flow."""
    from repro.fleet import FleetVerifier, InProcessTransport

    device = smart_profile().provision("unit-5", key=b"\x05" * 16)
    engine = SimulationEngine()
    device.prover.attach(engine)
    transport = InProcessTransport(engine)
    transport.register(device)
    verifier = FleetVerifier(device.profile.config)
    verifier.enroll_device(device)

    engine.run(until=20.0)
    device.load_application(b"evil-implant" + bytes(64))
    engine.run(until=40.0)
    device.load_application(FIRMWARE)
    engine.run(until=60.0)

    [report] = verifier.collect_all(transport, collection_time=engine.now)
    assert report.status is DeviceStatus.INFECTED
    assert report.infected_timestamps


class _HashCountingBackend(AcceleratedBackend):
    """Accelerated backend recording every one-shot hash it computes."""

    name = "hash-counting"

    def __init__(self) -> None:
        self.hashes: list[tuple[str, bytes]] = []

    def hash_digest(self, hash_name: str, data: bytes) -> bytes:
        self.hashes.append((hash_name.lower(), bytes(data)))
        return super().hash_digest(hash_name, data)


@pytest.fixture
def counting_backend(monkeypatch):
    backend = _HashCountingBackend()
    monkeypatch.setitem(backend_module._BACKENDS, backend.name, backend)
    return backend


def test_smartplus_provisioning_digests_follow_the_configured_backend(
        counting_backend):
    device = smart_profile(crypto_backend=counting_backend.name).provision(
        "unit-6", master_secret=b"fleet-master")
    measured = device.architecture.read_measured_memory()
    assert ("blake2s", measured) in counting_backend.hashes
    assert device.healthy_digest == hashlib.blake2s(measured).digest()

    counting_backend.hashes.clear()
    rom_image = device.architecture.rom_image
    assert rom_image.code_digest() == hashlib.sha256(rom_image.code).digest()
    assert counting_backend.hashes == [("sha256", rom_image.code)]


def test_hydra_secure_boot_digests_follow_the_configured_backend(
        counting_backend):
    profile = DeviceProfile.hydra(firmware=FIRMWARE, application_size=4096,
                                  crypto_backend=counting_backend.name)
    device = profile.provision("unit-7", key=b"\x07" * 32)
    architecture = device.architecture
    images = {name: architecture.memory.read_region(
                  name, AccessContext.ATTESTATION)
              for name in (KERNEL_IMAGE_REGION, PRATT_IMAGE_REGION)}
    for image in images.values():
        # Once at provisioning, once more when the device boots.
        assert counting_backend.hashes.count(("sha256", image)) == 2

    counting_backend.hashes.clear()
    assert architecture.secure_boot.verify_image(
        PRATT_IMAGE_REGION, images[PRATT_IMAGE_REGION])
    assert counting_backend.hashes == [
        ("sha256", images[PRATT_IMAGE_REGION])]
