"""The bound measurement step dispatches through the device's backend.

An architecture binds its hash ``H`` and its ``(key, data) -> tag`` MAC
once, when the crypto backend is selected.  Those bound callables must
still call the backend's own ``hash_digest`` / ``hmac_digest`` /
``keyed_blake2s``, so a backend subclass overriding any of them sees
every measurement; a closure over ``hashlib`` would slip past it.
"""

import hashlib
import hmac

import pytest

from repro.arch.base import encode_timestamp
from repro.core import ErasmusConfig, ErasmusProver
from repro.crypto import backend as backend_module
from repro.crypto.backend import AcceleratedBackend
from repro.crypto.mac import get_mac
from repro.hydra import build_hydra_architecture
from repro.sim import SimulationEngine
from repro.smartplus import build_smartplus_architecture

KEY = bytes(range(16))
FIRMWARE = b"step-firmware" + bytes(100)


class _CountingBackend(AcceleratedBackend):
    """Accelerated backend logging every hash and MAC it computes."""

    name = "step-counting"

    def __init__(self) -> None:
        self.hashes: list[tuple[str, bytes]] = []
        self.tags: list[tuple[str, bytes, bytes]] = []

    def hash_digest(self, hash_name, data):
        self.hashes.append((hash_name, bytes(data)))
        return super().hash_digest(hash_name, data)

    def keyed_blake2s(self, key, data, digest_size=32):
        self.tags.append(("keyed-blake2s", bytes(key), bytes(data)))
        return super().keyed_blake2s(key, data, digest_size)

    def hmac_digest(self, hash_name, key, data):
        self.tags.append((f"hmac-{hash_name}", bytes(key), bytes(data)))
        return super().hmac_digest(hash_name, key, data)


class _NoNativeMacBackend(_CountingBackend):
    """A backend that hashes but computes no MAC natively."""

    name = "step-no-mac"

    def supports_mac(self, mac_name):
        return False


def _expected_tag(mac_name, key, data):
    if mac_name == "keyed-blake2s":
        return hashlib.blake2s(data, key=key).digest()
    return hmac.digest(key, data, mac_name[len("hmac-"):])


def _build(architecture, mac_name, backend):
    if architecture == "smart+":
        arch = build_smartplus_architecture(
            KEY, mac_name=mac_name, application_size=256,
            crypto_backend=backend)
    else:
        arch = build_hydra_architecture(
            KEY, mac_name=mac_name, application_size=512,
            measurement_buffer_size=256, crypto_backend=backend)
    arch.load_application(FIRMWARE)
    return arch


def _run_prover(arch, config, until=50.0):
    prover = ErasmusProver(arch, config, device_id="seam")
    observed = []
    prover.measurement_listeners.append(
        lambda device, time, measurement: observed.append(measurement))
    engine = SimulationEngine()
    prover.attach(engine)
    engine.run(until=until)
    assert observed and None not in observed
    return observed


@pytest.mark.parametrize(("architecture", "mac_name"), [
    ("smart+", "keyed-blake2s"), ("smart+", "hmac-sha256"),
    ("smart+", "hmac-sha1"), ("hydra", "keyed-blake2s"),
    ("hydra", "hmac-sha256")])
def test_counting_backend_sees_every_hash_and_tag(architecture, mac_name):
    backend = _CountingBackend()
    arch = _build(architecture, mac_name, backend)
    backend.hashes.clear()
    backend.tags.clear()
    config = ErasmusConfig(measurement_interval=10.0, buffer_slots=8,
                           mac_name=mac_name)
    measurements = _run_prover(arch, config)

    image = arch.read_measured_memory()
    hash_name = {"keyed-blake2s": "blake2s", "hmac-sha256": "sha256",
                 "hmac-sha1": "sha1"}[mac_name]
    assert backend.hashes == [(hash_name, image)] * len(measurements)
    assert backend.tags == [
        (mac_name, KEY, encode_timestamp(m.timestamp) + m.digest)
        for m in measurements]
    for measurement in measurements:
        assert measurement.digest == hashlib.new(hash_name, image).digest()
        assert measurement.tag == _expected_tag(
            mac_name, KEY, encode_timestamp(measurement.timestamp)
            + measurement.digest)


def test_prover_config_backend_rebinds_the_step(monkeypatch):
    backend = _CountingBackend()
    monkeypatch.setitem(backend_module._BACKENDS, backend.name, backend)
    arch = _build("smart+", "hmac-sha256", "accelerated")
    config = ErasmusConfig(measurement_interval=10.0, buffer_slots=8,
                           mac_name="hmac-sha256",
                           crypto_backend=backend.name)
    measurements = _run_prover(arch, config)
    assert arch.crypto_backend is backend
    assert len(backend.tags) == len(measurements) == 5
    assert [tag[0] for tag in backend.tags] == ["hmac-sha256"] * 5


@pytest.mark.parametrize("mac_name",
                         ["keyed-blake2s", "hmac-sha256", "hmac-sha1"])
def test_backend_without_the_mac_falls_back_to_the_reference(mac_name):
    backend = _NoNativeMacBackend()
    arch = _build("smart+", mac_name, backend)
    backend.hashes.clear()
    config = ErasmusConfig(measurement_interval=10.0, buffer_slots=8,
                           mac_name=mac_name)
    measurements = _run_prover(arch, config)

    assert backend.tags == []
    assert len(backend.hashes) == len(measurements)
    algorithm = get_mac(mac_name)
    for measurement in measurements:
        data = encode_timestamp(measurement.timestamp) + measurement.digest
        assert measurement.tag == algorithm.mac(KEY, data,
                                                backend=backend)
        assert measurement.tag == algorithm.mac(KEY, data,
                                                backend="reference")
