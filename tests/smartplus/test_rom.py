"""Tests for the SMART+ ROM image builder."""

import hashlib

import pytest

from repro.crypto.backend import use_backend
from repro.fleet import DeviceProfile
from repro.hw.memory import AccessContext, AccessViolation
from repro.smartplus import build_rom_image
from repro.smartplus.architecture import ROM_CODE_REGION, ROM_KEY_REGION
from repro.smartplus.rom import rom_code


def test_rom_image_size_matches_codesize_model():
    image = build_rom_image(b"K" * 16, mac_name="keyed-blake2s",
                            variant="on-demand")
    assert image.code_size == int(round(28.9 * 1024))


def test_rom_image_is_deterministic():
    first = build_rom_image(b"K" * 16, mac_name="hmac-sha256")
    second = build_rom_image(b"other key", mac_name="hmac-sha256")
    assert first.code == second.code
    assert first.code_digest() == second.code_digest()
    assert first.key != second.key


def test_different_variants_have_different_code():
    erasmus = build_rom_image(b"K", variant="erasmus")
    on_demand = build_rom_image(b"K", variant="on-demand")
    assert erasmus.code != on_demand.code
    assert erasmus.code_size < on_demand.code_size


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        build_rom_image(b"")


def _expected_code(variant: str, mac_name: str, size: int) -> bytes:
    pattern = hashlib.sha256(f"smart+/{variant}/{mac_name}".encode()).digest()
    return (pattern * (size // len(pattern) + 1))[:size]


def test_devices_of_one_profile_share_one_rom_code_object():
    profile = DeviceProfile.smartplus(application_size=256)
    first = profile.provision("rom-1", master_secret=b"master")
    second = profile.provision("rom-2", master_secret=b"master")
    first_image = first.architecture.rom_image
    second_image = second.architecture.rom_image
    assert first_image.code is second_image.code
    assert first_image.key != second_image.key
    first_rom = first.architecture.memory.region(ROM_CODE_REGION)
    second_rom = second.architecture.memory.region(ROM_CODE_REGION)
    assert first_rom.data is second_rom.data is first_image.code


@pytest.mark.parametrize("region_name", [ROM_CODE_REGION, ROM_KEY_REGION])
def test_shared_rom_rejects_writes_from_every_context(region_name):
    profile = DeviceProfile.smartplus(application_size=256)
    device = profile.provision("rom-3", master_secret=b"master")
    memory = device.architecture.memory
    region = memory.region(region_name)
    before = bytes(region.data)
    for context in AccessContext:
        with pytest.raises(AccessViolation):
            memory.write_region(region_name, b"\xff" * 8, context=context)
        with pytest.raises(AccessViolation):
            memory.write(region.base, b"\x00", context)
    with pytest.raises(AccessViolation):
        device.architecture.application_write(region_name, 0, b"\xff")
    assert region.data == before
    assert len(memory.violations) == 2 * len(AccessContext) + 1


@pytest.mark.parametrize("backend", ["reference", "accelerated"])
def test_rom_code_and_digest_match_hashlib_on_every_backend(backend):
    with use_backend(backend):
        image = build_rom_image(b"K" * 16, mac_name="hmac-sha1")
        assert image.code == _expected_code("erasmus", "hmac-sha1",
                                            image.code_size)
        assert image.code_digest() == hashlib.sha256(image.code).digest()
        # A shape no other test built: its pattern is hashed on this
        # backend, not served from the shared cache.
        size = 1000 if backend == "reference" else 1001
        code = rom_code("test-only", "hmac-sha1", size, backend=backend)
        assert code == _expected_code("test-only", "hmac-sha1", size)
        assert rom_code("test-only", "hmac-sha1", size) is code
