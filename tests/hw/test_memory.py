"""Tests for memory regions and hardware access control."""

from dataclasses import FrozenInstanceError

import pytest

from repro.hw.memory import (
    AccessContext,
    AccessPolicy,
    AccessViolation,
    DeviceMemory,
    MemoryRegion,
    RegionKind,
)


def build_memory() -> DeviceMemory:
    memory = DeviceMemory()
    memory.add_region(MemoryRegion("rom", 0, 64, RegionKind.ROM,
                                   AccessPolicy.rom_code(),
                                   bytearray(b"\xAA" * 64)))
    memory.add_region(MemoryRegion("key", 64, 16, RegionKind.ROM,
                                   AccessPolicy.secret_key(),
                                   bytearray(b"\x11" * 16)))
    memory.add_region(MemoryRegion("ram", 80, 128, RegionKind.RAM))
    return memory


def test_region_lookup_and_sizes():
    memory = build_memory()
    assert memory.region("rom").size == 64
    assert memory.total_size() == 64 + 16 + 128
    assert [region.name for region in memory.regions()] == ["rom", "key", "ram"]


def test_unknown_region_raises():
    with pytest.raises(KeyError):
        build_memory().region("flash")


def test_duplicate_region_name_rejected():
    memory = build_memory()
    with pytest.raises(ValueError, match="duplicate"):
        memory.add_region(MemoryRegion("ram", 500, 8, RegionKind.RAM))


def test_overlapping_regions_rejected():
    memory = build_memory()
    with pytest.raises(ValueError, match="overlaps"):
        memory.add_region(MemoryRegion("overlap", 70, 32, RegionKind.RAM))


def test_zero_sized_region_rejected():
    with pytest.raises(ValueError):
        MemoryRegion("empty", 0, 0, RegionKind.RAM)


def test_initial_data_length_must_match():
    with pytest.raises(ValueError):
        MemoryRegion("bad", 0, 8, RegionKind.RAM, data=bytearray(b"\x00" * 4))


def test_normal_read_write_on_open_region():
    memory = build_memory()
    memory.write(80, b"hello", AccessContext.NORMAL)
    assert memory.read(80, 5, AccessContext.NORMAL) == b"hello"


def test_rom_is_not_writable_by_anyone():
    memory = build_memory()
    for context in AccessContext:
        with pytest.raises(AccessViolation):
            memory.write(0, b"\x00", context)


def test_key_readable_only_from_attestation_context():
    memory = build_memory()
    assert memory.read(64, 16, AccessContext.ATTESTATION) == b"\x11" * 16
    with pytest.raises(AccessViolation):
        memory.read(64, 16, AccessContext.NORMAL)
    with pytest.raises(AccessViolation):
        memory.read(64, 16, AccessContext.DMA)


def test_violations_are_recorded():
    memory = build_memory()
    with pytest.raises(AccessViolation):
        memory.read(64, 16, AccessContext.NORMAL)
    assert ("key", AccessContext.NORMAL, "read") in memory.violations


def test_unmapped_access_raises():
    memory = build_memory()
    with pytest.raises(AccessViolation, match="unmapped"):
        memory.read(10_000, 1)


def test_cross_region_access_raises():
    # A read spanning the rom/key boundary is not contained in either region.
    memory = build_memory()
    with pytest.raises(AccessViolation):
        memory.read(60, 8, AccessContext.ATTESTATION)


def test_read_write_region_by_name():
    memory = build_memory()
    memory.write_region("ram", b"abc", offset=10)
    assert memory.read_region("ram")[10:13] == b"abc"


def test_read_region_checks_the_named_regions_policy():
    memory = build_memory()
    assert memory.read_region("key", AccessContext.ATTESTATION) \
        == b"\x11" * 16
    for context in (AccessContext.NORMAL, AccessContext.DMA):
        with pytest.raises(AccessViolation,
                           match=f"{context.value} context may not read "
                                 "region 'key'"):
            memory.read_region("key", context)
    assert memory.violations == [("key", AccessContext.NORMAL, "read"),
                                 ("key", AccessContext.DMA, "read")]


def test_read_region_returns_a_snapshot_of_the_whole_region():
    memory = build_memory()
    ram = memory.region("ram")
    memory.write_region("ram", b"abc", offset=ram.size - 3)
    before = memory.read_region("ram")
    assert type(before) is bytes and len(before) == ram.size
    assert before == memory.read(ram.base, ram.size)
    memory.write_region("ram", b"xyz", offset=ram.size - 3)
    assert before.endswith(b"abc")
    assert memory.read_region("ram").endswith(b"xyz")


def test_write_region_bounds_checked():
    memory = build_memory()
    with pytest.raises(ValueError):
        memory.write_region("ram", b"x" * 64, offset=100)


def test_policy_factories():
    open_policy = AccessPolicy.open()
    assert AccessContext.NORMAL in open_policy.readable
    assert AccessContext.NORMAL in open_policy.writable
    secret = AccessPolicy.secret_key()
    assert secret.readable == frozenset({AccessContext.ATTESTATION})
    assert not secret.writable
    rroc = AccessPolicy.read_only_peripheral()
    assert not rroc.writable and AccessContext.DMA in rroc.readable


POLICY_FACTORIES = [AccessPolicy.open, AccessPolicy.rom_code,
                    AccessPolicy.secret_key, AccessPolicy.attestation_private,
                    AccessPolicy.read_only_peripheral]


@pytest.mark.parametrize("factory", POLICY_FACTORIES)
def test_policy_factories_return_one_frozen_instance(factory):
    policy = factory()
    assert factory() is policy
    with pytest.raises(FrozenInstanceError):
        policy.writable = frozenset(AccessContext)
    with pytest.raises(FrozenInstanceError):
        policy.executable = True


def test_regions_are_mutable_exactly_when_some_context_may_write():
    image = b"\xAB" * 8
    shared = MemoryRegion("rom", 0, 8, RegionKind.ROM,
                          AccessPolicy.rom_code(), image)
    copied = MemoryRegion("rom", 0, 8, RegionKind.ROM,
                          AccessPolicy.rom_code(), bytearray(image))
    blank = MemoryRegion("rroc", 8, 8, RegionKind.PERIPHERAL,
                         AccessPolicy.read_only_peripheral())
    flash = MemoryRegion("flash", 16, 8, RegionKind.FLASH,
                         AccessPolicy.attestation_private(), image)
    assert shared.data is image
    assert type(copied.data) is bytes and copied.data == image
    assert type(blank.data) is bytes and blank.data == bytes(8)
    assert type(flash.data) is bytearray and flash.data == image
