"""SMART+ architecture simulation.

Reproduces the memory organization of the paper's Figure 5(b):

* ROM holding the measurement code and ``K`` (hardware-enforced
  read-only; ``K`` readable only from the attestation context);
* RAM/flash holding the application image (the memory that gets
  measured) and the rolling measurement buffer ``M_1 .. M_n`` (insecure
  — the normal world, and hence malware, may read and write it);
* peripherals: I/O, timer, and the RROC.

Atomic execution is modelled by a context manager that rejects nested or
interrupted entry, mirroring SMART's "starts at the first instruction,
exits at the last, interrupts disabled" rule.
"""

from __future__ import annotations

import contextlib

from repro.arch.base import ArchitectureError, SecurityArchitecture
from repro.crypto.backend import BackendSpec
from repro.hw.clock import ReliableClock
from repro.hw.devices import MCUModel
from repro.hw.memory import (
    AccessContext,
    AccessPolicy,
    DeviceMemory,
    MemoryRegion,
    RegionKind,
)
from repro.smartplus.rom import RomImage, build_rom_image

#: Region names used by the SMART+ memory map.
ROM_CODE_REGION = "rom_code"
ROM_KEY_REGION = "rom_key"
APPLICATION_REGION = "application"
MEASUREMENT_BUFFER_REGION = "measurement_buffer"


class SmartPlusArchitecture(SecurityArchitecture):
    """SMART+ model implementing :class:`repro.arch.SecurityArchitecture`.

    Parameters
    ----------
    rom_image:
        The immutable ROM content (attestation code + key); its
        ``crypto_backend`` also computes the device's measurements.
    application_size:
        Size in bytes of the application region that measurements cover.
        The paper's Figure 6 sweeps this from 0 to 10 KB.
    measurement_buffer_size:
        Size in bytes reserved for the rolling measurement buffer.
    cost_model:
        MSP430-class cycle cost model (defaults to the calibrated one).
    """

    def __init__(self, rom_image: RomImage, application_size: int = 10 * 1024,
                 measurement_buffer_size: int = 2048,
                 cost_model: MCUModel | None = None) -> None:
        if application_size <= 0:
            raise ValueError("application size must be positive")
        memory = self._build_memory_map(rom_image, application_size,
                                        measurement_buffer_size)
        super().__init__(
            memory=memory,
            cost_model=cost_model if cost_model is not None else MCUModel(),
            mac_name=rom_image.mac_name,
            measured_regions=(APPLICATION_REGION,),
            crypto_backend=rom_image.crypto_backend,
        )
        self.rom_image = rom_image
        self.clock = ReliableClock(frequency_hz=self.cost_model.clock_hz)
        self._in_attestation = False
        self.interrupts_blocked = 0

    @staticmethod
    def _build_memory_map(rom_image: RomImage, application_size: int,
                          measurement_buffer_size: int) -> DeviceMemory:
        memory = DeviceMemory()
        cursor = 0
        memory.add_region(MemoryRegion(
            name=ROM_CODE_REGION, base=cursor, size=len(rom_image.code),
            kind=RegionKind.ROM, policy=AccessPolicy.rom_code(),
            data=rom_image.code))
        cursor += len(rom_image.code)
        memory.add_region(MemoryRegion(
            name=ROM_KEY_REGION, base=cursor, size=len(rom_image.key),
            kind=RegionKind.ROM, policy=AccessPolicy.secret_key(),
            data=rom_image.key))
        cursor += len(rom_image.key)
        memory.add_region(MemoryRegion(
            name=APPLICATION_REGION, base=cursor, size=application_size,
            kind=RegionKind.RAM, policy=AccessPolicy.open()))
        cursor += application_size
        memory.add_region(MemoryRegion(
            name=MEASUREMENT_BUFFER_REGION, base=cursor,
            size=measurement_buffer_size, kind=RegionKind.RAM,
            policy=AccessPolicy.open()))
        return memory

    # ------------------------------------------------------------------
    # SecurityArchitecture interface
    # ------------------------------------------------------------------
    def read_clock(self) -> float:
        """Read the hardware RROC."""
        return self.clock.read()

    def advance_clock(self, time_seconds: float) -> None:
        """Advance the RROC to the given simulation time."""
        self.clock.advance_to(time_seconds)

    def _read_key(self) -> bytes:
        if not self._in_attestation:
            raise ArchitectureError(
                "K may only be read from within the ROM attestation code")
        return self.memory.read_region(ROM_KEY_REGION,
                                       AccessContext.ATTESTATION)

    @contextlib.contextmanager
    def _protected_execution(self):
        if self._in_attestation:
            raise ArchitectureError(
                "attestation code is atomic; nested entry is impossible")
        self._in_attestation = True
        try:
            yield
        finally:
            self._in_attestation = False

    # ------------------------------------------------------------------
    # SMART+-specific behaviour
    # ------------------------------------------------------------------
    @property
    def in_attestation(self) -> bool:
        """True while the ROM attestation code is executing."""
        return self._in_attestation

    def request_interrupt(self) -> bool:
        """Model an interrupt request arriving at the MCU.

        SMART disables interrupts while the attestation code runs, so
        requests arriving during a measurement are blocked (and counted);
        outside attestation they would be delivered normally.
        """
        if self._in_attestation:
            self.interrupts_blocked += 1
            return False
        return True

    def load_application(self, image: bytes) -> None:
        """Load (or let malware overwrite) the application image."""
        region = self.memory.region(APPLICATION_REGION)
        if len(image) > region.size:
            raise ValueError(
                f"application image of {len(image)} bytes exceeds the "
                f"{region.size}-byte application region")
        padded = image + bytes(region.size - len(image))
        self.memory.write_region(APPLICATION_REGION, padded,
                                 context=AccessContext.NORMAL)


def build_smartplus_architecture(
        key: bytes, mac_name: str = "keyed-blake2s",
        variant: str = "erasmus", application_size: int = 10 * 1024,
        measurement_buffer_size: int = 2048,
        cost_model: MCUModel | None = None,
        crypto_backend: BackendSpec = None) -> SmartPlusArchitecture:
    """Convenience factory: build a SMART+ device ready for ERASMUS.

    ``crypto_backend`` computes the ROM code digest and the device's
    measurements alike.
    """
    rom_image = build_rom_image(key, mac_name=mac_name, variant=variant,
                                backend=crypto_backend)
    return SmartPlusArchitecture(
        rom_image=rom_image, application_size=application_size,
        measurement_buffer_size=measurement_buffer_size,
        cost_model=cost_model)
