"""Memory regions and hardware-enforced access control.

SMART+ and HYDRA both hinge on memory access rules:

* the attestation key ``K`` is readable *only* by the attestation code
  (hard-wired MCU rules in SMART+, seL4 capabilities in HYDRA);
* the attestation code itself is immutable (ROM in SMART+, secure-boot
  verified in HYDRA);
* the measurement history lives in ordinary *insecure* memory — malware
  may read, modify, reorder or delete it (Section 3.2), and the design
  must remain safe regardless.

This module models those rules.  Every read/write happens under an
:class:`AccessContext` (who is executing); region policies decide
whether the access is allowed.  Violations raise :class:`AccessViolation`
— in real hardware this would be a bus fault / MCU reset.

Two sharing rules keep a fleet of thousands of modelled devices cheap
without weakening those checks:

* a region whose policy lets *no* context write it holds immutable
  ``bytes``, so identical contents (the SMART+ ROM code, built once per
  profile) are shared between devices instead of copied into each;
  writes to it still fail the policy check before any data is touched;
* :class:`AccessPolicy` is frozen and each factory returns one shared
  constant, so a device map allocates no policy objects of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union


class RegionKind(enum.Enum):
    """Physical flavour of a memory region."""

    ROM = "rom"
    RAM = "ram"
    FLASH = "flash"
    PERIPHERAL = "peripheral"


class AccessContext(enum.Enum):
    """Who is performing a memory access.

    ``ATTESTATION`` models execution from within the protected
    measurement routine (ROM code in SMART+, the PrAtt process in
    HYDRA).  ``NORMAL`` is the untrusted application world — including
    any malware that may have compromised it.  ``DMA`` models peripheral
    masters, which SMART forbids from touching the key region.
    """

    ATTESTATION = "attestation"
    NORMAL = "normal"
    DMA = "dma"


class AccessViolation(Exception):
    """A memory access violated the hardware access-control rules."""


_EVERYONE = frozenset(AccessContext)
_NOBODY: frozenset[AccessContext] = frozenset()
_ATTESTATION_ONLY = frozenset({AccessContext.ATTESTATION})


@dataclass(frozen=True)
class AccessPolicy:
    """Per-region access rules, expressed per :class:`AccessContext`.

    ``readable`` / ``writable`` list the contexts allowed to perform the
    respective access.  ``executable`` marks regions that may hold code.
    Policies are immutable; the factories return shared constants.
    """

    readable: frozenset[AccessContext] = _EVERYONE
    writable: frozenset[AccessContext] = _EVERYONE
    executable: bool = False

    @staticmethod
    def open() -> "AccessPolicy":
        """Fully open region (ordinary RAM/flash)."""
        return _OPEN

    @staticmethod
    def rom_code() -> "AccessPolicy":
        """Read/execute for everyone, writable by nobody (true ROM)."""
        return _ROM_CODE

    @staticmethod
    def secret_key() -> "AccessPolicy":
        """Readable only from the attestation context, never writable."""
        return _SECRET_KEY

    @staticmethod
    def attestation_private() -> "AccessPolicy":
        """Read/write only from the attestation context (K-related scratch)."""
        return _ATTESTATION_PRIVATE

    @staticmethod
    def read_only_peripheral() -> "AccessPolicy":
        """Readable by everyone, writable by nobody (the RROC register)."""
        return _READ_ONLY_PERIPHERAL


_OPEN = AccessPolicy(_EVERYONE, _EVERYONE)
_ROM_CODE = AccessPolicy(_EVERYONE, _NOBODY, executable=True)
_SECRET_KEY = AccessPolicy(_ATTESTATION_ONLY, _NOBODY)
_ATTESTATION_PRIVATE = AccessPolicy(_ATTESTATION_ONLY, _ATTESTATION_ONLY)
_READ_ONLY_PERIPHERAL = AccessPolicy(_EVERYONE, _NOBODY)


@dataclass
class MemoryRegion:
    """A contiguous, named region of device memory.

    ``data`` is a ``bytearray`` when some context may write the region
    and immutable ``bytes`` when none may; ``bytes`` input to a
    no-writer region is kept as is, not copied.
    """

    name: str
    base: int
    size: int
    kind: RegionKind
    policy: AccessPolicy = field(default_factory=AccessPolicy.open)
    data: Union[bytes, bytearray] = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if self.base < 0:
            raise ValueError(f"region {self.name!r} must have non-negative base")
        if self.data and len(self.data) != self.size:
            raise ValueError(
                f"region {self.name!r}: initial data length {len(self.data)} "
                f"does not match size {self.size}")
        if not self.policy.writable:
            self.data = bytes(self.data or self.size)
        elif not self.data:
            self.data = bytearray(self.size)
        elif not isinstance(self.data, bytearray):
            self.data = bytearray(self.data)

    @property
    def end(self) -> int:
        """First address past the region."""
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        """True when ``[address, address+length)`` lies inside the region."""
        return self.base <= address and address + length <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True when the two regions share any address."""
        return self.base < other.end and other.base < self.end


class DeviceMemory:
    """A full device memory map with access-controlled reads and writes.

    The map is a collection of non-overlapping :class:`MemoryRegion`
    objects.  Reads and writes are routed to the containing region and
    checked against its policy under the caller's
    :class:`AccessContext`.
    """

    def __init__(self, regions: Optional[Iterable[MemoryRegion]] = None) -> None:
        self._regions: Dict[str, MemoryRegion] = {}
        self.violations: list[tuple[str, AccessContext, str]] = []
        for region in regions or ():
            self.add_region(region)

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        """Add a region; rejects duplicate names and overlapping ranges."""
        if region.name in self._regions:
            raise ValueError(f"duplicate region name {region.name!r}")
        for existing in self._regions.values():
            if region.overlaps(existing):
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}")
        self._regions[region.name] = region
        return region

    def region(self, name: str) -> MemoryRegion:
        """Look up a region by name."""
        try:
            return self._regions[name]
        except KeyError as exc:
            raise KeyError(f"no region named {name!r}") from exc

    def regions(self) -> list[MemoryRegion]:
        """All regions, sorted by base address."""
        return sorted(self._regions.values(), key=lambda region: region.base)

    def total_size(self) -> int:
        """Sum of all region sizes in bytes."""
        return sum(region.size for region in self._regions.values())

    def _find(self, address: int, length: int) -> MemoryRegion:
        for region in self._regions.values():
            if region.contains(address, length):
                return region
        raise AccessViolation(
            f"access to unmapped address 0x{address:x} (+{length})")

    def _violation(self, region: MemoryRegion, context: AccessContext,
                   access: str) -> AccessViolation:
        """Log a denied access and return the exception to raise."""
        self.violations.append((region.name, context, access))
        return AccessViolation(
            f"{context.value} context may not {access} region {region.name!r}")

    def read(self, address: int, length: int,
             context: AccessContext = AccessContext.NORMAL) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        region = self._find(address, length)
        if context not in region.policy.readable:
            raise self._violation(region, context, "read")
        offset = address - region.base
        return bytes(region.data[offset:offset + length])

    def write(self, address: int, payload: bytes,
              context: AccessContext = AccessContext.NORMAL) -> None:
        """Write ``payload`` starting at ``address``."""
        region = self._find(address, len(payload))
        if context not in region.policy.writable:
            raise self._violation(region, context, "write")
        offset = address - region.base
        region.data[offset:offset + len(payload)] = payload

    def read_region(self, name: str,
                    context: AccessContext = AccessContext.NORMAL) -> bytes:
        """Read an entire region by name.

        The region is known, so its policy is checked directly instead
        of scanning the map for the one containing its address range.
        """
        region = self.region(name)
        if context not in region.policy.readable:
            raise self._violation(region, context, "read")
        return bytes(region.data)

    def write_region(self, name: str, payload: bytes,
                     context: AccessContext = AccessContext.NORMAL,
                     offset: int = 0) -> None:
        """Write into a region by name at the given offset."""
        region = self.region(name)
        if offset < 0 or offset + len(payload) > region.size:
            raise ValueError(
                f"write of {len(payload)} bytes at offset {offset} exceeds "
                f"region {name!r} of size {region.size}")
        self.write(region.base + offset, payload, context)
