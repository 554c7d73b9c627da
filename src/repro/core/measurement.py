"""The measurement record ``M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>``.

Measurements are produced by the security architecture
(:meth:`repro.arch.SecurityArchitecture.perform_measurement`), stored in
the prover's insecure rolling buffer and later shipped to the verifier
unencrypted (they are authenticated by the MAC and contain no secrets;
Section 3.2).  This module defines the record and a compact, canonical
wire encoding used both for buffer storage and for network transfer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.arch.base import MeasurementOutput, encode_timestamp

_HEADER = struct.Struct(">QHH")  # timestamp_us, digest_len, tag_len
_STAMP_SIZE = 8

#: Anything the codec accepts as an encoded record.
Buffer = Union[bytes, bytearray, memoryview]


class MeasurementDecodeError(Exception):
    """A byte string could not be decoded into a measurement record."""


def decode_record(record: Buffer) -> Tuple[bytes, int, bytes, bytes]:
    """Split one encoded record into ``(stamp, timestamp_us, digest, tag)``.

    ``stamp`` is the record's 8-byte timestamp field exactly as it was
    encoded — the bytes the MAC covers — and every field is an owned
    ``bytes`` copy.
    """
    if len(record) < _HEADER.size:
        raise MeasurementDecodeError("measurement record truncated")
    timestamp_us, digest_len, tag_len = _HEADER.unpack_from(record)
    expected = _HEADER.size + digest_len + tag_len
    if len(record) != expected:
        raise MeasurementDecodeError(
            f"measurement record has {len(record)} bytes, "
            f"expected {expected}")
    view = memoryview(record)
    return (bytes(view[:_STAMP_SIZE]), timestamp_us,
            bytes(view[_HEADER.size:_HEADER.size + digest_len]),
            bytes(view[_HEADER.size + digest_len:]))


@dataclass(frozen=True)
class Measurement:
    """One self-measurement record.

    ``timestamp`` is the RROC value at measurement time (seconds),
    ``digest`` is ``H(mem_t)`` and ``tag`` is ``MAC_K(t, H(mem_t))``.
    ``duration`` (not transmitted) records the modelled run-time of the
    measurement on the prover, used by availability experiments.
    """

    timestamp: float
    digest: bytes
    tag: bytes
    duration: float = 0.0

    @classmethod
    def from_output(cls, output: MeasurementOutput) -> "Measurement":
        """Build a record from the architecture's raw measurement output."""
        return cls(timestamp=output.timestamp, digest=output.digest,
                   tag=output.tag, duration=output.duration)

    def authenticated_payload(self) -> bytes:
        """The bytes the MAC covers: canonical timestamp followed by digest."""
        return b"".join((encode_timestamp(self.timestamp), self.digest))

    def encode_parts(self) -> List[bytes]:
        """The wire encoding as a writev-style list of buffers.

        Callers assembling larger messages extend one flat parts list and
        join once at the end instead of concatenating per record.
        """
        header = _HEADER.pack(int(round(self.timestamp * 1_000_000)),
                              len(self.digest), len(self.tag))
        return [header, self.digest, self.tag]

    def encode(self) -> bytes:
        """Serialize to the canonical wire format."""
        return b"".join(self.encode_parts())

    @classmethod
    def decode(cls, payload: Buffer) -> "Measurement":
        """Parse the canonical wire format back into a record."""
        _stamp, timestamp_us, digest, tag = decode_record(payload)
        return cls(timestamp=timestamp_us / 1_000_000, digest=digest, tag=tag)

    @property
    def size_bytes(self) -> int:
        """Encoded size of the record in bytes."""
        return _HEADER.size + len(self.digest) + len(self.tag)

    def with_timestamp(self, timestamp: float) -> "Measurement":
        """Copy with a different timestamp (used by tampering adversaries).

        The tag is *not* recomputed — malware cannot forge MACs — so the
        result will fail verification, which is exactly the point.
        """
        return Measurement(timestamp=timestamp, digest=self.digest,
                           tag=self.tag, duration=self.duration)


class RecordColumns:
    """A measurement history as parallel per-record columns.

    The verify path judges these instead of :class:`Measurement`
    objects.  ``stamps`` holds each record's 8-byte timestamp field as
    the prover encoded it (the bytes its MAC covers), ``timestamps`` the
    same instant in seconds, and ``digests``/``tags`` owned ``bytes``.
    :meth:`measurements` builds record objects only when asked.
    """

    __slots__ = ("stamps", "timestamps", "digests", "tags", "_measurements")

    def __init__(self, stamps: List[bytes], timestamps: List[float],
                 digests: List[bytes], tags: List[bytes],
                 measurements: Optional[List[Measurement]] = None) -> None:
        self.stamps = stamps
        self.timestamps = timestamps
        self.digests = digests
        self.tags = tags
        self._measurements = measurements

    @classmethod
    def from_measurements(cls, measurements: Iterable[Measurement]
                          ) -> "RecordColumns":
        """Columns over in-memory records, stamped via ``encode_timestamp``."""
        records = list(measurements)
        return cls([encode_timestamp(m.timestamp) for m in records],
                   [m.timestamp for m in records],
                   [m.digest for m in records],
                   [m.tag for m in records],
                   measurements=records)

    def __len__(self) -> int:
        return len(self.stamps)

    def __repr__(self) -> str:
        return f"RecordColumns(records={len(self)})"

    def measurements(self) -> List[Measurement]:
        """The records as :class:`Measurement` objects (built once)."""
        if self._measurements is None:
            self._measurements = [
                Measurement(timestamp=timestamp, digest=digest, tag=tag)
                for timestamp, digest, tag in zip(
                    self.timestamps, self.digests, self.tags)]
        return self._measurements
