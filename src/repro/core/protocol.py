"""Protocol messages for collection and on-demand attestation.

Two exchanges from the paper:

* the ERASMUS collection protocol (Figure 2): the verifier sends
  ``collect k``; the prover answers with its ``k`` latest stored
  measurements — no cryptography, no state change, no request
  authentication (there is nothing to DoS);
* the ERASMUS+OD protocol (Figure 4): the request additionally carries a
  fresh timestamp ``t_req`` and ``MAC_K(t_req)``; the prover
  authenticates it, computes one on-demand measurement ``M_0`` and
  returns it together with the stored history.

Messages have a canonical byte encoding so they can travel over the
simulated network (:mod:`repro.net`) and so message sizes are realistic
for the swarm experiments.

The MAC input is the wire stamp plus digest: each record's 8-byte
``timestamp_us`` field, exactly as the prover encoded it, followed by
the digest.  A decoded collection response keeps those stamp bytes in
its :class:`RecordColumns`, so the verifier never re-derives them from
float seconds.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.arch.base import encode_timestamp
from repro.core.measurement import (
    Buffer,
    Measurement,
    MeasurementDecodeError,
    RecordColumns,
    decode_record,
)

_COLLECT_HEADER = struct.Struct(">BI")          # message type, k
_ONDEMAND_HEADER = struct.Struct(">BIQH")       # type, k, t_req_us, tag length
_RESPONSE_HEADER = struct.Struct(">BH")         # message type, record count
_RECORD_LENGTH = struct.Struct(">H")
#: A record's length prefix plus its own ``timestamp_us, digest_len,
#: tag_len`` header.
_ROW_HEADER = struct.Struct(">HQHH")
_RECORD_HEADER_SIZE = _ROW_HEADER.size - _RECORD_LENGTH.size

_TYPE_COLLECT_REQUEST = 1
_TYPE_COLLECT_RESPONSE = 2
_TYPE_ONDEMAND_REQUEST = 3
_TYPE_ONDEMAND_RESPONSE = 4

#: Upper bound on ``k``: a response cannot carry more records than its
#: 16-bit record counter can describe, so any larger request is either a
#: bug or an attempted resource-exhaustion probe and is rejected at the
#: message layer.
MAX_K = 0xFFFF


class ProtocolDecodeError(Exception):
    """A protocol message could not be decoded."""


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > MAX_K:
        raise ValueError(f"k must not exceed {MAX_K}")


@dataclass(frozen=True)
class CollectRequest:
    """Verifier -> prover: "collect k" (Figure 2)."""

    k: int

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        _check_k(self.k)
        return _COLLECT_HEADER.pack(_TYPE_COLLECT_REQUEST, self.k)

    @classmethod
    def decode(cls, payload: bytes) -> "CollectRequest":
        """Parse the wire format."""
        try:
            message_type, k = _COLLECT_HEADER.unpack(payload)
        except struct.error as exc:
            raise ProtocolDecodeError("malformed collect request") from exc
        if message_type != _TYPE_COLLECT_REQUEST:
            raise ProtocolDecodeError("not a collect request")
        if k > MAX_K:
            raise ProtocolDecodeError(f"oversized k ({k} > {MAX_K})")
        return cls(k=k)


def _measurement_parts(measurements: List[Measurement],
                       parts: List[bytes]) -> List[bytes]:
    """Append length-prefixed record buffers to a flat writev-style list.

    Each record is :meth:`Measurement.encode_parts` behind its length
    prefix, with prefix and record header packed as one buffer.
    """
    pack = _ROW_HEADER.pack
    for measurement in measurements:
        digest, tag = measurement.digest, measurement.tag
        parts += (pack(_RECORD_HEADER_SIZE + len(digest) + len(tag),
                       int(round(measurement.timestamp * 1_000_000)),
                       len(digest), len(tag)),
                  digest, tag)
    return parts


# Responses carry one digest and one tag size per device profile, so a
# handful of layouts covers a fleet; the bound keeps crafted lengths
# from growing the cache.
@functools.lru_cache(maxsize=16)
def _uniform_row(digest_len: int, tag_len: int) -> struct.Struct:
    """One length-prefixed record: ``length, stamp, lengths, digest, tag``."""
    return struct.Struct(f">H8sHH{digest_len}s{tag_len}s")


def _uniform_columns(body: Buffer, count: int) -> Optional[RecordColumns]:
    """Decode ``count`` equal-length records in one ``iter_unpack`` pass.

    Only a body that is exactly ``count`` rows of the first row's layout
    decodes here, and only if every row's length prefix, digest length
    and tag length match the first's.  Anything else returns ``None``
    and is left to :func:`_walk_columns`, which also names the error.
    """
    if not count or len(body) < _ROW_HEADER.size:
        return None
    length, _us, digest_len, tag_len = _ROW_HEADER.unpack_from(body)
    if length != _RECORD_HEADER_SIZE + digest_len + tag_len \
            or len(body) != count * (_RECORD_LENGTH.size + length):
        return None
    lengths, stamps, digest_lens, tag_lens, digests, tags = zip(
        *_uniform_row(digest_len, tag_len).iter_unpack(body))
    if lengths.count(length) != count \
            or digest_lens.count(digest_len) != count \
            or tag_lens.count(tag_len) != count:
        return None
    return RecordColumns(
        list(stamps),
        [int.from_bytes(stamp, "big") / 1_000_000 for stamp in stamps],
        list(digests), list(tags))


def _walk_columns(body: Buffer, count: int) -> RecordColumns:
    """Decode ``count`` records one at a time (any mix of lengths)."""
    stamps: List[bytes] = []
    timestamps: List[float] = []
    digests: List[bytes] = []
    tags: List[bytes] = []
    view = memoryview(body).toreadonly()
    offset = 0
    for _ in range(count):
        if offset + _RECORD_LENGTH.size > len(view):
            raise ProtocolDecodeError("truncated measurement list")
        (length,) = _RECORD_LENGTH.unpack_from(view, offset)
        offset += _RECORD_LENGTH.size
        if offset + length > len(view):
            raise ProtocolDecodeError("truncated measurement record")
        try:
            stamp, timestamp_us, digest, tag = decode_record(
                view[offset:offset + length])
        except MeasurementDecodeError as exc:
            raise ProtocolDecodeError(str(exc)) from exc
        offset += length
        stamps.append(stamp)
        timestamps.append(timestamp_us / 1_000_000)
        digests.append(digest)
        tags.append(tag)
    if offset != len(view):
        raise ProtocolDecodeError("trailing bytes after measurement list")
    return RecordColumns(stamps, timestamps, digests, tags)


def _decode_columns(body: Buffer, count: int) -> RecordColumns:
    """A response's measurement list as columns (fast path first)."""
    columns = _uniform_columns(body, count)
    return _walk_columns(body, count) if columns is None else columns


class CollectResponse:
    """Prover -> verifier: the k latest stored measurements, newest first.

    A prover builds one from its records.  A decoded response holds the
    records as :class:`RecordColumns`, which is what the verifier
    judges; :attr:`measurements` is built from them only when read.
    """

    __slots__ = ("_measurements", "_columns")

    def __init__(self, measurements: Optional[List[Measurement]] = None, *,
                 columns: Optional[RecordColumns] = None) -> None:
        if measurements is None and columns is None:
            measurements = []
        self._measurements = measurements
        self._columns = columns

    @property
    def measurements(self) -> List[Measurement]:
        """The records as :class:`Measurement` objects."""
        if self._measurements is None:
            assert self._columns is not None
            self._measurements = self._columns.measurements()
        return self._measurements

    @property
    def columns(self) -> RecordColumns:
        """The records as columns, the form the verifier judges."""
        if self._columns is None:
            assert self._measurements is not None
            self._columns = RecordColumns.from_measurements(self._measurements)
        return self._columns

    def __repr__(self) -> str:
        return f"CollectResponse(records={len(self.columns)})"

    def encode_parts(self) -> List[bytes]:
        """The wire encoding as a writev-style list of buffers."""
        header = _RESPONSE_HEADER.pack(_TYPE_COLLECT_RESPONSE,
                                       len(self.measurements))
        return _measurement_parts(self.measurements, [header])

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        return b"".join(self.encode_parts())

    @classmethod
    def decode(cls, payload: Buffer) -> "CollectResponse":
        """Parse the wire format into a columns-backed response."""
        if len(payload) < _RESPONSE_HEADER.size:
            raise ProtocolDecodeError("malformed collect response")
        message_type, count = _RESPONSE_HEADER.unpack_from(payload)
        if message_type != _TYPE_COLLECT_RESPONSE:
            raise ProtocolDecodeError("not a collect response")
        return cls(columns=_decode_columns(
            memoryview(payload)[_RESPONSE_HEADER.size:], count))

    @property
    def size_bytes(self) -> int:
        """Encoded size of the response."""
        return len(self.encode())


@dataclass(frozen=True)
class OnDemandRequest:
    """Verifier -> prover for ERASMUS+OD: ``t_req, k, MAC_K(t_req)``."""

    request_time: float
    k: int
    tag: bytes

    def authenticated_payload(self) -> bytes:
        """Bytes covered by the request MAC (the canonical timestamp)."""
        return encode_timestamp(self.request_time)

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        _check_k(self.k)
        header = _ONDEMAND_HEADER.pack(
            _TYPE_ONDEMAND_REQUEST, self.k,
            int(round(self.request_time * 1_000_000)), len(self.tag))
        return header + self.tag

    @classmethod
    def decode(cls, payload: Buffer) -> "OnDemandRequest":
        """Parse the wire format."""
        if len(payload) < _ONDEMAND_HEADER.size:
            raise ProtocolDecodeError("malformed on-demand request")
        message_type, k, time_us, tag_length = _ONDEMAND_HEADER.unpack_from(
            payload)
        if message_type != _TYPE_ONDEMAND_REQUEST:
            raise ProtocolDecodeError("not an on-demand request")
        if k > MAX_K:
            raise ProtocolDecodeError(f"oversized k ({k} > {MAX_K})")
        # Requests are tiny and the tag is retained for verification, so
        # a copy is the right call here (views would pin the whole frame).
        tag = bytes(memoryview(payload)[_ONDEMAND_HEADER.size:])
        if len(tag) != tag_length:
            raise ProtocolDecodeError("on-demand request tag length mismatch")
        return cls(request_time=time_us / 1_000_000, k=k, tag=tag)


@dataclass(frozen=True)
class OnDemandResponse:
    """Prover -> verifier for ERASMUS+OD: fresh ``M_0`` plus the history.

    ``fresh`` is ``None`` when the prover refused the request (failed
    authentication); the history list is then empty as well.
    """

    fresh: Optional[Measurement]
    measurements: List[Measurement] = field(default_factory=list)

    def encode_parts(self) -> List[bytes]:
        """The wire encoding as a writev-style list of buffers."""
        records = ([self.fresh] if self.fresh is not None else []) + \
            list(self.measurements)
        header = _RESPONSE_HEADER.pack(_TYPE_ONDEMAND_RESPONSE, len(records))
        flag = b"\x01" if self.fresh is not None else b"\x00"
        return _measurement_parts(records, [header, flag])

    def encode(self) -> bytes:
        """Serialize to the wire format."""
        return b"".join(self.encode_parts())

    @classmethod
    def decode(cls, payload: Buffer) -> "OnDemandResponse":
        """Parse the wire format."""
        minimum = _RESPONSE_HEADER.size + 1
        if len(payload) < minimum:
            raise ProtocolDecodeError("malformed on-demand response")
        message_type, count = _RESPONSE_HEADER.unpack_from(payload)
        if message_type != _TYPE_ONDEMAND_RESPONSE:
            raise ProtocolDecodeError("not an on-demand response")
        has_fresh = payload[_RESPONSE_HEADER.size] == 1
        records = _decode_columns(
            memoryview(payload)[minimum:], count).measurements()
        if has_fresh:
            if not records:
                raise ProtocolDecodeError("fresh measurement flagged but absent")
            return cls(fresh=records[0], measurements=records[1:])
        return cls(fresh=None, measurements=records)


AnyRequest = Union[CollectRequest, OnDemandRequest]
AnyResponse = Union[CollectResponse, OnDemandResponse]

_REQUEST_DECODERS = {
    _TYPE_COLLECT_REQUEST: CollectRequest.decode,
    _TYPE_ONDEMAND_REQUEST: OnDemandRequest.decode,
}
_RESPONSE_DECODERS = {
    _TYPE_COLLECT_RESPONSE: CollectResponse.decode,
    _TYPE_ONDEMAND_RESPONSE: OnDemandResponse.decode,
}


def decode_request(payload: Buffer) -> AnyRequest:
    """Decode a verifier-to-prover message by its type tag.

    Transports use this to dispatch incoming requests without knowing in
    advance whether a collection is plain or on-demand.
    """
    if not len(payload):
        raise ProtocolDecodeError("empty request")
    try:
        decoder = _REQUEST_DECODERS[payload[0]]
    except KeyError as exc:
        raise ProtocolDecodeError(
            f"unknown request type {payload[0]}") from exc
    return decoder(payload)


def decode_response(payload: Buffer) -> AnyResponse:
    """Decode a prover-to-verifier message by its type tag.

    Decoded records own their bytes, so ``payload`` may be recycled.
    """
    if not len(payload):
        raise ProtocolDecodeError("empty response")
    try:
        decoder = _RESPONSE_DECODERS[payload[0]]
    except KeyError as exc:
        raise ProtocolDecodeError(
            f"unknown response type {payload[0]}") from exc
    return decoder(payload)
