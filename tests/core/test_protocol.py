"""Tests for the protocol message encodings."""

import functools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CollectRequest,
    CollectResponse,
    Measurement,
    OnDemandRequest,
    OnDemandResponse,
)
from repro.core.protocol import ProtocolDecodeError


def record(timestamp: float) -> Measurement:
    return Measurement(timestamp=timestamp, digest=bytes([int(timestamp)]) * 32,
                       tag=b"\x99" * 32)


def test_collect_request_roundtrip():
    request = CollectRequest(k=7)
    assert CollectRequest.decode(request.encode()) == request


def test_collect_request_invalid():
    with pytest.raises(ValueError):
        CollectRequest(k=-1).encode()
    with pytest.raises(ProtocolDecodeError):
        CollectRequest.decode(b"\xFF\x00\x00\x00\x07")
    with pytest.raises(ProtocolDecodeError):
        CollectRequest.decode(b"\x01")


def test_collect_response_roundtrip():
    response = CollectResponse(measurements=[record(30.0), record(20.0)])
    decoded = CollectResponse.decode(response.encode())
    assert len(decoded.measurements) == 2
    assert decoded.measurements[0].timestamp == pytest.approx(30.0)
    assert decoded.measurements[1].digest == record(20.0).digest


def test_empty_collect_response_roundtrip():
    decoded = CollectResponse.decode(CollectResponse().encode())
    assert decoded.measurements == []


def test_collect_response_rejects_corruption():
    encoded = CollectResponse(measurements=[record(30.0)]).encode()
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(encoded[:-4])
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(encoded + b"\x00")
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(b"\x07" + encoded[1:])


def test_ondemand_request_roundtrip():
    request = OnDemandRequest(request_time=101.5, k=4, tag=b"\x42" * 32)
    decoded = OnDemandRequest.decode(request.encode())
    assert decoded.request_time == pytest.approx(101.5)
    assert decoded.k == 4
    assert decoded.tag == b"\x42" * 32


def test_ondemand_request_rejects_bad_payload():
    with pytest.raises(ProtocolDecodeError):
        OnDemandRequest.decode(b"\x03\x00")
    encoded = OnDemandRequest(request_time=1.0, k=1, tag=b"\x00" * 32).encode()
    with pytest.raises(ProtocolDecodeError):
        OnDemandRequest.decode(encoded[:-1])


def test_ondemand_response_roundtrip_with_fresh():
    response = OnDemandResponse(fresh=record(50.0),
                                measurements=[record(40.0), record(30.0)])
    decoded = OnDemandResponse.decode(response.encode())
    assert decoded.fresh is not None
    assert decoded.fresh.timestamp == pytest.approx(50.0)
    assert [m.timestamp for m in decoded.measurements] == [40.0, 30.0]


def test_ondemand_response_roundtrip_refusal():
    decoded = OnDemandResponse.decode(
        OnDemandResponse(fresh=None, measurements=[]).encode())
    assert decoded.fresh is None
    assert decoded.measurements == []


def test_response_size_reflects_measurement_count():
    small = CollectResponse(measurements=[record(1.0)])
    large = CollectResponse(measurements=[record(float(t)) for t in range(10)])
    assert large.size_bytes > small.size_bytes


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                max_size=12))
def test_collect_response_roundtrip_property(timestamps):
    response = CollectResponse(measurements=[record(min(t, 255.0))
                                             for t in timestamps])
    decoded = CollectResponse.decode(response.encode())
    assert len(decoded.measurements) == len(timestamps)


# ----------------------------------------------------------------------
# Decode error paths (truncation, wrong types, oversized k)
# ----------------------------------------------------------------------

def test_collect_request_rejects_oversized_k():
    from repro.core.protocol import _COLLECT_HEADER, MAX_K
    with pytest.raises(ValueError):
        CollectRequest(k=MAX_K + 1).encode()
    oversized = _COLLECT_HEADER.pack(1, MAX_K + 1)
    with pytest.raises(ProtocolDecodeError):
        CollectRequest.decode(oversized)
    # The boundary value itself round-trips.
    assert CollectRequest.decode(CollectRequest(k=MAX_K).encode()).k == MAX_K


def test_ondemand_request_rejects_oversized_k():
    from repro.core.protocol import MAX_K
    with pytest.raises(ValueError):
        OnDemandRequest(request_time=1.0, k=MAX_K + 1, tag=b"\x00" * 32).encode()


def test_collect_response_rejects_truncated_record():
    encoded = CollectResponse(measurements=[record(30.0), record(20.0)]).encode()
    for cut in (len(encoded) - 1, len(encoded) - 20, len(encoded) - 40):
        with pytest.raises(ProtocolDecodeError):
            CollectResponse.decode(encoded[:cut])


def test_collect_response_rejects_record_length_past_payload():
    import struct
    # One record whose declared length points past the end of the payload.
    header = struct.pack(">BH", 2, 1)
    bogus = header + struct.pack(">H", 500) + b"\x00" * 10
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(bogus)


def test_responses_reject_wrong_message_type():
    collect_encoded = CollectResponse(measurements=[record(30.0)]).encode()
    ondemand_encoded = OnDemandResponse(fresh=record(30.0)).encode()
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(collect_encoded)
    with pytest.raises(ProtocolDecodeError):
        CollectResponse.decode(ondemand_encoded)


def test_ondemand_response_rejects_truncated_payload():
    encoded = OnDemandResponse(fresh=record(50.0),
                               measurements=[record(40.0)]).encode()
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(encoded[:2])
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(encoded[:-5])


def test_ondemand_response_rejects_fresh_flag_without_records():
    import struct
    bogus = struct.pack(">BH", 4, 0) + b"\x01"
    with pytest.raises(ProtocolDecodeError):
        OnDemandResponse.decode(bogus)


def test_decode_request_dispatches_by_type():
    from repro.core.protocol import decode_request
    collect = decode_request(CollectRequest(k=3).encode())
    assert isinstance(collect, CollectRequest)
    ondemand = decode_request(
        OnDemandRequest(request_time=5.0, k=2, tag=b"\x01" * 32).encode())
    assert isinstance(ondemand, OnDemandRequest)
    with pytest.raises(ProtocolDecodeError):
        decode_request(b"")
    with pytest.raises(ProtocolDecodeError):
        decode_request(b"\x09rest")
    # Responses are not requests.
    with pytest.raises(ProtocolDecodeError):
        decode_request(CollectResponse().encode())


def test_decode_response_dispatches_by_type():
    from repro.core.protocol import decode_response
    collect = decode_response(CollectResponse([record(1.0)]).encode())
    assert isinstance(collect, CollectResponse)
    ondemand = decode_response(OnDemandResponse(fresh=record(2.0)).encode())
    assert isinstance(ondemand, OnDemandResponse)
    with pytest.raises(ProtocolDecodeError):
        decode_response(b"")
    with pytest.raises(ProtocolDecodeError):
        decode_response(CollectRequest(k=1).encode())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=0xFFFF))
def test_collect_request_roundtrip_property(k):
    assert CollectRequest.decode(CollectRequest(k=k).encode()).k == k


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=0xFFFF),
       st.binary(min_size=0, max_size=64))
def test_ondemand_request_roundtrip_property(request_time, k, tag):
    request = OnDemandRequest(request_time=request_time, k=k, tag=tag)
    decoded = OnDemandRequest.decode(request.encode())
    assert decoded.k == k
    assert decoded.tag == tag
    assert decoded.request_time == pytest.approx(request_time, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=255, allow_nan=False),
                max_size=8),
       st.booleans())
def test_ondemand_response_roundtrip_property(timestamps, with_fresh):
    fresh = record(77.0) if with_fresh else None
    response = OnDemandResponse(fresh=fresh,
                                measurements=[record(t) for t in timestamps])
    decoded = OnDemandResponse.decode(response.encode())
    assert (decoded.fresh is not None) == with_fresh
    assert len(decoded.measurements) == len(timestamps)


# ----------------------------------------------------------------------
# Columnar decode: the uniform fast path and the per-record walk agree
# ----------------------------------------------------------------------

_RECORD_HEADER = struct.Struct(">QHH")

stamps = st.integers(min_value=0, max_value=2 ** 64 - 1)
raw_records = st.tuples(stamps, st.binary(max_size=40), st.binary(max_size=40))


def encode_raw(records):
    """A collect response of ``(stamp_us, digest, tag)`` records, verbatim."""
    parts = [struct.pack(">BH", 2, len(records))]
    for stamp_us, digest, tag in records:
        record = _RECORD_HEADER.pack(stamp_us, len(digest), len(tag)) + \
            digest + tag
        parts += [struct.pack(">H", len(record)), record]
    return b"".join(parts)


def columns_key(columns):
    return tuple(list(column) for column in (
        columns.stamps, columns.timestamps, columns.digests, columns.tags))


def walk_error(body, count):
    from repro.core.protocol import _walk_columns
    with pytest.raises(ProtocolDecodeError) as caught:
        _walk_columns(body, count)
    return str(caught.value)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.lists(raw_records, max_size=8),
    # Same lengths throughout: the shape the fast path accepts.
    st.integers(min_value=0, max_value=40).flatmap(
        lambda size: st.lists(st.tuples(
            stamps, st.binary(min_size=size, max_size=size),
            st.binary(min_size=size, max_size=size)), max_size=8))))
def test_uniform_and_walk_decoders_agree(records):
    from repro.core.protocol import (
        _RESPONSE_HEADER,
        _uniform_columns,
        _walk_columns,
    )
    body = encode_raw(records)[_RESPONSE_HEADER.size:]
    walked = _walk_columns(body, len(records))
    assert columns_key(walked) == (
        [struct.pack(">Q", stamp_us) for stamp_us, _d, _t in records],
        [stamp_us / 1_000_000 for stamp_us, _d, _t in records],
        [digest for _s, digest, _t in records],
        [tag for _s, _d, tag in records])
    uniform = _uniform_columns(body, len(records))
    shapes = {(len(digest), len(tag)) for _s, digest, tag in records}
    if len(shapes) == 1:
        assert uniform is not None
        assert columns_key(uniform) == columns_key(walked)
    else:
        assert uniform is None
    decoded = CollectResponse.decode(encode_raw(records))
    assert columns_key(decoded.columns) == columns_key(walked)


@settings(max_examples=80, deadline=None)
@given(st.lists(raw_records, min_size=1, max_size=6),
       st.sampled_from(["truncate", "extend", "trail", "overcount",
                        "undercount"]),
       st.integers(min_value=1, max_value=60))
def test_decoders_raise_the_same_errors(records, corruption, amount):
    from repro.core.protocol import (
        _RESPONSE_HEADER,
        _decode_columns,
        _uniform_columns,
    )
    body = encode_raw(records)[_RESPONSE_HEADER.size:]
    count = len(records)
    if corruption == "truncate":
        body = body[:max(0, len(body) - amount)]
    elif corruption == "extend":
        # The first record claims ``amount`` more bytes than it holds.
        (length,) = struct.unpack_from(">H", body)
        body = struct.pack(">H", length + amount) + body[2:]
    elif corruption == "trail":
        body += b"\x00" * amount
    elif corruption == "overcount":
        count += amount
    else:
        count -= 1
    expected = walk_error(body, count)
    assert _uniform_columns(body, count) is None
    with pytest.raises(ProtocolDecodeError) as caught:
        _decode_columns(body, count)
    assert str(caught.value) == expected


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=80),
       st.lists(raw_records, max_size=6))
def test_decoders_never_crash_on_fuzz(payload, records):
    """Arbitrary bytes either decode cleanly or raise ProtocolDecodeError.

    The fleet verify step never raises at all: not on arbitrary bytes,
    nor on well-formed records carrying arbitrary 64-bit stamps.
    """
    from repro.core.protocol import decode_request, decode_response
    for decoder in (decode_request, decode_response):
        try:
            decoder(payload)
        except ProtocolDecodeError:
            pass
    verifier = _fuzz_verifier()
    for body in (payload, encode_raw(records)):
        report = verifier._verify_payload("fuzz-device", body, 100.0)
        assert report.status.value in ("healthy", "infected", "tampered")
        report.to_row()



@functools.lru_cache(maxsize=None)
def _fuzz_verifier():
    """One enrolled fleet verifier, shared across fuzz examples.

    ``_verify_payload`` judges without committing, so examples cannot
    leak state into each other through it.
    """
    from repro.core import ErasmusConfig
    from repro.fleet import FleetVerifier
    verifier = FleetVerifier(ErasmusConfig())
    verifier.enroll("fuzz-device", b"fuzz-key", [b"\x00" * 32])
    return verifier
