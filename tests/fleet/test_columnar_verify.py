"""Tests for the columnar verify path: wire stamps, crafted records, verdicts."""

import struct
from typing import Dict, Mapping, Optional

from repro.core import DeviceStatus, Measurement
from repro.core.verification import MeasurementVerdict
from repro.crypto.mac import get_mac
from repro.fleet import Fleet
from repro.fleet.transport import Transport
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"columnar-test-firmware"
MALWARE = b"columnar-test-implant!"

_RESPONSE_HEADER = struct.Struct(">BH")
_RECORD_LENGTH = struct.Struct(">H")
_RECORD_HEADER = struct.Struct(">QHH")
_TYPE_COLLECT_RESPONSE = 2

#: The largest stamp the wire's 64-bit field can carry: no float
#: seconds value re-encodes to it.
MAX_STAMP_US = 0xFFFFFFFFFFFFFFFF
#: A stamp past float precision: ``us / 1e6 * 1e6`` rounds to another
#: integer, so only the wire bytes reproduce what the prover MACed.
WIDE_STAMP_US = 2 ** 53 + 1


def small_profile():
    return _small_profile(FIRMWARE)


def split_records(payload: bytes):
    """The raw records of a collect response, in wire order."""
    _type, count = _RESPONSE_HEADER.unpack_from(payload)
    offset = _RESPONSE_HEADER.size
    records = []
    for _ in range(count):
        (length,) = _RECORD_LENGTH.unpack_from(payload, offset)
        offset += _RECORD_LENGTH.size
        records.append(payload[offset:offset + length])
        offset += length
    assert offset == len(payload)
    return records


def join_records(records) -> bytes:
    """A collect response carrying ``records`` verbatim."""
    parts = [_RESPONSE_HEADER.pack(_TYPE_COLLECT_RESPONSE, len(records))]
    for record in records:
        parts += [_RECORD_LENGTH.pack(len(record)), record]
    return b"".join(parts)


def raw_record(stamp_us: int, digest: bytes, tag: bytes) -> bytes:
    return _RECORD_HEADER.pack(stamp_us, len(digest), len(tag)) + \
        digest + tag


class EditingTransport(Transport):
    """Wraps a transport, rewriting chosen devices' responses.

    ``edits`` maps a device id to a ``payload -> payload`` function;
    every response that reaches the verifier is kept in ``seen``.
    """

    def __init__(self, inner: Transport, edits=None) -> None:
        self.inner = inner
        self.edits = dict(edits or {})
        self.seen: Dict[str, Optional[bytes]] = {}

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def engine(self):
        return self.inner.engine

    def register(self, device) -> None:
        self.inner.register(device)

    def _edit(self, device_id: str, payload: Optional[bytes]):
        edit = self.edits.get(device_id)
        if payload is not None and edit is not None:
            payload = edit(bytes(payload))
        self.seen[device_id] = payload
        return payload

    def exchange(self, device_id: str, payload: bytes) -> Optional[bytes]:
        return self._edit(device_id, self.inner.exchange(device_id, payload))

    def exchange_many(self, requests: Mapping[str, bytes]
                      ) -> Dict[str, Optional[bytes]]:
        responses = self.inner.exchange_many(requests)
        return {device_id: self._edit(device_id, responses.get(device_id))
                for device_id in requests}


def crafted_edits(fleet):
    """dev-0001 gets a max-stamp record; dev-0002 a MACed wide stamp."""
    key = fleet.device("dev-0002").key
    mac = get_mac(fleet.profile.config.mac_name)

    def max_stamp(payload):
        records = split_records(payload)
        newest = Measurement.decode(records[0])
        return join_records([raw_record(MAX_STAMP_US, newest.digest,
                                        newest.tag)] + records)

    def wide_stamp(payload):
        records = split_records(payload)
        digest = Measurement.decode(records[0]).digest
        stamp = struct.pack(">Q", WIDE_STAMP_US)
        tag = mac.mac(key, stamp + digest)
        return join_records([raw_record(WIDE_STAMP_US, digest, tag)] +
                            records)

    return {"dev-0001": max_stamp, "dev-0002": wide_stamp}


def assert_crafted_round(reports):
    by_id = {report.device_id: report for report in reports}
    forged = by_id["dev-0001"]
    assert forged.status is DeviceStatus.TAMPERED
    assert "1 measurement(s) failed MAC verification" in forged.anomalies
    # The wide stamp is authentic (the MAC covers its wire bytes) and is
    # flagged only for lying in the future.
    wide = by_id["dev-0002"]
    assert wide.status is DeviceStatus.TAMPERED
    assert not any("failed MAC" in anomaly for anomaly in wide.anomalies)
    assert "1 measurement(s) are timestamped in the future" in wide.anomalies
    for device_id, report in by_id.items():
        if device_id not in ("dev-0001", "dev-0002"):
            assert report.status is DeviceStatus.HEALTHY, report.summary()
            assert report.measurement_count > 0


def test_crafted_stamps_do_not_abort_an_inline_round():
    fleet = Fleet.provision(small_profile(), 6, master_secret=b"master")
    fleet.run_until(60.0)
    fleet.transport = EditingTransport(fleet.transport, crafted_edits(fleet))
    reports = fleet.collect_all()
    assert len(reports) == 6
    assert_crafted_round(reports)
    assert fleet.health.devices_seen == set(fleet.device_ids())


def test_crafted_stamps_do_not_abort_a_process_round():
    fleet = Fleet.provision(small_profile(), 6, master_secret=b"master",
                            shards=2)
    try:
        fleet.run_until(60.0)
        fleet.transport = EditingTransport(fleet.transport,
                                           crafted_edits(fleet))
        reports = fleet.collect_all()
        assert len(reports) == 6
        assert_crafted_round(reports)
        assert fleet.verifier.worker_pool.restarts == [0, 0]
    finally:
        fleet.close()


def reference_verdicts(fleet, device_id, payload, collection_time):
    """Per-record verdicts from ``Measurement.decode`` and its payload."""
    device = fleet.device(device_id)
    mac = get_mac(fleet.profile.config.mac_name)
    horizon = collection_time + 1e-6
    verdicts = []
    for record in split_records(payload):
        measurement = Measurement.decode(record)
        expected = mac.mac(device.key, measurement.authenticated_payload())
        verdicts.append(MeasurementVerdict(
            measurement=measurement,
            authentic=expected == measurement.tag,
            healthy=measurement.digest == device.healthy_digest,
            from_future=measurement.timestamp > horizon))
    return verdicts


def test_fleet_report_verdicts_equal_per_record_reference():
    fleet = Fleet.provision(small_profile(), 5, master_secret=b"master")
    fleet.run_until(50.0)
    fleet.device("dev-0003").load_application(MALWARE)
    fleet.run_until(60.0)

    def forge_second(payload):
        records = split_records(payload)
        second = Measurement.decode(records[1])
        records[1] = Measurement(second.timestamp, second.digest,
                                 bytes(len(second.tag))).encode()
        return join_records(records)

    transport = EditingTransport(fleet.transport,
                                 {"dev-0004": forge_second})
    fleet.transport = transport
    reports = fleet.collect_all()
    flags = set()
    for report in reports:
        expected = reference_verdicts(fleet, report.device_id,
                                      transport.seen[report.device_id],
                                      report.collection_time)
        assert expected
        assert report.verdicts == expected
        assert report.measurement_count == len(expected)
        flags |= {(verdict.authentic, verdict.healthy)
                  for verdict in report.verdicts}
    # Healthy, infected and forged records all took part.
    assert {(True, True), (True, False), (False, True)} <= flags
