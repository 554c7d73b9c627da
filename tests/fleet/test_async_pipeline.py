"""Tests for the async-first collection pipeline and transport seam."""

import asyncio
import json
from dataclasses import replace

import pytest

from repro.arch.base import encode_timestamp
from repro.core import CollectResponse, DeviceStatus, Measurement
from repro.crypto.mac import get_mac
from repro.fleet import (
    Fleet,
    FleetVerifier,
    InProcessTransport,
    SimulatedNetworkTransport,
    SyncTransportAdapter,
    as_async_transport,
)
from repro.sim import SimulationEngine
from tests.fleet.helpers import report_key
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"async-test-firmware!"
MALWARE = b"async-test-implant!!"


def small_profile():
    return _small_profile(FIRMWARE)


def provision_fleet(count=12, **kwargs) -> Fleet:
    fleet = Fleet.provision(small_profile(), count, master_secret=b"master",
                            **kwargs)
    fleet.run_until(60.0)
    return fleet


# ----------------------------------------------------------------------
# Transport adaptation
# ----------------------------------------------------------------------

def test_sync_adapter_wraps_in_process_transport():
    fleet = provision_fleet(3)
    adapted = as_async_transport(fleet.transport)
    assert isinstance(adapted, SyncTransportAdapter)
    assert adapted.name == fleet.transport.name
    assert adapted.engine is fleet.engine
    request = fleet.verifier.create_collect_request().encode()
    responses = asyncio.run(adapted.exchange_many(
        {device_id: request for device_id in fleet.device_ids()}))
    assert all(payload is not None for payload in responses.values())


def test_as_async_transport_passes_async_through():
    class _Null:
        def register(self, device):
            pass

        async def exchange_many(self, requests):
            return {device_id: None for device_id in requests}

    transport = _Null()
    assert as_async_transport(transport) is transport
    # An adapter handed back in is already awaitable: no double wrap.
    adapted = as_async_transport(InProcessTransport())
    assert as_async_transport(adapted) is adapted


def test_as_async_transport_prefers_native_async():
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine)
    adapted = as_async_transport(transport)
    # Bound to exchange_many_async, not the blocking sync drive.
    assert type(adapted).__name__ == "_NativeAsyncAdapter"
    assert adapted.engine is engine
    assert adapted.stale_responses_rejected == 0


def test_async_single_exchange_helper():
    fleet = provision_fleet(1)
    adapted = as_async_transport(fleet.transport)
    request = fleet.verifier.create_collect_request().encode()
    payload = asyncio.run(adapted.exchange("dev-0000", request))
    assert payload is not None


# ----------------------------------------------------------------------
# Pipeline behaviour and equivalence
# ----------------------------------------------------------------------

def test_default_round_matches_one_shard_round():
    """Windowed shards commit exactly what one all-device shard does."""
    single_shard = provision_fleet(20).collect_all(batch_size=20,
                                                   max_inflight_shards=1)
    default = provision_fleet(20).collect_all()
    assert single_shard.stats.shards == 1
    assert [report_key(r) for r in single_shard] == \
        [report_key(r) for r in default]


def _verifier_on(fleet, backend):
    """A fresh verifier enrolling ``fleet``'s devices on one backend."""
    verifier = FleetVerifier(
        replace(fleet.profile.config, crypto_backend=backend))
    for device in fleet.devices():
        verifier.enroll_device(device)
    return verifier


def _edited_response(payload, edit):
    """Re-encode a collect response after ``edit`` rewrote its records."""
    measurements = [Measurement(m.timestamp, bytes(m.digest), bytes(m.tag))
                    for m in CollectResponse.decode(payload).measurements]
    return CollectResponse(measurements=edit(measurements)).encode()


def test_judge_reports_equal_across_crypto_backends():
    """The reference backend is the reference path: same reports, bytes."""
    fleet = provision_fleet(6)
    fleet.device("dev-0001").load_application(MALWARE)
    fleet.run_until(80.0)
    request = fleet.verifier.create_collect_request().encode()
    responses = fleet.transport.exchange_many(
        {device_id: request for device_id in fleet.device_ids()})
    now = fleet.now

    def forge(records):
        first = records[0]
        records[0] = Measurement(first.timestamp, first.digest,
                                 bytes(len(first.tag)))
        return records

    def future(records):
        newest = records[0]
        tag = get_mac(fleet.profile.config.mac_name).mac(
            fleet.device("dev-0003").key,
            encode_timestamp(now + 30.0) + newest.digest)
        return [Measurement(now + 30.0, newest.digest, tag)] + records

    cases = [
        ("dev-0000", responses["dev-0000"]),                      # healthy
        ("dev-0001", responses["dev-0001"]),                      # infected
        ("dev-0002", _edited_response(responses["dev-0002"], forge)),
        ("dev-0003", _edited_response(responses["dev-0003"], future)),
        ("dev-0004", _edited_response(responses["dev-0004"],
                                      lambda records: records[::3])),
        ("dev-0005", b"\xff\xff\xff"),                            # garbage
        ("dev-0000", None),                                       # silence
    ]
    reference = _verifier_on(fleet, "reference")
    accelerated = _verifier_on(fleet, "accelerated")
    assert reference.crypto_backend.name == "reference"
    assert accelerated.crypto_backend.name == "accelerated"
    statuses = []
    for device_id, payload in cases:
        slow = reference._verify_payload(device_id, payload, now)
        fast = accelerated._verify_payload(device_id, payload, now)
        assert report_key(slow) == report_key(fast)
        assert slow.verdicts == fast.verdicts
        statuses.append(fast.status)
    assert statuses == [DeviceStatus.HEALTHY, DeviceStatus.INFECTED,
                        DeviceStatus.TAMPERED, DeviceStatus.TAMPERED,
                        DeviceStatus.TAMPERED, DeviceStatus.TAMPERED,
                        DeviceStatus.NO_DATA]


def test_device_judge_falls_back_for_custom_registered_macs():
    """A MAC only the registry knows must not break the judge."""
    import hashlib

    from repro.core import ErasmusConfig
    from repro.core.verification import Enrollment, VerificationCore
    from repro.crypto.mac import MacAlgorithm, register_mac

    def trunc_mac(key: bytes, data: bytes) -> bytes:
        return hashlib.blake2s(data, key=key, digest_size=8).digest()

    register_mac(MacAlgorithm("test-trunc-blake8", 64, 8, trunc_mac,
                              extra_blocks=1))
    core = VerificationCore(ErasmusConfig(mac_name="test-trunc-blake8"))
    key, digest = b"judge-key", b"\x07" * 32
    valid = Measurement(
        5.0, digest, trunc_mac(key, encode_timestamp(5.0) + digest))
    forged = Measurement(
        5.0, digest, trunc_mac(b"other-key", encode_timestamp(5.0) + digest))
    enrollment = Enrollment.create("custom", key, [digest])
    judge = core.device_judge(key)
    assert [verdict.authentic for verdict in
            judge.verdicts(enrollment, [valid, forged], 6.0)] == [True, False]
    assert judge.verify_measurements(enrollment, [valid], 6.0).status \
        is DeviceStatus.HEALTHY


def test_collect_all_async_is_awaitable():
    fleet = provision_fleet(8)

    async def scenario():
        return await fleet.collect_all_async()

    reports = asyncio.run(scenario())
    assert len(reports) == 8
    assert all(report.status is DeviceStatus.HEALTHY for report in reports)
    assert reports.stats.requests_sent == 8
    assert reports.stats.responses_received == 8
    assert reports.stats.responses_lost == 0


def test_collect_all_refuses_to_block_running_loop():
    fleet = provision_fleet(2)

    async def scenario():
        fleet.collect_all()

    with pytest.raises(RuntimeError, match="collect_all_async"):
        asyncio.run(scenario())


def test_pipeline_commits_in_device_order_across_shards():
    fleet = provision_fleet(20)
    reports = fleet.collect_all(batch_size=3, max_inflight_shards=2)
    assert [report.device_id for report in reports] == fleet.device_ids()
    assert reports.stats.shards == 7


def test_max_inflight_shards_validation():
    fleet = provision_fleet(2)
    with pytest.raises(ValueError):
        asyncio.run(fleet.verifier.collect_all_async(
            fleet.transport, max_inflight_shards=0))


# ----------------------------------------------------------------------
# Round stats
# ----------------------------------------------------------------------

def test_round_stats_returned_and_recorded_in_health():
    fleet = provision_fleet(9)
    reports = fleet.collect_all(batch_size=4)
    stats = reports.stats
    assert stats.requests_sent == 9
    assert stats.responses_received == 9
    assert stats.responses_lost == 0
    assert stats.stale_responses_rejected == 0
    assert stats.shards == 3
    assert stats.wall_seconds > 0
    assert stats.devices_per_second > 0
    assert fleet.health.round_stats == [stats]
    fleet.run_until(120.0)
    fleet.collect_all()
    assert len(fleet.health.round_stats) == 2
    assert "request(s)" in stats.summary()


def test_round_stats_not_persisted_in_health_row():
    fleet = provision_fleet(3)
    fleet.collect_all()
    row = fleet.health.to_row()
    assert "round_stats" not in row
    json.dumps(row)  # the row stays JSON-serializable


def test_round_stats_count_lost_responses():
    fleet = Fleet.provision(
        small_profile(), 6, master_secret=b"master",
        transport="simulated-network",
        transport_options={"loss_probability": 1.0, "round_timeout": 2.0})
    fleet.run_until(60.0)
    reports = fleet.collect_all()
    assert reports.stats.requests_sent == 6
    assert reports.stats.responses_received == 0
    assert reports.stats.responses_lost == 6


# ----------------------------------------------------------------------
# Overlapping rounds on the simulated network
# ----------------------------------------------------------------------

def test_overlapping_async_rounds_share_one_network():
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, latency=0.05)
    profile = small_profile()
    devices = []
    for index in range(6):
        device = profile.provision(f"n-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        devices.append(device)
    engine.run(until=60.0)
    from repro.core import CollectRequest
    request = CollectRequest(k=6).encode()

    started = engine.now

    async def scenario():
        first = transport.exchange_many_async(
            {f"n-{i}": request for i in range(3)})
        second = transport.exchange_many_async(
            {f"n-{i}": request for i in range(3, 6)})
        return await asyncio.gather(first, second)

    first, second = asyncio.run(scenario())
    assert set(first) == {"n-0", "n-1", "n-2"}
    assert set(second) == {"n-3", "n-4", "n-5"}
    assert all(payload is not None for payload in first.values())
    assert all(payload is not None for payload in second.values())
    # The two rounds overlapped in virtual time: the whole exchange took
    # barely more than one round trip, not two sequential ones.
    assert engine.now - started < 2 * (2 * 0.05)
    assert transport.stale_responses_rejected == 0


def test_stale_response_rejected_under_overlapping_async_rounds():
    engine = SimulationEngine()
    # 1 s one-way latency, 0.5 s timeout: the impatient round expires
    # while its response is still in the air.
    transport = SimulatedNetworkTransport(engine, latency=1.0,
                                          round_timeout=0.5)
    profile = small_profile()
    device = profile.provision("t-0", master_secret=b"master")
    device.prover.attach(engine)
    transport.register(device)
    engine.run(until=30.0)
    from repro.core import CollectRequest, decode_response
    request = CollectRequest(k=6).encode()

    async def impatient():
        return await transport.exchange_many_async({"t-0": request})

    first = asyncio.run(impatient())
    assert first == {"t-0": None}  # timed out, response still in flight

    # More history accrues, then a patient overlapped round runs: the
    # stale round-1 response is stepped through, rejected and counted,
    # and the fresh response (with the newer history) is returned.
    engine.run(until=60.0)
    transport.round_timeout = 30.0
    second = asyncio.run(impatient())
    assert second["t-0"] is not None
    assert transport.stale_responses_rejected == 1
    response = decode_response(second["t-0"])
    assert len(response.measurements) == 6  # history as of t>=60, not t=30


def test_concurrent_drain_cannot_smuggle_in_a_timed_out_response():
    """A response delivered past the round's deadline by *another*
    driver (an engine drain running concurrently) must be rejected as
    stale, exactly as the synchronous exchange would have done."""
    engine = SimulationEngine()
    transport = SimulatedNetworkTransport(engine, latency=1.0,
                                          round_timeout=0.5)
    profile = small_profile()
    device = profile.provision("t-0", master_secret=b"master")
    device.prover.attach(engine)
    transport.register(device)
    engine.run(until=30.0)
    from repro.core import CollectRequest
    request = CollectRequest(k=6).encode()

    async def scenario():
        drain = asyncio.ensure_future(engine.run_async(until=40.0,
                                                       yield_every=1))
        responses = await transport.exchange_many_async({"t-0": request})
        await drain
        return responses

    responses = asyncio.run(scenario())
    # The response was delivered at ~t=32, after the t=30.5 deadline —
    # the drain stepped it, but the round must not credit it.
    assert responses == {"t-0": None}
    assert transport.stale_responses_rejected == 1


def test_collection_overlaps_engine_drain():
    """A collection round can run while run_async drains the schedule."""
    fleet = provision_fleet(6, transport="simulated-network")

    async def scenario():
        drain = asyncio.ensure_future(fleet.engine.run_async(until=62.0))
        reports = await fleet.collect_all_async(batch_size=2)
        await drain
        return reports

    reports = asyncio.run(scenario())
    assert len(reports) == 6
    assert {report.status for report in reports} == {DeviceStatus.HEALTHY}
    # The drain reached its horizon; the collection added at most its
    # own round trips on top, never a timeout's worth of virtual time.
    assert 62.0 <= fleet.now < 63.0


def test_external_cancellation_does_not_orphan_shard_tasks():
    """A wait_for timeout mid-round must cancel the in-flight shard
    tasks (including the one being awaited) and deregister their
    transport rounds, instead of leaving them driving the engine."""
    fleet = provision_fleet(9, transport="simulated-network")

    async def scenario():
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(fleet.collect_all_async(batch_size=3),
                                   timeout=0)
        others = [task for task in asyncio.all_tasks()
                  if task is not asyncio.current_task()]
        assert others == []  # no orphaned shard task keeps running
        assert fleet.transport._pending == {}  # rounds deregistered

    asyncio.run(scenario())
