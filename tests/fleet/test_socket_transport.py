"""Tests for SocketTransport: real loopback datagrams, TCP fallback."""

import asyncio
import threading

import pytest

from repro.core import CollectRequest, CollectResponse, decode_response
from repro.fleet import (
    DuplicateEnrollmentError,
    Fleet,
    FleetVerifier,
    SocketTransport,
    as_async_transport,
)
from repro.sim import SimulationEngine
from repro.store import MemoryStore
from tests.fleet.helpers import health_bytes
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"socket-test-firmware"


def small_profile():
    return _small_profile(FIRMWARE)


@pytest.fixture
def transport():
    built = SocketTransport()
    yield built
    built.close()


def provision_into(transport, profile, engine, count):
    devices = []
    for index in range(count):
        device = profile.provision(f"s-{index}", master_secret=b"master")
        device.prover.attach(engine)
        transport.register(device)
        devices.append(device)
    return devices


def collect_request(profile) -> bytes:
    return CollectRequest(
        k=profile.config.measurements_per_collection).encode()


def test_loopback_exchange_round_trips(transport):
    profile = small_profile()
    engine = SimulationEngine()
    provision_into(transport, profile, engine, 5)
    engine.run(until=60.0)
    request = collect_request(profile)
    responses = transport.exchange_many(
        {f"s-{index}": request for index in range(5)})
    assert set(responses) == {f"s-{index}" for index in range(5)}
    for payload in responses.values():
        response = decode_response(payload)
        assert isinstance(response, CollectResponse)
        assert len(response.measurements) == \
            profile.config.measurements_per_collection


def test_oversized_response_takes_tcp_fallback():
    profile = small_profile()
    engine = SimulationEngine()
    # A datagram budget smaller than one measurement record forces
    # every data-bearing response through the TCP fetch path.
    transport = SocketTransport(max_datagram=64)
    try:
        provision_into(transport, profile, engine, 3)
        engine.run(until=60.0)
        request = collect_request(profile)
        responses = transport.exchange_many(
            {f"s-{index}": request for index in range(3)})
        assert transport.tcp_fallbacks == 3
        for payload in responses.values():
            assert len(payload) > 64
            assert len(decode_response(payload).measurements) > 0
    finally:
        transport.close()


def test_exchange_many_async_overlaps_on_callers_loop(transport):
    profile = small_profile()
    engine = SimulationEngine()
    provision_into(transport, profile, engine, 6)
    engine.run(until=60.0)
    request = collect_request(profile)
    # The collection pipeline's seam binds to the native awaitable
    # exchange, so shard coroutines overlap rounds on one socket pair.
    seam = as_async_transport(transport)
    assert seam.inner is transport

    async def run():
        shards = [{f"s-{index}": request for index in range(start, start + 2)}
                  for start in (0, 2, 4)]
        results = await asyncio.gather(
            *[transport.exchange_many_async(shard) for shard in shards])
        return results

    results = asyncio.run(run())
    assert sum(len(r) for r in results) == 6
    assert all(payload is not None
               for result in results for payload in result.values())


def test_empty_exchange_resolves_immediately(transport):
    assert transport.exchange_many({}) == {}
    assert asyncio.run(transport.exchange_many_async({})) == {}


def test_unregistered_device_raises(transport):
    with pytest.raises(KeyError):
        transport.exchange_many({"ghost": b"\x01"})


def test_duplicate_registration_rejected(transport):
    profile = small_profile()
    engine = SimulationEngine()
    device, = provision_into(transport, profile, engine, 1)
    with pytest.raises(ValueError):
        transport.register(device)


def test_garbage_request_resolves_none_without_timeout(transport):
    profile = small_profile()
    engine = SimulationEngine()
    provision_into(transport, profile, engine, 1)
    # The prover keeps silence on garbage; the server signals that
    # explicitly so the client resolves None instead of waiting out
    # the round timeout.
    assert transport.exchange("s-0", b"\xffgarbage") is None


def test_close_is_idempotent_and_final(transport):
    transport.close()
    transport.close()
    with pytest.raises(RuntimeError):
        transport.exchange_many({})


def test_validation_rejects_bad_construction():
    with pytest.raises(ValueError):
        SocketTransport(max_datagram=4)
    with pytest.raises(ValueError):
        SocketTransport(round_timeout=0.0)


def test_fleet_round_over_sockets_matches_in_process():
    rows = {}
    for name in ("in-process", "socket"):
        fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                                transport=name, shards=2)
        try:
            fleet.run_until(60.0)
            reports = fleet.collect_all()
            assert len(reports) == 12
            assert reports.stats.responses_lost == 0
            rows[name] = health_bytes(fleet.verifier)
        finally:
            fleet.close()
    assert rows["in-process"] == rows["socket"]


def test_failed_provision_closes_the_transport_it_built():
    """A provision that raises leaves no socket thread or socket behind."""
    def socket_threads():
        return [thread for thread in threading.enumerate()
                if thread.name == "socket-transport"]

    before = len(socket_threads())
    with pytest.raises(ValueError):
        Fleet.provision(small_profile(), 2, master_secret=b"master",
                        transport="socket", shards=0)
    with pytest.raises(ValueError):
        Fleet.provision(small_profile(), 2, master_secret=b"master",
                        transport="socket", shards=2, worker_mode="thread")
    # A failure mid-way through enrollment: dev-0001 is already in the
    # store, so the second device of the loop raises.
    store = MemoryStore()
    FleetVerifier(small_profile().config, store=store).enroll_device(
        small_profile().provision("dev-0001", master_secret=b"master"))
    with pytest.raises(DuplicateEnrollmentError):
        Fleet.provision(small_profile(), 3, master_secret=b"master",
                        transport="socket", store=store)
    assert len(socket_threads()) == before
