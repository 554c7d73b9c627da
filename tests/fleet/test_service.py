"""Tests for the FleetVerifier service, sinks and the Fleet facade."""

import io
import json

import pytest

from repro.core import DeviceStatus
from repro.fleet import (
    DeviceProfile,
    Fleet,
    FleetHealth,
    FleetHealthSink,
    JsonlSink,
    MemorySink,
)

FIRMWARE = b"service-test-firmware"
MALWARE = b"service-test-implant!"


def small_profile() -> DeviceProfile:
    return DeviceProfile.smartplus(firmware=FIRMWARE, application_size=256,
                                   measurement_interval=10.0,
                                   collection_interval=60.0,
                                   buffer_slots=8)


@pytest.fixture
def fleet() -> Fleet:
    return Fleet.provision(small_profile(), 20, master_secret=b"master")


def test_collect_all_produces_one_report_per_device(fleet):
    fleet.run_until(60.0)
    reports = fleet.collect_all()
    assert len(reports) == 20
    assert {report.device_id for report in reports} == set(fleet.device_ids())
    assert all(report.status is DeviceStatus.HEALTHY for report in reports)
    assert fleet.verifier.rounds_completed == 1


def test_staggered_schedules_spread_measurements(fleet):
    fleet.run_until(60.0)
    timestamps = set()
    for device in fleet.devices():
        timestamps.update(m.timestamp
                          for m in device.prover.store.all_measurements())
    # Without staggering every device would measure at the same 6
    # instants; with it the fleet spreads over the whole interval.
    assert len(timestamps) > 6 * 3


def test_batched_and_threaded_round_matches_serial(fleet):
    fleet.run_until(60.0)
    serial = fleet.collect_all()
    batched = fleet.collect_all(batch_size=7)
    assert [r.device_id for r in serial] == [r.device_id for r in batched]
    assert all(report.status is DeviceStatus.HEALTHY for report in batched)


def test_transient_infection_flagged_in_round(fleet):
    fleet.run_until(20.0)
    fleet.device("dev-0003").load_application(MALWARE)
    fleet.run_until(40.0)
    fleet.device("dev-0003").load_application(FIRMWARE)
    fleet.run_until(60.0)
    reports = {report.device_id: report for report in fleet.collect_all()}
    assert reports["dev-0003"].status is DeviceStatus.INFECTED
    assert reports["dev-0003"].infected_timestamps
    assert reports["dev-0000"].status is DeviceStatus.HEALTHY
    assert fleet.health.flagged_devices == {"dev-0003"}


def test_second_round_only_judges_new_measurements(fleet):
    fleet.run_until(60.0)
    first = fleet.collect_all()
    fleet.run_until(120.0)
    second = fleet.collect_all()
    assert all(report.status is DeviceStatus.HEALTHY for report in first)
    assert all(report.status is DeviceStatus.HEALTHY for report in second)
    assert fleet.health.reports_total == 40


def test_device_unknown_to_transport_raises(fleet):
    fleet.run_until(60.0)
    # Enroll a device that exists for the verifier but not the transport.
    ghost = small_profile().provision("ghost", master_secret=b"master")
    fleet.verifier.enroll_device(ghost)
    with pytest.raises(KeyError):
        fleet.collect_all()


def test_unresponsive_devices_reported_no_data():
    fleet = Fleet.provision(
        small_profile(), 4, master_secret=b"master",
        transport="simulated-network",
        transport_options={"loss_probability": 1.0, "round_timeout": 2.0})
    fleet.run_until(60.0)
    reports = fleet.collect_all()
    assert len(reports) == 4
    assert all(report.status is DeviceStatus.NO_DATA for report in reports)
    assert all("no response received" in report.anomalies[0]
               for report in reports)
    assert reports[0].freshness is None
    assert reports[0].freshness_label == "n/a"


def test_sinks_receive_streamed_reports():
    memory = MemorySink()
    stream = io.StringIO()
    jsonl = JsonlSink(stream)
    fleet = Fleet.provision(small_profile(), 5, master_secret=b"master",
                            sinks=(memory, jsonl))
    fleet.run_until(60.0)
    fleet.collect_all()
    assert len(memory.reports) == 5
    assert jsonl.lines_written == 5
    rows = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert {row["device_id"] for row in rows} == set(fleet.device_ids())
    assert all(row["status"] == "healthy" for row in rows)
    assert memory.for_device("dev-0002")


def test_jsonl_sink_writes_file(tmp_path):
    path = tmp_path / "reports.jsonl"
    sink = JsonlSink(str(path))
    fleet = Fleet.provision(small_profile(), 3, master_secret=b"master",
                            sinks=(sink,))
    fleet.run_until(60.0)
    fleet.collect_all()
    fleet.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["measurements"] > 0


def test_fleet_health_aggregation():
    health = FleetHealth()
    sink = FleetHealthSink(health)
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            sinks=(sink,))
    fleet.run_until(20.0)
    fleet.device("dev-0001").load_application(MALWARE)
    fleet.run_until(60.0)
    fleet.collect_all()
    assert health.devices_total == 8
    assert health.count(DeviceStatus.INFECTED) == 1
    assert health.healthy_fraction == pytest.approx(7 / 8)
    assert health.mean_freshness is not None
    assert "flagged devices: dev-0001" in health.summary()


def test_empty_fleet_health_summary_renders():
    health = FleetHealth()
    assert health.mean_freshness is None
    assert health.healthy_fraction == 0.0
    assert "0 device(s)" in health.summary()


def test_same_scenario_runs_on_every_named_transport():
    outcomes = {}
    for transport in ("in-process", "simulated-network", "swarm-relay"):
        fleet = Fleet.provision(small_profile(), 10,
                                master_secret=b"master",
                                transport=transport)
        fleet.run_until(60.0)
        reports = fleet.collect_all()
        outcomes[transport] = sorted(
            (report.device_id, report.status.value,
             report.measurement_count) for report in reports)
    assert outcomes["in-process"] == outcomes["simulated-network"]
    assert outcomes["in-process"] == outcomes["swarm-relay"]


def test_unknown_transport_name_rejected():
    with pytest.raises(ValueError):
        Fleet.provision(small_profile(), 2, master_secret=b"master",
                        transport="carrier-pigeon")


def test_verifier_refuses_unenrolled_device(fleet):
    with pytest.raises(KeyError):
        fleet.verifier.collect_all(fleet.transport, 0.0,
                                   device_ids=["nobody"])


def test_last_collection_time_tracked(fleet):
    fleet.run_until(60.0)
    fleet.collect_all()
    assert fleet.verifier.last_collection_time("dev-0000") == \
        pytest.approx(60.0)
    assert fleet.verifier.last_collection_time("missing") is None


def test_lossy_network_never_misflags_healthy_devices():
    """Regression: lost responses must not corrupt the round for others.

    A partially lossy round used to (a) drain the engine all the way to
    the transport timeout, jumping the fleet clock and letting provers
    self-measure mid-round, and (b) verify those batches against the
    round-start time — mass-flagging perfectly healthy devices as
    TAMPERED with "timestamped in the future".
    """
    fleet = Fleet.provision(
        small_profile(), 30, master_secret=b"master",
        transport="simulated-network",
        transport_options={"loss_probability": 0.2, "round_timeout": 30.0,
                           "seed": 7})
    fleet.run_until(60.0)
    reports = fleet.collect_all(batch_size=10)
    statuses = {report.status for report in reports}
    # Every device is either verified healthy or went unanswered —
    # never tampered/infected.
    assert statuses <= {DeviceStatus.HEALTHY, DeviceStatus.NO_DATA}
    assert DeviceStatus.NO_DATA in statuses  # losses did occur
    # The clock advanced only by actual round-trip time, not by the
    # 30 s timeout per batch.
    assert fleet.now < 61.0


def test_explicit_collection_time_still_honoured():
    fleet = Fleet.provision(small_profile(), 4, master_secret=b"master")
    fleet.run_until(60.0)
    reports = fleet.collect_all(collection_time=59.5)
    assert all(report.collection_time == 59.5 for report in reports)


def test_engineless_transport_requires_collection_time():
    from repro.fleet import FleetVerifier, InProcessTransport

    profile = small_profile()
    device = profile.provision("lone", master_secret=b"master")
    transport = InProcessTransport()  # no engine attached
    transport.register(device)
    verifier = FleetVerifier(profile.config)
    verifier.enroll_device(device)
    with pytest.raises(ValueError):
        verifier.collect_all(transport)


def test_profile_factories_reject_config_plus_overrides():
    from repro.core import ErasmusConfig
    config = ErasmusConfig(measurement_interval=10.0)
    with pytest.raises(ValueError):
        DeviceProfile.smartplus(config=config, measurement_interval=30.0)
    with pytest.raises(ValueError):
        DeviceProfile.hydra(config=config, buffer_slots=4)


class _ExplodingTransport:
    """A transport that fails after serving its first batch."""

    name = "exploding"
    engine = None

    def __init__(self, inner, explode_after: int):
        self._inner = inner
        self._exchanges = 0
        self._explode_after = explode_after

    def register(self, device):
        self._inner.register(device)

    def exchange_many(self, requests):
        self._exchanges += 1
        if self._exchanges > self._explode_after:
            raise ConnectionError("uplink lost mid-round")
        return self._inner.exchange_many(requests)


def test_transport_failure_mid_round_closes_sinks(tmp_path, fleet):
    """Reports verified before a mid-round transport failure hit disk."""
    path = tmp_path / "partial.jsonl"
    sink = JsonlSink(str(path))
    fleet.verifier.add_sink(sink)
    fleet.run_until(60.0)
    exploding = _ExplodingTransport(fleet.transport, explode_after=1)
    with pytest.raises(ConnectionError):
        fleet.verifier.collect_all(exploding, collection_time=60.0,
                                   batch_size=8)
    # The first batch's eight reports were flushed and the sink closed.
    lines = path.read_text().splitlines()
    assert len(lines) == 8
    assert sink.closed
    # Closing again (Fleet.close, context managers) stays harmless.
    sink.close()


def test_clean_round_flushes_but_keeps_sinks_open(tmp_path, fleet):
    path = tmp_path / "rounds.jsonl"
    sink = JsonlSink(str(path))
    fleet.verifier.add_sink(sink)
    fleet.run_until(60.0)
    fleet.collect_all()
    # Flushed to disk at end of round, but still open for the next one.
    assert len(path.read_text().splitlines()) == 20
    assert not sink.closed
    fleet.run_until(120.0)
    fleet.collect_all()
    assert len(path.read_text().splitlines()) == 40
    fleet.close()


def test_jsonl_sink_flush_every_bounds_data_loss(tmp_path):
    from repro.core.verification import VerificationReport

    path = tmp_path / "flushed.jsonl"
    sink = JsonlSink(str(path), flush_every=5)
    for index in range(7):
        sink.emit(VerificationReport(device_id=f"dev-{index}",
                                     collection_time=float(index),
                                     status=DeviceStatus.NO_DATA))
    # The fifth emit crossed the flush threshold: even if the process
    # dies now without close(), at most flush_every reports are lost.
    assert len(path.read_text().splitlines()) >= 5
    sink.close()
    assert len(path.read_text().splitlines()) == 7
    with pytest.raises(ValueError):
        JsonlSink(io.StringIO(), flush_every=0)


def test_retry_round_works_after_mid_round_failure(tmp_path, fleet):
    """A transient transport error must not poison later rounds."""
    path = tmp_path / "partial.jsonl"
    sink = JsonlSink(str(path))
    memory = MemorySink()
    fleet.verifier.add_sink(sink)
    fleet.verifier.add_sink(memory)
    fleet.run_until(60.0)
    exploding = _ExplodingTransport(fleet.transport, explode_after=1)
    with pytest.raises(ConnectionError):
        fleet.verifier.collect_all(exploding, collection_time=60.0,
                                   batch_size=8)
    # The closed JSONL sink was pruned; the memory sink survives and
    # the retry round completes normally.
    assert sink not in fleet.verifier.sinks
    assert memory in fleet.verifier.sinks
    retry = fleet.collect_all()
    assert len(retry) == 20
    assert len(memory.reports) == 28  # 8 from the failed round + 20


class _FlakySink(MemorySink):
    """A sink whose close / flush can be made to fail, with counters."""

    def __init__(self, fail_close: bool = False):
        super().__init__()
        self.fail_close = fail_close
        self.close_calls = 0
        self.flush_calls = 0
        self.closed = False

    def flush(self):
        self.flush_calls += 1

    def close(self):
        self.close_calls += 1
        self.closed = True
        if self.fail_close:
            raise OSError("backing stream gone")


def test_fleet_close_is_idempotent(tmp_path, fleet):
    sink = JsonlSink(str(tmp_path / "out.jsonl"))
    fleet.verifier.add_sink(sink)
    fleet.run_until(60.0)
    fleet.collect_all()
    fleet.close()
    assert sink.closed
    # A second close — context-manager exit after an explicit call,
    # double cleanup in a finally block — must be a silent no-op.
    fleet.close()
    with fleet:
        pass  # __exit__ is the third close


def test_fleet_close_after_mid_round_failure_does_not_raise(tmp_path, fleet):
    sink = JsonlSink(str(tmp_path / "partial.jsonl"))
    fleet.verifier.add_sink(sink)
    fleet.run_until(60.0)
    exploding = _ExplodingTransport(fleet.transport, explode_after=1)
    with pytest.raises(ConnectionError):
        fleet.verifier.collect_all(exploding, collection_time=60.0,
                                   batch_size=8)
    assert sink.closed  # the failed round closed it
    fleet.close()  # must not raise on the already-closed sink
    fleet.close()


def test_fleet_close_releases_everything_despite_sink_failure(fleet):
    bad = _FlakySink(fail_close=True)
    good = _FlakySink()
    fleet.verifier.add_sink(bad)
    fleet.verifier.add_sink(good)
    with pytest.raises(OSError):
        fleet.close()
    # The failing sink did not stop the later sink (or the store) from
    # being released, and the close is not retried on re-entry.
    assert good.close_calls == 1
    fleet.close()
    assert bad.close_calls == 1
    assert good.close_calls == 1


def test_sink_fanout_close_is_idempotent():
    from repro.fleet import SinkFanout

    sink = _FlakySink()
    fanout = SinkFanout([sink])
    fanout.close()
    fanout.close()
    assert sink.close_calls == 1
    # Flushing after closure skips the closed sink instead of raising
    # or double-flushing buffered data.
    fanout.flush()
    assert sink.flush_calls == 0


def test_sink_fanout_flush_skips_closed_sinks():
    from repro.fleet import SinkFanout

    open_sink, closed_sink = _FlakySink(), _FlakySink()
    closed_sink.close()
    fanout = SinkFanout([open_sink, closed_sink])
    with fanout:
        pass  # clean exit flushes
    assert open_sink.flush_calls == 1
    assert closed_sink.flush_calls == 0
    assert closed_sink.close_calls == 1


class _ExplodingFlushSink(_FlakySink):
    """A sink whose flush itself raises."""

    def flush(self):
        super().flush()
        raise OSError("flush target gone")


def test_sink_fanout_flush_reaches_every_sink_despite_failure():
    from repro.fleet import SinkFanout

    bad, late = _ExplodingFlushSink(), _FlakySink()
    fanout = SinkFanout([bad, late])
    # The failing sink must not strand reports buffered in the sinks
    # behind it: every sink is flushed, then the first error raises —
    # the same semantics close() has always had.
    with pytest.raises(OSError, match="flush target gone"):
        fanout.flush()
    assert bad.flush_calls == 1
    assert late.flush_calls == 1


def test_sink_fanout_flush_raises_first_error_of_several():
    from repro.fleet import SinkFanout

    first, second = _ExplodingFlushSink(), _ExplodingFlushSink()
    fanout = SinkFanout([first, second])
    with pytest.raises(OSError) as excinfo:
        fanout.flush()
    assert first.flush_calls == 1
    assert second.flush_calls == 1
    # Deterministically the *first* failure, not the last.
    assert excinfo.value is not None


def test_round_stats_carry_a_monotonic_wall_pair(fleet):
    fleet.run_until(60.0)
    stats = fleet.collect_all().stats
    assert stats.wall_end > stats.wall_start > 0.0
    assert stats.wall_seconds == stats.wall_end - stats.wall_start


def test_consecutive_rounds_have_ordered_wall_pairs(fleet):
    fleet.run_until(60.0)
    first = fleet.collect_all().stats
    fleet.run_until(120.0)
    second = fleet.collect_all().stats
    # One process-wide monotonic clock: round two started after round
    # one ended, and the pairs order the rounds without wall dates.
    assert second.wall_start >= first.wall_end


def test_merged_round_stats_bracket_their_parts():
    from repro.fleet import RoundStats

    parts = [
        RoundStats(requests_sent=4, wall_seconds=2.0, wall_start=10.0,
                   wall_end=12.0),
        RoundStats(requests_sent=6, wall_seconds=3.0, wall_start=11.0,
                   wall_end=14.0),
        RoundStats(requests_sent=1),  # never stamped: must not shrink
    ]
    merged = RoundStats.merged(parts)
    assert merged.requests_sent == 11
    assert merged.wall_seconds == 3.0  # slowest shard, as before
    assert merged.wall_start == 10.0
    assert merged.wall_end == 14.0
    unstamped = RoundStats.merged([RoundStats(requests_sent=2)])
    assert (unstamped.wall_start, unstamped.wall_end) == (0.0, 0.0)


def test_key_change_invalidates_the_cached_judge(fleet):
    """A re-enrolled key must not be judged with the old key's judge."""
    fleet.run_until(60.0)
    assert all(report.status is DeviceStatus.HEALTHY
               for report in fleet.collect_all())
    device = fleet.device("dev-0003")
    verifier = fleet.verifier
    verifier.enroll(device.device_id, b"rotated-key-0003",
                    verifier.healthy_digests(device.device_id))
    fleet.run_until(120.0)
    by_id = {report.device_id: report for report in fleet.collect_all()}
    report = by_id["dev-0003"]
    assert report.status is DeviceStatus.TAMPERED
    assert any("failed MAC verification" in anomaly
               for anomaly in report.anomalies)
    assert by_id["dev-0004"].status is DeviceStatus.HEALTHY
