"""Tests for ShardedFleetVerifier: shard assignment, merge exactness.

Every sharded fleet here verifies in worker processes; its unsharded
twin (same profile and master secret) is the in-process reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeviceStatus
from repro.fleet import (
    Fleet,
    FleetVerifier,
    MemorySink,
    ShardedFleetVerifier,
)
from repro.store import MemoryStore
from tests.fleet.helpers import health_bytes, report_key
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"sharded-test-firmware"
MALWARE = b"sharded-test-implant!"


def small_profile():
    return _small_profile(FIRMWARE)


def provision_pair(count, shards, infected=(), rounds=1, **sharded_kwargs):
    """Two deterministic twin fleets: single-verifier and sharded.

    Provisioning is a pure function of profile and master secret, so
    both fleets carry identical devices with identical measurement
    histories; only where verification runs differs.  Both fleets come
    back closed (worker processes stopped), their results intact.
    """
    outcomes = []
    for shard_count in (None, shards):
        fleet = Fleet.provision(small_profile(), count,
                                master_secret=b"master",
                                shards=shard_count,
                                **(sharded_kwargs if shard_count else {}))
        horizon = 0.0
        all_reports = []
        for _ in range(rounds):
            horizon += 60.0
            fleet.run_until(horizon)
            for device_id in infected:
                fleet.device(device_id).load_application(MALWARE)
            fleet.run_until(horizon + 20.0)
            horizon += 20.0
            for device_id in infected:
                fleet.device(device_id).load_application(FIRMWARE)
            all_reports.append(fleet.collect_all())
        fleet.close()
        outcomes.append((fleet, all_reports))
    return outcomes


def test_sharded_round_matches_single_verifier():
    (single, single_rounds), (sharded, sharded_rounds) = provision_pair(
        20, shards=3, infected=("dev-0004", "dev-0011"))
    for single_reports, sharded_reports in zip(single_rounds, sharded_rounds):
        assert [report_key(r) for r in single_reports] == \
            [report_key(r) for r in sharded_reports]
    assert health_bytes(single.verifier) == health_bytes(sharded.verifier)
    assert sharded.health.flagged_devices == {"dev-0004", "dev-0011"}
    assert sharded.verifier.worker_pool.restarts == [0, 0, 0]


def test_shard_assignment_is_stable_round_robin():
    verifier = ShardedFleetVerifier(small_profile().config, shards=3)
    profile = small_profile()
    for index in range(7):
        verifier.enroll_device(
            profile.provision(f"s-{index}", master_secret=b"master"))
    assert [verifier.shard_of(f"s-{index}") for index in range(7)] == \
        [0, 1, 2, 0, 1, 2, 0]
    assert verifier.device_count == 7
    assert verifier.enrolled_ids() == [f"s-{index}" for index in range(7)]
    assert [worker.device_count for worker in verifier.workers] == [3, 2, 2]
    with pytest.raises(KeyError):
        verifier.shard_of("ghost")


def test_sharded_requires_at_least_one_shard_and_known_mode():
    with pytest.raises(ValueError):
        ShardedFleetVerifier(small_profile().config, shards=0)
    # worker_mode may only restate what shards implies.
    with pytest.raises(ValueError, match="does not match shards"):
        Fleet.provision(small_profile(), 2, master_secret=b"master",
                        worker_mode="process")
    with pytest.raises(ValueError, match="does not match shards"):
        Fleet.provision(small_profile(), 2, master_secret=b"master",
                        shards=2, worker_mode="loop")


@settings(max_examples=12, deadline=None)
@given(count=st.integers(min_value=1, max_value=16),
       shards=st.integers(min_value=1, max_value=5),
       infected_seed=st.integers(min_value=0, max_value=2 ** 16),
       rounds=st.integers(min_value=1, max_value=2))
def test_shard_merge_health_byte_identical_property(count, shards,
                                                    infected_seed, rounds):
    """ShardedFleetVerifier health == single-verifier health, bytewise.

    Whatever the fleet size, shard count, infection pattern and number
    of rounds, merging the health parts the worker processes ship home
    must reproduce the single verifier's aggregate exactly — floats
    included, thanks to the exact freshness accumulator.
    """
    infected = tuple(f"dev-{index:04d}"
                     for index in range(count)
                     if (infected_seed >> index) & 1)
    (single, _), (sharded, _) = provision_pair(count, shards,
                                               infected=infected,
                                               rounds=rounds)
    assert health_bytes(single.verifier) == health_bytes(sharded.verifier)
    assert single.health.reports_total == count * rounds


def test_sharded_shared_store_checkpoint_identical_to_single():
    single_store, sharded_store = MemoryStore(), MemoryStore()
    single = Fleet.provision(small_profile(), 10, master_secret=b"master",
                             store=single_store)
    sharded = Fleet.provision(small_profile(), 10, master_secret=b"master",
                              shards=4, store=sharded_store)
    for fleet in (single, sharded):
        with fleet:
            fleet.run_until(30.0)
            fleet.device("dev-0002").load_application(MALWARE)
            fleet.run_until(60.0)
            fleet.collect_all()
    assert single_store.state_bytes() == sharded_store.state_bytes()
    assert single_store.state_bytes()  # a checkpoint was actually written
    assert sharded.health.flagged_devices == {"dev-0002"}


def test_thread_worker_mode_is_rejected():
    with pytest.raises(ValueError, match="'loop' or 'process'"):
        Fleet.provision(small_profile(), 2, master_secret=b"master",
                        shards=2, worker_mode="thread")


def test_sharded_loop_mode_overlaps_simulated_network_rounds():
    with Fleet.provision(small_profile(), 12, master_secret=b"master",
                         shards=4, transport="simulated-network") as fleet:
        fleet.run_until(60.0)
        before = fleet.now
        reports = fleet.collect_all(batch_size=3)
        assert len(reports) == 12
        assert {r.status for r in reports} == {DeviceStatus.HEALTHY}
        # Four shard workers' rounds overlapped in virtual time: the whole
        # fleet cost scarcely more than one round trip, not one per shard.
        assert fleet.now - before < 4 * (2 * 0.005)


def test_sharded_sinks_receive_reports_in_enrollment_order():
    sink = MemorySink()
    with Fleet.provision(small_profile(), 9, master_secret=b"master",
                         shards=2, sinks=(sink,)) as fleet:
        fleet.run_until(60.0)
        fleet.collect_all()
        assert [report.device_id for report in sink.reports] == \
            fleet.device_ids()


def test_sharded_round_stats_merge():
    with Fleet.provision(small_profile(), 10, master_secret=b"master",
                         shards=2) as fleet:
        fleet.run_until(60.0)
        reports = fleet.collect_all(batch_size=3)
        stats = reports.stats
        assert stats.requests_sent == 10
        assert stats.responses_received == 10
        assert stats.responses_lost == 0
        # Shards of 5 devices with batch_size 3: two pipeline shards each.
        assert stats.shards == 4
        assert stats.wall_seconds > 0
        assert fleet.health.round_stats == [stats]


def test_sharded_last_collection_time_and_enrollment_lookups():
    with Fleet.provision(small_profile(), 6, master_secret=b"master",
                         shards=3) as fleet:
        fleet.run_until(60.0)
        fleet.collect_all()
        verifier = fleet.verifier
        assert verifier.is_enrolled("dev-0000")
        assert not verifier.is_enrolled("ghost")
        assert verifier.last_collection_time("dev-0003") == \
            pytest.approx(60.0)
        assert verifier.last_collection_time("ghost") is None
        assert verifier.worker_for("dev-0004").is_enrolled("dev-0004")


def test_sharded_close_is_idempotent():
    sink = MemorySink()
    verifier = ShardedFleetVerifier(small_profile().config, shards=2,
                                    sinks=(sink,), store=MemoryStore())
    verifier.close()
    verifier.close()  # second close must be a no-op


class _ExplodingSink(MemorySink):
    """A sink that dies mid-fanout, then refuses further emits."""

    def __init__(self):
        super().__init__()
        self.closed = False

    def emit(self, report):
        if self.closed:
            raise ValueError("emit on a closed sink")
        if len(self.reports) >= 3:
            raise ConnectionError("log pipeline gone")
        super().emit(report)

    def close(self):
        self.closed = True


def test_sharded_retry_round_survives_sink_failure():
    """A dead sink is pruned so the retry streams to the survivors."""
    exploding, survivor = _ExplodingSink(), MemorySink()
    with Fleet.provision(small_profile(), 8, master_secret=b"master",
                         shards=2, sinks=(exploding, survivor)) as fleet:
        fleet.run_until(60.0)
        with pytest.raises(ConnectionError):
            fleet.collect_all()
        assert exploding not in fleet.verifier.sinks
        assert survivor in fleet.verifier.sinks
        fleet.run_until(120.0)
        retry = fleet.collect_all()
        assert len(retry) == 8
        # Three before the failure, eight from the retry round.
        assert len(survivor.reports) == 11


def test_sharded_collect_refuses_to_block_running_loop():
    import asyncio

    fleet = Fleet.provision(small_profile(), 4, master_secret=b"master",
                            shards=2)
    fleet.run_until(60.0)

    async def scenario():
        fleet.collect_all()

    with pytest.raises(RuntimeError, match="synchronous code"):
        asyncio.run(scenario())


def test_single_shard_equals_plain_fleet_verifier():
    (single, single_rounds), (sharded, sharded_rounds) = provision_pair(
        5, shards=1)
    assert [report_key(r) for r in single_rounds[0]] == \
        [report_key(r) for r in sharded_rounds[0]]
    assert isinstance(sharded.verifier, ShardedFleetVerifier)
    assert isinstance(single.verifier, FleetVerifier)
    assert health_bytes(single.verifier) == health_bytes(sharded.verifier)


def test_more_workers_than_devices_counts_real_shards_only():
    with Fleet.provision(small_profile(), 2, master_secret=b"master",
                         shards=4) as fleet:
        fleet.run_until(60.0)
        reports = fleet.collect_all()
        assert len(reports) == 2
        # Two device-less workers must not invent shards in the merge.
        assert reports.stats.shards == 2
        assert reports.stats.requests_sent == 2


class _LockProbeStore(MemoryStore):
    """Records whether the shared-store lock was held at checkpoint."""

    def __init__(self):
        super().__init__()
        self.shared_lock = None
        self.checkpoint_lock_held = []

    def checkpoint(self, health, last_collection_times,
                   rounds_completed=0):
        if self.shared_lock is not None:
            self.checkpoint_lock_held.append(
                self.shared_lock._is_owned())
        super().checkpoint(health, last_collection_times,
                           rounds_completed=rounds_completed)


def test_sharded_checkpoint_goes_through_the_locked_store():
    """The merged checkpoint must hold the same lock shard writes take.

    A pipelined round can still have a straggler shard appending report
    rows when the parent checkpoints; writing around the lock would
    interleave with it on the single-writer backends.
    """
    probe = _LockProbeStore()
    with Fleet.provision(small_profile(), 8, master_secret=b"master",
                         shards=2, store=probe) as fleet:
        probe.shared_lock = fleet.verifier._shared_store._lock
        fleet.run_until(30.0)
        fleet.collect_all()
        assert probe.checkpoint_lock_held
        assert all(probe.checkpoint_lock_held)
