"""Tests for the process worker pool: codec, crash recovery, spans.

Byte-identity of sharded (worker-process) rounds against an unsharded
verifier lives in ``tests/fleet/test_sharded.py``.
"""

import pytest

from repro.core import DeviceStatus
from repro.fleet import Fleet, FleetVerifier, WorkerCrashed, WorkerError, \
    WorkerPool
from repro.fleet.workers import (
    decode_result,
    decode_task,
    encode_result,
    encode_task,
)
from tests.fleet.helpers import small_profile as _small_profile

FIRMWARE = b"workers-test-firmware"


def small_profile():
    return _small_profile(FIRMWARE)


# ----------------------------------------------------------------------
# Binary task codec
# ----------------------------------------------------------------------

def test_task_codec_round_trip():
    entries = [("dev-0000", b"\x02some-payload", 42.5),
               ("dev-0001", None, None),
               ("dev-0002", b"", 0.0),
               ("dev-é", b"\x00\xff" * 100, None)]
    frame = encode_task(123.25, entries, want_timings=True)
    collection_time, flags, decoded = decode_task(frame)
    assert collection_time == 123.25
    assert flags & 0x01
    assert [(device_id, None if payload is None else bytes(payload),
             last_seen) for device_id, payload, last_seen in decoded] \
        == entries


def test_task_codec_payloads_are_views():
    frame = encode_task(0.0, [("d", b"payload-bytes", None)])
    _, _, entries = decode_task(frame)
    payload = entries[0][1]
    assert isinstance(payload, memoryview)
    assert payload.readonly
    assert bytes(payload) == b"payload-bytes"


def test_result_codec_round_trip():
    rows = [{"device_id": "dev-0000", "status": "ok", "anomalies": []},
            {"device_id": "dev-0001", "status": "no_data"}]
    health = {"devices_seen": ["dev-0000"], "rounds": 1}
    decoded_rows, decoded_health, timings = decode_result(
        encode_result(rows, health, [0.5, 0.25]))
    assert decoded_rows == rows
    assert decoded_health == health
    assert timings == [0.5, 0.25]
    decoded_rows, decoded_health, timings = decode_result(
        encode_result([], health))
    assert decoded_rows == []
    assert decoded_health == health
    assert timings is None


# ----------------------------------------------------------------------
# Crash injection and recovery
# ----------------------------------------------------------------------

def test_worker_crash_loses_round_then_rejoins():
    # A whole collection round vanishes with the crashed worker, so the
    # survivors' buffers bridge a one-round gap on rejoin: tolerate it.
    fleet = Fleet.provision(small_profile(), 12, master_secret=b"master",
                            shards=2, allowed_missing=8)
    try:
        verifier = fleet.verifier
        shard0 = [device_id for device_id in verifier.enrolled_ids()
                  if verifier.shard_of(device_id) == 0]
        others = [device_id for device_id in verifier.enrolled_ids()
                  if verifier.shard_of(device_id) != 0]
        assert shard0 and others

        fleet.run_until(60.0)
        first = {r.device_id: r for r in fleet.collect_all()}
        assert all(r.status is DeviceStatus.HEALTHY for r in first.values())
        pool = verifier.worker_pool
        assert pool is not None

        pool.inject_crash(0)
        fleet.run_until(120.0)
        second = {r.device_id: r for r in fleet.collect_all()}
        for device_id in shard0:
            report = second[device_id]
            assert report.status is DeviceStatus.NO_DATA
            assert any("worker crashed" in anomaly
                       for anomaly in report.anomalies)
        for device_id in others:
            assert second[device_id].status is DeviceStatus.HEALTHY
        assert second[shard0[0]].collection_time == \
            pytest.approx(120.0, abs=1.0)

        # The next round respawns the slot, re-ships its enrollment
        # mirror, and the shard rejoins with data-bearing reports.
        fleet.run_until(180.0)
        third = {r.device_id: r for r in fleet.collect_all()}
        assert all(r.status is DeviceStatus.HEALTHY for r in third.values())
        assert all(r.measurement_count > 0 for r in third.values())
        assert pool.restarts[0] == 1
        assert pool.restarts[1] == 0
        assert verifier.health.devices_seen == set(verifier.enrolled_ids())
    finally:
        fleet.close()


def test_crash_round_health_counts_shard_devices_unseen():
    fleet = Fleet.provision(small_profile(), 8, master_secret=b"master",
                            shards=2)
    try:
        fleet.run_until(60.0)
        fleet.verifier.warm_up()
        pool = fleet.verifier.worker_pool
        pool.inject_crash(1)
        reports = fleet.collect_all()
        shard1 = {device_id for device_id in fleet.verifier.enrolled_ids()
                  if fleet.verifier.shard_of(device_id) == 1}
        assert {r.device_id for r in reports
                if r.status is DeviceStatus.NO_DATA} == shard1
        stats = reports.stats
        assert stats.responses_lost == len(shard1)
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Span traces through the shared round loop
# ----------------------------------------------------------------------

def traced_fleet(count=6, **kwargs):
    from repro.obs import Observability

    obs = Observability(seed=3)
    fleet = Fleet.provision(small_profile(), count, master_secret=b"master",
                            shards=2, obs=obs, **kwargs)
    return fleet, obs


def test_process_mode_traces_the_loop_mode_span_tree():
    """A worker-process round traces round -> shard -> device spans."""
    fleet, obs = traced_fleet()
    try:
        fleet.run_until(60.0)
        reports = fleet.collect_all(batch_size=2)
    finally:
        fleet.close()
    rows = obs.tracer.export_rows()
    by_path = {row["path"]: row for row in rows}
    kinds = [row["kind"] for row in rows]
    assert kinds.count("round") == 2
    assert kinds.count("shard") == 4  # 3 devices per worker, batches of 2
    assert kinds.count("device_verify") == 6
    for row in rows:
        if row["kind"] == "round":
            assert row["parent_id"] is None
            assert row["attrs"]["reports"] == 3
            continue
        parent_path = row["path"].rpartition("/")[0]
        assert row["parent_id"] == by_path[parent_path]["span_id"]
        if row["kind"] == "shard":
            attrs = row["attrs"]
            assert attrs["received"] == attrs["devices"]
            assert attrs["lost"] == 0
        else:
            assert by_path[parent_path]["kind"] == "shard"
    statuses = {row["attrs"]["device_id"]: row["attrs"]["status"]
                for row in rows if row["kind"] == "device_verify"}
    assert statuses == {report.device_id: report.status.value
                        for report in reports}


def test_crashed_worker_shard_span_records_every_device_lost():
    fleet, obs = traced_fleet(allowed_missing=8)
    try:
        verifier = fleet.verifier
        shard0 = [device_id for device_id in verifier.enrolled_ids()
                  if verifier.shard_of(device_id) == 0]
        fleet.run_until(60.0)
        fleet.verifier.warm_up()
        pool = verifier.worker_pool
        pool.inject_crash(0)
        reports = {r.device_id: r for r in fleet.collect_all()}
        for device_id in shard0:
            assert reports[device_id].status is DeviceStatus.NO_DATA
            assert any("shard worker crashed" in anomaly
                       for anomaly in reports[device_id].anomalies)
        spans = {row["path"]: row for row in obs.tracer.export_rows()}
        crashed = spans["round:1/worker:0/shard:0"]["attrs"]
        assert crashed["devices"] == len(shard0)
        assert crashed["lost"] == len(shard0)
        assert crashed["received"] == 0
        survivor = spans["round:1/worker:1/shard:0"]["attrs"]
        assert survivor["lost"] == 0
        assert spans["round:1/worker:0"]["attrs"]["reports"] == len(shard0)

        # The slot rejoins next round: data-bearing reports, a clean span.
        fleet.run_until(120.0)
        rejoined = {r.device_id: r for r in fleet.collect_all()}
        assert all(rejoined[device_id].status is DeviceStatus.HEALTHY
                   for device_id in shard0)
        assert pool.restarts[0] == 1
        spans = {row["path"]: row for row in obs.tracer.export_rows()}
        assert spans["round:2/worker:0/shard:0"]["attrs"]["lost"] == 0
        # One device span per device and round, the crashed shard's
        # devices included (recorded NO_DATA).
        devices = [row for row in spans.values()
                   if row["kind"] == "device_verify"]
        assert len(devices) == 2 * len(verifier.enrolled_ids())
        for device_id in shard0:
            lost = spans[f"round:1/worker:0/shard:0/device:{device_id}"]
            assert lost["attrs"]["status"] == "no_data"
            back = spans[f"round:2/worker:0/shard:0/device:{device_id}"]
            assert back["attrs"]["status"] == "healthy"
    finally:
        fleet.close()


# ----------------------------------------------------------------------
# Pool mechanics
# ----------------------------------------------------------------------

def test_submit_before_spawn_raises():
    pool = WorkerPool(1, config=small_profile().config)
    try:
        with pytest.raises(WorkerCrashed):
            pool.submit_task(0, 0.0, [])
    finally:
        pool.close()


def test_worker_reports_python_errors_as_worker_error():
    pool = WorkerPool(1, config=small_profile().config)
    try:
        pool.ensure_worker(0)
        future = pool.sync_enrollments(0, [{"bogus": "row"}])
        with pytest.raises(WorkerError, match="worker 0 failed"):
            future.result(timeout=30)
        # The worker survives a failed frame: the next one still works.
        assert pool.sync_enrollments(0, []).result(timeout=30) is not None
    finally:
        pool.close()


def test_pool_close_is_idempotent_and_final():
    pool = WorkerPool(2, config=small_profile().config)
    pool.ensure_worker(0)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError):
        pool.ensure_worker(0)


def test_enrollment_epoch_tracks_material_changes_only():
    profile = small_profile()
    verifier = FleetVerifier(profile.config)
    device = profile.provision("e-0000", master_secret=b"master")
    epoch0 = verifier._enrollment_epoch
    verifier.enroll_device(device)
    epoch1 = verifier._enrollment_epoch
    assert epoch1 > epoch0
    # Re-enrolling identical material does not bump the epoch, so
    # worker mirrors are not re-shipped for nothing.
    verifier.enroll_device(device, re_enroll=True)
    assert verifier._enrollment_epoch == epoch1
    # New firmware (a new digest whitelist) is material: epoch bumps.
    changed = profile.provision("e-0000", master_secret=b"other")
    verifier.enroll_device(changed, re_enroll=True)
    assert verifier._enrollment_epoch > epoch1


def test_worker_pool_metrics_record_restarts_and_latency():
    from repro.obs import Observability

    obs = Observability()
    fleet = Fleet.provision(small_profile(), 6, master_secret=b"master",
                            shards=2, obs=obs)
    try:
        fleet.run_until(60.0)
        fleet.collect_all()
        assert obs.worker_task_seconds.labels("0").count >= 1
        assert obs.worker_task_seconds.labels("1").count >= 1
        assert obs.worker_queue_depth.value("0") == 0
        assert obs.worker_restarts_total.value("0") == 0
        pool = fleet.verifier.worker_pool
        pool.inject_crash(0)
        fleet.run_until(120.0)
        fleet.collect_all()
        fleet.run_until(180.0)
        fleet.collect_all()
        assert obs.worker_restarts_total.value("0") == 1
    finally:
        fleet.close()


def test_kill_crashes_an_idle_worker_immediately():
    """OP_EXIT over the pipe: no task needed, futures fail, slot respawns."""
    pool = WorkerPool(1, config=small_profile().config)
    try:
        generation = pool.ensure_worker(0)
        assert pool.sync_enrollments(0, []).result(timeout=30) is not None
        pool.kill(0)
        assert pool._handles[0].dead.wait(timeout=10)
        with pytest.raises(WorkerCrashed):
            pool.submit_task(0, 0.0, [])
        assert pool.ensure_worker(0) == generation + 1
        assert pool.restarts[0] == 1
        assert pool.sync_enrollments(0, []).result(timeout=30) is not None
    finally:
        pool.close()


def test_kill_without_spawn_is_a_no_op():
    pool = WorkerPool(1, config=small_profile().config)
    try:
        pool.kill(0)  # never spawned: nothing to do, nothing to raise
    finally:
        pool.close()


def test_drain_rejects_frames_with_unknown_opcodes():
    """A frame neither error nor result means the codecs disagree;
    handing its body to decode_result would produce garbage."""
    import multiprocessing
    import threading
    from concurrent.futures import Future

    from repro.fleet.workers import _FRAME, _WorkerHandle

    parent_end, worker_end = multiprocessing.Pipe(duplex=True)
    pool = WorkerPool(1, config=small_profile().config)
    handle = _WorkerHandle(process=None, conn=parent_end)
    future = Future()
    handle.pending[7] = future
    reader = threading.Thread(target=pool._drain, args=(0, handle),
                              daemon=True)
    reader.start()
    try:
        worker_end.send_bytes(_FRAME.pack(99, 7) + b"mystery")
        with pytest.raises(WorkerError, match="unexpected opcode 99"):
            future.result(timeout=10)
    finally:
        worker_end.close()
        reader.join(timeout=10)
        pool.close()
