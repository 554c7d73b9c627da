"""Benchmark: multi-process fleet scaling (devices/second vs workers).

Runs full fleet rounds through :mod:`repro.experiments.fleet_scaling`
and records the devices/second ladder — the pipelined single-process
baseline, then the sharded verifier (one worker process per shard) at
several worker counts — in the benchmark's ``extra_info``, so
successive scaling changes have a fixed yardstick (CI uploads the
JSON as the ``BENCH_fleet_scaling`` artifact).

Two invariants gate the ladder:

* every row's merged :class:`repro.fleet.FleetHealth` fingerprint must
  equal the baseline's — the scaling numbers are only comparable
  because process-mode rounds provably produce byte-identical answers;
* on a multi-core machine the best process-mode round must beat the
  single-process async baseline on the same 1,000-device fleet (the
  tentpole's acceptance bar).  On a single-core machine no parallel
  speedup exists by construction, so the bar becomes a bounded-overhead
  check: IPC, codec and commit-batch costs must not halve throughput.
"""

import os

from repro.experiments import fleet_scaling

FLEET_SIZE = 1000
WORKER_COUNTS = (1, 2, 4)


def test_process_workers_scale_past_single_process(benchmark):
    rows = benchmark.pedantic(
        fleet_scaling.run_scaling_comparison,
        kwargs=dict(device_count=FLEET_SIZE, worker_counts=WORKER_COUNTS,
                    repeats=2),
        rounds=1, iterations=1)
    baseline = rows[0]
    assert baseline["mode"] == "async-baseline"
    for row in rows:
        assert row["reports"] == FLEET_SIZE
        assert row["responses_lost"] == 0
        # Byte-identity across worker placements: run_scaling_comparison
        # already raised if a fingerprint diverged; pin it here too so
        # the benchmark's own contract is visible.
        assert row["health_sha256"] == baseline["health_sha256"]
        key = f"{row['mode']}_w{row['workers']}_collect_devices_per_second"
        benchmark.extra_info[key] = row["collect_devices_per_second"]
    benchmark.extra_info["cpu_count"] = os.cpu_count()

    baseline_rate = baseline["collect_devices_per_second"]
    process_best = max(row["collect_devices_per_second"] for row in rows
                       if row["mode"] == "sharded-process")
    assert baseline_rate > 0
    if (os.cpu_count() or 1) >= 2:
        # The tentpole's acceptance bar: with real cores available,
        # fanning verification out to worker processes must beat the
        # single-process pipeline on an identical fleet.
        assert process_best >= baseline_rate
    else:
        # Single core: parallel speedup is impossible, so bound the
        # overhead instead — shipping tasks and commit batches over the
        # pipe must cost less than half the round.
        assert process_best >= 0.5 * baseline_rate


def test_socket_transport_round(benchmark):
    row = benchmark.pedantic(
        fleet_scaling.run_round,
        args=("sharded-process", 200),
        kwargs=dict(workers=2, transport="socket"),
        rounds=1, iterations=1)
    assert row["reports"] == 200
    # Loopback datagrams do not drop under a 200-device round.
    assert row["responses_lost"] == 0
    benchmark.extra_info["socket_collect_devices_per_second"] = \
        row["collect_devices_per_second"]
