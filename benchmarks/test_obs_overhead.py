"""Benchmark: observability overhead (devices/second per obs mode).

Runs one in-process 1k-device fleet round per observability mode —
``baseline`` (plain provision), ``null`` (an explicit
:data:`repro.obs.NULL_OBSERVABILITY` threaded through the same seams),
``observed`` (a fully enabled :class:`repro.obs.Observability` with
metrics, span tracing, and store wrapping) — and records each mode's
devices/second in ``extra_info``.  CI exports the pytest-benchmark JSON
as ``BENCH_obs.json``, so instrumentation cost is tracked against the
fleet-collection yardstick as the obs subsystem evolves.

Each row is the best of three attempts with a fresh observability
object, so run-to-run jitter does not masquerade as instrumentation
cost; the attempts interleave the modes round-robin, and the
null-vs-baseline gate takes the median of the per-repeat ratios.
"""

import statistics

from repro.experiments import fleet_collection

FLEET_SIZE = 1000
REPEATS = 3


def test_obs_mode_overhead(benchmark):
    rows = benchmark.pedantic(
        fleet_collection.run_obs_comparison,
        args=(FLEET_SIZE,),
        kwargs={"repeats": REPEATS},
        rounds=1, iterations=1)
    by_mode = {row["obs"]: row for row in rows}
    assert set(by_mode) == set(fleet_collection.OBS_MODES)
    for mode, row in by_mode.items():
        assert row["reports"] == FLEET_SIZE
        assert row["healthy"] == FLEET_SIZE
        benchmark.extra_info[f"{mode}_devices_per_second"] = \
            row["devices_per_second"]

    # ``obs=None`` resolves to the null object, so the baseline and
    # null rows time the identical code path: the disabled
    # instrumentation branches (one ``obs.enabled`` test per shard and
    # per report) are structurally free.  The timed ratio therefore
    # only measures run-to-run jitter; it is recorded in extra_info
    # (expected within 5%) and hard-gated at 10% so shared-CI noise
    # cannot fail the workflow while a real hot-path regression —
    # say, instrumentation leaking out of its ``obs.enabled`` guard —
    # still would.  The modes run interleaved within each repeat, and
    # the gate takes the median of the per-repeat ratios, so one slow
    # stretch of a shared machine cannot land on a single mode.
    baseline = by_mode["baseline"]["devices_per_second"]
    null_vs_baseline = statistics.median(
        null / base for null, base in zip(
            by_mode["null"]["repeat_devices_per_second"],
            by_mode["baseline"]["repeat_devices_per_second"]))
    benchmark.extra_info["null_vs_baseline"] = null_vs_baseline
    assert null_vs_baseline >= 0.90, (
        f"null-obs rounds ran at a median {null_vs_baseline:.2f}x the "
        f"baseline's devices/second — disabled instrumentation is not "
        f"free")

    # Enabled observability pays real work per device (two clock reads,
    # a histogram observation, a trace row, timed store writes).  On
    # the benchmark's headline devices/second that stays within 5%
    # (expected ~0%: the round is dominated by provisioning and
    # measurement); the hard gate is 10%, mirroring the store bench.
    observed = by_mode["observed"]["devices_per_second"]
    benchmark.extra_info["observed_vs_baseline"] = observed / baseline
    assert observed >= 0.90 * baseline, (
        f"observed round ran at {observed:.0f} dev/s vs baseline "
        f"{baseline:.0f} dev/s")

    # The isolated collect phase concentrates the per-device cost;
    # record the ratio and keep it from ever becoming pathological.
    collect_ratio = (by_mode["observed"]["collect_s"]
                     / by_mode["baseline"]["collect_s"])
    benchmark.extra_info["observed_collect_vs_baseline"] = collect_ratio
    assert collect_ratio < 1.5, (
        f"enabled-obs collect phase is pathological: "
        f"{collect_ratio:.2f}x the baseline collect phase")
