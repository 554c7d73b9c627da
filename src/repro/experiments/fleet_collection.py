"""Fleet-collection throughput: devices per second across transports.

Not a paper artifact — this harness characterizes the reproduction's
own fleet service (:mod:`repro.fleet`): how fast one batched
``collect_all`` round (provision → schedule → collect → verify) runs
for a given fleet size over each transport.  It backs the
``benchmarks/test_fleet_collection.py`` throughput benchmark and gives
scaling PRs a fixed yardstick.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.fleet import DeviceProfile, Fleet
from repro.store import JsonlStore, MemoryStore, SqliteStore, StateStore

DEFAULT_TRANSPORTS: Sequence[str] = ("in-process", "simulated-network",
                                     "swarm-relay")

#: Collection-path variants compared by :func:`run_concurrency_comparison`:
#: ``async`` is the single-verifier ``collect_all`` default, ``sharded``
#: the :class:`repro.fleet.ShardedFleetVerifier` (one worker process per
#: shard).
COLLECTION_MODES: Sequence[str] = ("async", "sharded")

#: Store backends compared by :func:`run_store_comparison`; ``baseline``
#: is a plain provision call (the :class:`MemoryStore` default path).
STORE_BACKENDS: Sequence[str] = ("baseline", "memory", "jsonl", "sqlite")

#: Observability modes compared by :func:`run_obs_comparison`:
#: ``baseline`` is a plain provision call, ``null`` threads the explicit
#: :data:`repro.obs.NULL_OBSERVABILITY` through the same seams (the two
#: time the identical code path — the row pins the claim that the
#: disabled instrumentation branches cost nothing), ``observed`` runs a
#: fully enabled :class:`repro.obs.Observability` with device tracing.
OBS_MODES: Sequence[str] = ("baseline", "null", "observed")


def default_profile() -> DeviceProfile:
    """The small SMART+ profile the throughput rows are measured with."""
    return DeviceProfile.smartplus(firmware=b"fleet-bench-firmware",
                                   application_size=512,
                                   measurement_interval=60.0,
                                   collection_interval=600.0,
                                   buffer_slots=16)


def run_round(transport: str, device_count: int,
              profile: Optional[DeviceProfile] = None,
              horizon: Optional[float] = None,
              store_factory: Optional[Callable[[], StateStore]] = None,
              mode: str = "async",
              shards: int = 4,
              obs: Optional[object] = None) -> Dict[str, object]:
    """One full fleet round over one transport; returns a result row.

    ``store_factory`` builds a fresh :class:`repro.store.StateStore`
    for this round, so the row includes the full write-through and
    checkpoint cost of that persistence backend.  ``mode`` picks the
    collection path (see :data:`COLLECTION_MODES`); ``shards`` only
    applies to the ``sharded`` mode.  ``obs`` is threaded through
    ``Fleet.provision(obs=...)`` so the row carries that observability
    mode's full instrumentation cost.
    """
    if mode not in COLLECTION_MODES:
        known = ", ".join(COLLECTION_MODES)
        raise ValueError(f"unknown collection mode {mode!r}; known: {known}")
    profile = profile if profile is not None else default_profile()
    if horizon is None:
        horizon = profile.config.collection_interval
    store = store_factory() if store_factory is not None else None
    fleet: Optional[Fleet] = None
    started = time.perf_counter()
    try:
        fleet = Fleet.provision(profile, device_count,
                                master_secret=b"fleet-bench-master-secret",
                                transport=transport, store=store,
                                shards=shards if mode == "sharded" else None,
                                obs=obs)
        provisioned = time.perf_counter()
        fleet.run_until(horizon)
        if mode == "sharded":
            # Start the worker processes and ship enrollments outside
            # the measured window: the row is a steady-state round.
            fleet.verifier.warm_up()
        # Provisioning and measuring allocate millions of objects; sweep
        # the resulting garbage *before* the collect window so a stray
        # gen-2 GC pause (~tens of ms, comparable to the whole round)
        # does not land inside whichever mode happens to trigger it.
        gc.collect()
        measured = time.perf_counter()
        reports = fleet.collect_all()
        finished = time.perf_counter()
        sim_round_trip = fleet.now - horizon
    finally:
        # Release store handles (journal stream / DB connection) even
        # when provisioning or the round itself fails mid-way.
        if fleet is not None:
            fleet.close()
        elif store is not None:
            store.close()

    healthy = sum(1 for report in reports if not report.detected_infection())
    stats = reports.stats
    wall_time = finished - started
    return {
        "transport": fleet.transport.name,
        "mode": mode,
        "shards": stats.shards,
        "devices": device_count,
        "reports": len(reports),
        "healthy": healthy,
        "requests_sent": stats.requests_sent,
        "responses_lost": stats.responses_lost,
        "stale_responses_rejected": stats.stale_responses_rejected,
        "provision_s": provisioned - started,
        "measure_s": measured - provisioned,
        "collect_s": stats.wall_seconds,
        "wall_time_s": wall_time,
        "devices_per_second": device_count / wall_time if wall_time else 0.0,
        "collect_devices_per_second": stats.devices_per_second,
        "sim_round_trip_s": sim_round_trip,
    }


def run_concurrency_comparison(device_count: int = 1000,
                               transport: str = "in-process",
                               shards: int = 4,
                               modes: Sequence[str] = COLLECTION_MODES,
                               repeats: int = 1
                               ) -> List[Dict[str, object]]:
    """Devices/second for one round per collection path, same fleet shape.

    Provisioning is deterministic (profile plus master secret), so each
    mode collects an identical fleet with identical measurement
    histories — the rows differ only in how the round is driven: one
    verifier's ``collect_all`` or the sharded verifier.  Each row is the best of ``repeats`` attempts
    (fresh fleet per attempt), the same best-of policy as
    :func:`run_store_comparison`: a collection round lasts ~100 ms, so
    a single stray gen-2 GC pause otherwise dominates the row.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    # Pay the one-time process-wide asyncio bootstrap (selector import,
    # first loop construction) outside the measured rows, so whichever
    # async mode happens to run first is not charged ~tens of ms of
    # interpreter warm-up the other rows skip.
    asyncio.run(asyncio.sleep(0))
    rows: List[Dict[str, object]] = []
    for mode in modes:
        best: Optional[Dict[str, object]] = None
        for _ in range(repeats):
            row = run_round(transport, device_count, mode=mode,
                            shards=shards)
            if best is None or row["collect_s"] < best["collect_s"]:
                best = row
        assert best is not None
        rows.append(best)
    return rows


def format_concurrency_table(rows: List[Dict[str, object]]) -> str:
    """Render the collection-path comparison as a fixed-width table."""
    baseline = next((row for row in rows if row["mode"] == "async"),
                    rows[0])
    baseline_rate = float(baseline["collect_devices_per_second"])
    header = (f"{'mode':<14} {'devices':>8} {'shards':>7} {'collect (s)':>12} "
              f"{'collect dev/s':>14} {'vs async':>12}")
    lines = [header, "-" * len(header)]
    for row in rows:
        relative = float(row["collect_devices_per_second"]) / baseline_rate \
            if baseline_rate else 0.0
        lines.append(
            f"{row['mode']:<14} {row['devices']:>8} {row['shards']:>7} "
            f"{row['collect_s']:>12.3f} "
            f"{row['collect_devices_per_second']:>14.0f} {relative:>11.1%}")
    return "\n".join(lines)


def _store_factory(backend: str, directory: Path, attempt: int
                   ) -> Optional[Callable[[], StateStore]]:
    """A fresh-store factory for one benchmark attempt (or ``None``)."""
    if backend == "baseline":
        return None
    if backend == "memory":
        return MemoryStore
    if backend == "jsonl":
        return lambda: JsonlStore(directory / f"jsonl-{attempt}")
    if backend == "sqlite":
        directory.mkdir(parents=True, exist_ok=True)
        return lambda: SqliteStore(directory / f"store-{attempt}.sqlite")
    raise ValueError(f"unknown store backend {backend!r}")


def run_store_comparison(device_count: int = 300,
                         directory: Optional[str] = None,
                         repeats: int = 1,
                         backends: Sequence[str] = STORE_BACKENDS
                         ) -> List[Dict[str, object]]:
    """Devices/second for one in-process round per store backend.

    Each backend row is the best of ``repeats`` attempts (fresh store
    per attempt, so no backend ever replays a previous attempt's
    state); ``baseline`` is the plain provision path the PR 2
    throughput benchmark measured, i.e. the :class:`MemoryStore`
    default.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="erasmus-store-bench-") \
                as tempdir:
            return _compare_backends(Path(tempdir), device_count,
                                     repeats, backends)
    Path(directory).mkdir(parents=True, exist_ok=True)
    # A unique per-call subdirectory: reusing an attempt path would
    # replay the previous call's enrollments and trip the
    # duplicate-enrollment guard.  Removed afterwards — the result is
    # the rows, not the state files.
    base = Path(tempfile.mkdtemp(prefix="run-", dir=directory))
    try:
        return _compare_backends(base, device_count, repeats, backends)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _compare_backends(base: Path, device_count: int, repeats: int,
                      backends: Sequence[str]) -> List[Dict[str, object]]:
    """Best-of-``repeats`` in-process round per store backend."""
    rows: List[Dict[str, object]] = []
    for backend in backends:
        best: Optional[Dict[str, object]] = None
        for attempt in range(repeats):
            factory = _store_factory(backend, base / backend, attempt)
            row = run_round("in-process", device_count,
                            store_factory=factory)
            if best is None or row["wall_time_s"] < best["wall_time_s"]:
                best = row
        assert best is not None
        best["store"] = backend
        rows.append(best)
    return rows


def format_store_table(rows: List[Dict[str, object]]) -> str:
    """Render the store-overhead rows as a fixed-width table."""
    baseline = next((row for row in rows if row["store"] == "baseline"),
                    rows[0])
    baseline_rate = float(baseline["devices_per_second"])
    header = (f"{'store':<10} {'devices':>8} {'wall (s)':>9} "
              f"{'dev/s':>8} {'vs baseline':>12}")
    lines = [header, "-" * len(header)]
    for row in rows:
        relative = float(row["devices_per_second"]) / baseline_rate \
            if baseline_rate else 0.0
        lines.append(
            f"{row['store']:<10} {row['devices']:>8} "
            f"{row['wall_time_s']:>9.2f} "
            f"{row['devices_per_second']:>8.0f} {relative:>11.1%}")
    return "\n".join(lines)


def _obs_for_mode(mode: str) -> Optional[object]:
    """A fresh observability object for one benchmark attempt."""
    if mode == "baseline":
        return None
    # Imported here, not at module top: the experiments package predates
    # repro.obs and must stay importable if the subsystem is trimmed.
    from repro.obs import NULL_OBSERVABILITY, Observability
    if mode == "null":
        return NULL_OBSERVABILITY
    if mode == "observed":
        return Observability(seed=0)
    raise ValueError(f"unknown observability mode {mode!r}")


def run_obs_comparison(device_count: int = 1000,
                       transport: str = "in-process",
                       repeats: int = 1,
                       modes: Sequence[str] = OBS_MODES
                       ) -> List[Dict[str, object]]:
    """Devices/second for one round per observability mode.

    Provisioning is deterministic, so the rows collect identical fleets
    and differ only in instrumentation: ``baseline`` and ``null`` time
    the identical code path (``obs=None`` resolves to the null object),
    while ``observed`` pays the real metric/trace/store-wrap cost of a
    fully enabled :class:`repro.obs.Observability`.  Repeats interleave
    the modes round-robin — each repeat times every mode once — so a
    machine slowing down mid-run weighs on all modes alike.  Each row is
    the best of its mode's ``repeats`` attempts (the same best-of policy
    as :func:`run_store_comparison`) and lists every attempt's
    devices/second, in repeat order, as ``repeat_devices_per_second``
    for per-repeat ratios between modes.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    asyncio.run(asyncio.sleep(0))  # one-time loop bootstrap, unmeasured
    attempts: Dict[str, List[Dict[str, object]]] = {mode: [] for mode in modes}
    for _ in range(repeats):
        for mode in modes:
            attempts[mode].append(run_round(transport, device_count,
                                            obs=_obs_for_mode(mode)))
    rows: List[Dict[str, object]] = []
    for mode in modes:
        best = min(attempts[mode], key=lambda row: row["wall_time_s"])
        best["obs"] = mode
        best["repeat_devices_per_second"] = [
            row["devices_per_second"] for row in attempts[mode]]
        rows.append(best)
    return rows


def format_obs_table(rows: List[Dict[str, object]]) -> str:
    """Render the observability-overhead rows as a fixed-width table."""
    baseline = next((row for row in rows if row["obs"] == "baseline"),
                    rows[0])
    baseline_rate = float(baseline["devices_per_second"])
    header = (f"{'obs':<10} {'devices':>8} {'wall (s)':>9} "
              f"{'dev/s':>8} {'vs baseline':>12}")
    lines = [header, "-" * len(header)]
    for row in rows:
        relative = float(row["devices_per_second"]) / baseline_rate \
            if baseline_rate else 0.0
        lines.append(
            f"{row['obs']:<10} {row['devices']:>8} "
            f"{row['wall_time_s']:>9.2f} "
            f"{row['devices_per_second']:>8.0f} {relative:>11.1%}")
    return "\n".join(lines)


def run(device_count: int = 1000,
        transports: Sequence[str] = DEFAULT_TRANSPORTS,
        profile: Optional[DeviceProfile] = None
        ) -> List[Dict[str, object]]:
    """One throughput row per transport for the given fleet size."""
    return [run_round(transport, device_count, profile=profile)
            for transport in transports]


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render the throughput rows as a fixed-width table."""
    header = (f"{'transport':<20} {'devices':>8} {'healthy':>8} "
              f"{'wall (s)':>9} {'dev/s':>8} {'collect dev/s':>14}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['transport']:<20} {row['devices']:>8} "
            f"{row['healthy']:>8} {row['wall_time_s']:>9.2f} "
            f"{row['devices_per_second']:>8.0f} "
            f"{row['collect_devices_per_second']:>14.0f}")
    return "\n".join(lines)


def main() -> None:
    """Print the fleet throughput, concurrency and store-overhead tables."""
    print(format_table(run()))
    print()
    print(format_concurrency_table(run_concurrency_comparison()))
    print()
    print(format_store_table(run_store_comparison()))
    print()
    print(format_obs_table(run_obs_comparison()))


if __name__ == "__main__":
    main()
