"""The fleet attestation service: enrollment, batched collection, reports.

This is the canonical public API for running ERASMUS at fleet scale:

* :class:`FleetVerifier` — enrolls any number of provers and runs
  batched/sharded collection rounds over a :class:`~repro.fleet.transport.
  Transport`, streaming every :class:`VerificationReport` to the
  configured sinks and into a running :class:`FleetHealth` aggregate;
* :class:`Fleet` — the one-call facade: provision ``count`` devices
  from a :class:`DeviceProfile`, wire them to a transport and a shared
  simulation engine, and expose ``run_until`` / ``collect_all``.

Every response is judged by the device's
:class:`repro.core.verification.DeviceJudge`, the same verdict loop
the single-device :class:`repro.core.ErasmusVerifier` runs.
"""

from __future__ import annotations

import asyncio
import time as _time
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.core.config import ErasmusConfig
from repro.core.protocol import (
    OnDemandResponse,
    ProtocolDecodeError,
    decode_response,
)
from repro.core.verification import (
    BaseVerifier,
    DeviceStatus,
    DuplicateEnrollmentError,
    VerificationReport,
)
from repro.fleet.profiles import DeviceProfile, ProvisionedDevice
from repro.fleet.sinks import FleetHealth, ReportSink, RoundStats, SinkFanout
from repro.fleet.transport import (
    InProcessTransport,
    SimulatedNetworkTransport,
    SocketTransport,
    SwarmRelayTransport,
    Transport,
    as_async_transport,
)
from repro.fleet.workers import WorkerCrashed, WorkerPool, decode_result
from repro.sim.engine import SimulationEngine
from repro.statics.runtime import named_lock
from repro.store import MemoryStore, StateStore

if TYPE_CHECKING:  # pragma: no cover — import cycle broken at runtime
    from repro.obs.service import Observability


def _default_obs() -> "Observability":
    """The shared inert observability object.

    Imported lazily: ``repro.obs`` itself imports ``repro.fleet.sinks``
    (SLO rules stream over the report fanout), so a module-level import
    here would close an import cycle.  By the time any verifier is
    *constructed* both packages are fully initialized.
    """
    from repro.obs.service import NULL_OBSERVABILITY
    return NULL_OBSERVABILITY


#: Default number of devices verified per shard of a collection round.
DEFAULT_BATCH_SIZE = 256

#: Default number of shards a pipelined round keeps in flight at once.
DEFAULT_MAX_INFLIGHT_SHARDS = 4

#: What a pipeline verify step hands back for one settled shard: the
#: responses its received/lost count goes by, and the step that commits
#: the shard's reports (run in shard order by the round loop).
_ShardOutcome = Tuple[Mapping[str, Optional[bytes]],
                      Callable[[], List[VerificationReport]]]


class RoundReports(List[VerificationReport]):
    """One round's reports, with the round's :class:`RoundStats` attached.

    A plain list everywhere a list was expected historically; the
    collection mechanics ride along on :attr:`stats`.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stats = RoundStats()


def _ensure_no_running_loop(hint: str) -> None:
    """Refuse to run a blocking round body inside an event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return
    raise RuntimeError(
        f"collect_all would block the running event loop; {hint}")


def _close_released(sinks: Iterable[ReportSink],
                    store: Optional[StateStore]) -> None:
    """Close every sink, then the store; first failure raised at the end.

    One sink failing to close never prevents the remaining sinks or
    the store from being released.  Already-closed sinks close
    themselves idempotently, so calling this after a failed round (or
    twice) is harmless.  Sink release delegates to
    :meth:`SinkFanout.close` so the close-all/keep-first-error policy
    lives in exactly one place.
    """
    first_error: Optional[BaseException] = None
    try:
        SinkFanout(sinks).close()
    except Exception as exc:
        first_error = exc
    if store is not None:
        try:
            store.close()
        except Exception as exc:
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error


class FleetVerifier(BaseVerifier):
    """A verifier service managing an enrolled fleet of provers.

    Parameters mirror the legacy :class:`repro.core.ErasmusVerifier`
    (same ``schedule_tolerance`` / ``allowed_missing`` policy knobs);
    ``sinks`` is any iterable of :class:`ReportSink` that each finished
    report is streamed to, in enrollment-independent arrival order.

    ``store`` selects the :class:`repro.store.StateStore` backend the
    verifier's state is committed through — every enrollment change is
    written through immediately, every finished report is journaled,
    and the aggregate :class:`FleetHealth` is checkpointed at the end
    of each collection round.  The default :class:`repro.store.
    MemoryStore` keeps the historical in-process behaviour; pass a
    :class:`repro.store.JsonlStore` or :class:`repro.store.SqliteStore`
    to make the deployment restartable via :meth:`restore`.

    ``obs`` attaches a :class:`repro.obs.Observability` to the
    collection hot path: per-device verify latency histograms, round
    counters and span traces.  The default (``None`` →
    :data:`repro.obs.NULL_OBSERVABILITY`) keeps every instrumented
    path at historical cost behind a single ``enabled`` test.

    Collection rounds run through one windowed loop,
    :meth:`collect_all_async`: shards of devices exchange concurrently
    over the transport, each settled shard runs a *verify step*, and
    the loop commits the shards' reports in shard order.  There are two
    verify steps, chosen per verifier:

    * inline (the default) — the shard is judged in this process, and
      every report is committed through :meth:`_commit`;
    * worker process — once a :class:`ShardedFleetVerifier` binds this
      verifier to a pool slot, the shard ships to that worker process,
      and its report rows come back through :meth:`apply_worker_batch`;
      a crashed worker turns the shard into ``NO_DATA`` reports counted
      as lost.

    Both steps run :meth:`_verify_payload`.  :meth:`collect_all` is
    the synchronous shim over the loop.
    """

    def __init__(self, config: ErasmusConfig,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0,
                 sinks: Iterable[ReportSink] = (),
                 store: Optional[StateStore] = None,
                 obs: Optional["Observability"] = None) -> None:
        super().__init__(config, schedule_tolerance=schedule_tolerance,
                         allowed_missing=allowed_missing,
                         store=store if store is not None else MemoryStore())
        self.sinks: List[ReportSink] = list(sinks)
        self.health = FleetHealth()
        self.rounds_completed = 0
        self.obs = obs if obs is not None else _default_obs()
        #: Label for this verifier's per-shard metrics and span paths;
        #: a ShardedFleetVerifier renames its workers "0".."N-1".
        self.obs_shard = "0"
        # A sharded verifier's workers flip this off: their rounds are
        # fractions of one fleet round, which the sharded collect_all
        # records once, merged, instead.
        self._obs_record_rounds = True
        # (pool, slot) once a ShardedFleetVerifier binds this verifier
        # to a worker process; selects the verify step.
        self._worker_slot: Optional[Tuple[WorkerPool, int]] = None
        self._closed = False

    @classmethod
    def restore(cls, config: ErasmusConfig, store: StateStore,
                schedule_tolerance: float = 0.25,
                allowed_missing: int = 0,
                sinks: Iterable[ReportSink] = ()) -> "FleetVerifier":
        """Resume a deployment from a store's snapshot and journal.

        Replays the store's last checkpoint plus any journaled reports
        beyond it, so the returned verifier carries the pre-crash
        enrollments (keys, digests *and* last-seen timestamps), the
        aggregate :class:`FleetHealth` and per-device collection times.
        The store stays attached: new state keeps being committed
        through it.
        """
        state = store.restore_state()
        verifier = cls(config, schedule_tolerance=schedule_tolerance,
                       allowed_missing=allowed_missing, sinks=sinks,
                       store=store)
        # Installed directly — these records came *from* the store, so
        # writing them back through it would be a redundant journal round.
        verifier._enrollments = dict(state.enrollments)
        verifier._last_collection_time = dict(state.last_collection_times)
        verifier.health = state.health
        verifier.rounds_completed = state.rounds_completed
        return verifier

    # ------------------------------------------------------------------
    # Enrollment (shared store in BaseVerifier, fleet conveniences here)
    # ------------------------------------------------------------------
    def enroll_device(self, device: ProvisionedDevice, *,
                      re_enroll: bool = False) -> None:
        """Register a provisioned device (key and healthy digest bundled).

        Enrolling an already-enrolled device raises
        :class:`DuplicateEnrollmentError` — overwriting would silently
        reset the device's last-seen timestamp and digest whitelist.
        The check consults the attached store as well as this process's
        enrollments, so re-provisioning over an existing durable state
        directory (instead of :meth:`restore`-ing from it) fails loudly
        rather than erasing the rollback-detecting state.  Pass
        ``re_enroll=True`` to replace the enrollment deliberately
        (e.g. after re-provisioning the physical unit).
        """
        already = self.is_enrolled(device.device_id) or \
            (self.store is not None and
             self.store.has_enrollment(device.device_id))
        if already and not re_enroll:
            raise DuplicateEnrollmentError(
                f"device {device.device_id!r} is already enrolled (in this "
                f"verifier or its attached store); use FleetVerifier."
                f"restore to resume a deployment, or pass re_enroll=True "
                f"to deliberately replace the key, digest whitelist and "
                f"last-seen state")
        if already:
            # The replaced unit's collection history is void along with
            # its last-seen state.
            self._last_collection_time.pop(device.device_id, None)
        self.enroll(device.device_id, device.key, [device.healthy_digest])

    def enrolled_ids(self) -> List[str]:
        """All enrolled device ids, in enrollment order."""
        return list(self._enrollments)

    @property
    def device_count(self) -> int:
        """Number of enrolled devices."""
        return len(self._enrollments)

    def add_sink(self, sink: ReportSink) -> None:
        """Attach one more report sink."""
        self.sinks.append(sink)

    # ------------------------------------------------------------------
    # Single-response verification (verify_collection inherited)
    # ------------------------------------------------------------------
    def _verify_payload(self, device_id: str, payload: Optional[bytes],
                        collection_time: float) -> VerificationReport:
        """Judge one raw transport response (``None`` = never answered).

        The one per-device verify step: the inline shard step and the
        worker processes (:mod:`repro.fleet.workers`) both call it.  The
        response is decoded into record columns and judged as such.
        """
        enrollment = self._enrollment_for(device_id)
        if payload is None:
            return VerificationReport(
                device_id=device_id, collection_time=collection_time,
                status=DeviceStatus.NO_DATA,
                anomalies=["no response received"])
        try:
            response = decode_response(payload)
        except ProtocolDecodeError as exc:
            return VerificationReport(
                device_id=device_id, collection_time=collection_time,
                status=DeviceStatus.TAMPERED,
                anomalies=[f"response could not be decoded: {exc}"])
        if isinstance(response, OnDemandResponse):
            return VerificationReport(
                device_id=device_id, collection_time=collection_time,
                status=DeviceStatus.TAMPERED,
                anomalies=["unexpected on-demand response to a plain "
                           "collection"])
        return self._judge_for(enrollment).verify_measurements(
            enrollment, response.columns, collection_time)

    def _commit(self, report: VerificationReport, *,
                fold: bool = True) -> VerificationReport:
        """Journal the report, advance bookkeeping and stream it to sinks.

        The report is journaled *before* the enrollment advance so the
        store's write-ahead invariant holds: a crash between the two
        writes replays the report (which re-derives the advance) rather
        than leaving an advanced ``last_seen`` with no report behind it.
        ``fold=False`` leaves the report out of :attr:`health`, for a
        caller that folds a whole batch's aggregate part at once
        (:meth:`apply_worker_batch`).
        """
        if self.store is not None:
            self.store.append_report(report)
        self._advance_bookkeeping(report)
        if fold:
            self.health.record(report)
        if self.obs.enabled:
            self.obs.report_committed(report)
        for sink in self.sinks:
            sink.emit(report)
        return report

    def apply_worker_batch(self, report_rows: Iterable[Mapping[str, object]],
                           health_row: Mapping[str, object]
                           ) -> List[VerificationReport]:
        """Commit one process-worker task's results, in row order.

        Each shipped report row goes through :meth:`_commit` exactly as
        a locally-verified report would (journal, bookkeeping, sinks);
        only the health fold differs: the task's :class:`FleetHealth`
        part folds in once through :meth:`FleetHealth.merge` — the
        exact-Fraction accumulator, so the merged aggregate is
        byte-identical to recording every report here.
        """
        reports = [self._commit(VerificationReport.from_row(row), fold=False)
                   for row in report_rows]
        self.health.merge(FleetHealth.from_row(health_row))
        return reports

    def checkpoint(self) -> None:
        """Fold the verifier's full state into a durable store snapshot.

        Called automatically at the end of every :meth:`collect_all`
        round; call it manually after out-of-band state changes (bulk
        enrollment, digest rollouts) worth persisting immediately.
        Checkpointing the same state twice produces byte-identical
        snapshots, so it is safe to call at any time.
        """
        if self.store is not None:
            self.store.checkpoint(self.health, self._last_collection_time,
                                  rounds_completed=self.rounds_completed)

    def close(self) -> None:
        """Close every attached sink and the store (idempotent).

        Exception-safe: one sink failing never prevents the remaining
        sinks or the store from being released; the first failure is
        re-raised once everything has been attempted, and re-entry is
        a no-op either way.
        """
        if self._closed:
            return
        self._closed = True
        _close_released(self.sinks, self.store)

    # ------------------------------------------------------------------
    # Batched collection rounds
    # ------------------------------------------------------------------
    def _round_prologue(self, transport, collection_time, device_ids,
                        batch_size, k):
        """Validate a round's arguments; resolve its devices and request."""
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        engine = getattr(transport, "engine", None)
        if collection_time is None and engine is None:
            raise ValueError(
                "collection_time is required for transports without an "
                "engine clock")
        ids = list(device_ids) if device_ids is not None \
            else self.enrolled_ids()
        for device_id in ids:
            self._enrollment_for(device_id)
        request_bytes = self.create_collect_request(k).encode()
        return engine, ids, request_bytes

    def _finish_round(self, reports: RoundReports, stats: RoundStats,
                      transport, stale_before: int, started: float,
                      checkpoint: bool) -> RoundReports:
        """Stamp the round's stats and fold state into a checkpoint."""
        ended = _time.perf_counter()
        stats.wall_start = started
        stats.wall_end = ended
        stats.wall_seconds = ended - started
        stats.stale_responses_rejected = \
            getattr(transport, "stale_responses_rejected", 0) - stale_before
        reports.stats = stats
        self.rounds_completed += 1
        self.health.record_round(stats)
        if self.obs.enabled and self._obs_record_rounds:
            self.obs.round_finished(stats)
        if checkpoint:
            self.checkpoint()
        return reports

    def collect_all(self, transport: Transport,
                    collection_time: Optional[float] = None,
                    k: Optional[int] = None,
                    device_ids: Optional[Iterable[str]] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    checkpoint: bool = True,
                    max_inflight_shards: int = DEFAULT_MAX_INFLIGHT_SHARDS
                    ) -> RoundReports:
        """Run one collection round over (a subset of) the fleet.

        A thin synchronous shim: it drives the awaitable
        :meth:`collect_all_async` round to completion on a private
        event loop, so wire exchange, verification and sink fan-out
        overlap per shard.  Reports come back as a plain list (with the
        round's :class:`~repro.fleet.sinks.RoundStats` on ``.stats``),
        committed in deterministic device order.

        With ``collection_time=None`` (the default) each shard is
        verified at the transport engine's clock *after* its exchange,
        so measurements taken while packets were in flight are never
        misjudged as "from the future".  Pass an explicit time only for
        engineless transports or deliberately retrospective audits.

        Sinks are guarded by a :class:`~repro.fleet.sinks.SinkFanout`:
        a clean round flushes them, a transport failure mid-round
        flushes *and closes* them so already-verified reports reach
        disk before the exception propagates.  Unless ``checkpoint=
        False``, a finished round also folds the verifier state into a
        store snapshot (see :meth:`checkpoint`).
        """
        _ensure_no_running_loop("await collect_all_async(...) instead")
        return asyncio.run(self.collect_all_async(
            transport, collection_time, k=k, device_ids=device_ids,
            batch_size=batch_size, checkpoint=checkpoint,
            max_inflight_shards=max_inflight_shards))

    @staticmethod
    def _count_batch(stats: RoundStats, batch: List[str],
                     responses: Mapping[str, Optional[bytes]]) -> None:
        """Fold one exchanged batch into the round's counters."""
        stats.requests_sent += len(batch)
        received = sum(1 for device_id in batch
                       if responses.get(device_id) is not None)
        stats.responses_received += received
        stats.responses_lost += len(batch) - received

    async def collect_all_async(self, transport,
                                collection_time: Optional[float] = None,
                                k: Optional[int] = None,
                                device_ids: Optional[Iterable[str]] = None,
                                batch_size: int = DEFAULT_BATCH_SIZE,
                                checkpoint: bool = True,
                                max_inflight_shards: int =
                                DEFAULT_MAX_INFLIGHT_SHARDS) -> RoundReports:
        """One collection round as an asyncio pipeline.

        The round is cut into shards of ``batch_size`` devices; up to
        ``max_inflight_shards`` shards are in flight at once, each
        exchanging over the awaitable transport seam
        (:func:`~repro.fleet.transport.as_async_transport`) and running
        its verify step as soon as *its* exchange settles, while later
        shards' packets are still on the wire.  Commits (store journal,
        health aggregate, sink fan-out) happen in shard order, so the
        report list is deterministic, in device order.  The verify step
        is inline by default, or a worker process once a sharded
        verifier bound this verifier to a pool slot (see the class
        docstring).

        On an engine-clock transport the overlap is visible in the
        stamps: a shard's ``collection_time`` is the engine clock at
        *its* settlement, so it depends on ``batch_size`` and
        ``max_inflight_shards``.  On engineless or in-process
        transports the reports do not depend on either.

        ``transport`` may be a synchronous :class:`Transport` (adapted
        automatically), anything whose ``exchange_many`` is a coroutine
        function, or anything exposing a native ``exchange_many_async``
        such as the simulated network — whose rounds then genuinely
        overlap in virtual time.
        """
        if max_inflight_shards <= 0:
            raise ValueError("max_inflight_shards must be positive")
        atransport = as_async_transport(transport)
        engine, ids, request_bytes = self._round_prologue(
            atransport, collection_time, device_ids, batch_size, k)
        shards = [ids[start:start + batch_size]
                  for start in range(0, len(ids), batch_size)]
        stale_before = getattr(atransport, "stale_responses_rejected", 0)
        started = _time.perf_counter()
        reports = RoundReports()
        stats = RoundStats(shards=len(shards))
        verify_shard = self._verify_shard_inline \
            if self._worker_slot is None else self._verify_shard_in_worker

        obs = self.obs
        obs_enabled = obs.enabled
        round_span = None

        async def _collect_shard(shard: List[str], shard_index: int):
            shard_cm = obs.trace_shard(round_span, shard_index,
                                       devices=len(shard)) \
                if obs_enabled else nullcontext()
            with shard_cm as shard_span:
                responses = await atransport.exchange_many(
                    {device_id: request_bytes for device_id in shard})
                shard_time = collection_time \
                    if collection_time is not None else engine.now
                responses, commit = await verify_shard(
                    shard, responses, shard_time, shard_span)
                if shard_span is not None:
                    received = sum(1 for device_id in shard
                                   if responses.get(device_id) is not None)
                    shard_span.attrs["received"] = received
                    shard_span.attrs["lost"] = len(shard) - received
            return responses, commit

        in_flight: List[asyncio.Task] = []
        next_shard = 0

        def _keep_window_full() -> None:
            nonlocal next_shard
            while next_shard < len(shards) and \
                    len(in_flight) < max_inflight_shards:
                in_flight.append(asyncio.ensure_future(
                    _collect_shard(shards[next_shard], next_shard)))
                next_shard += 1

        if obs_enabled:
            obs.rounds_inflight.inc()
        round_cm = obs.trace_round(self.rounds_completed + 1,
                                   worker=self.obs_shard,
                                   devices=len(ids),
                                   shards=len(shards)) \
            if obs_enabled else nullcontext()
        current: Optional[asyncio.Task] = None
        try:
            with round_cm as round_span:
                with SinkFanout(self.sinks):
                    _keep_window_full()
                    for shard in shards:
                        current = in_flight.pop(0)
                        responses, commit = await current
                        current = None
                        _keep_window_full()
                        self._count_batch(stats, shard, responses)
                        reports.extend(commit())
                if round_span is not None:
                    round_span.attrs["reports"] = len(reports)
        except BaseException:
            # Include the task being awaited when the failure struck —
            # e.g. an external cancellation (asyncio.wait_for timeout)
            # lands mid-await, and the popped task would otherwise keep
            # driving the shared transport/engine as an orphan.
            leftovers = ([current] if current is not None else []) + in_flight
            for task in leftovers:
                task.cancel()
            for task in leftovers:
                try:
                    await task
                except BaseException:
                    pass  # the primary failure is what propagates
            self.sinks = [sink for sink in self.sinks if not sink.closed]
            raise
        finally:
            if obs_enabled:
                obs.rounds_inflight.dec()
        return self._finish_round(reports, stats, atransport, stale_before,
                                  started, checkpoint)

    async def _verify_shard_inline(self, shard: List[str],
                                   responses: Mapping[str, Optional[bytes]],
                                   shard_time: float, shard_span
                                   ) -> _ShardOutcome:
        """Verify step judging a settled shard here, between awaits.

        Runs :meth:`_verify_payload` per device; returns the responses
        (for the received/lost count) and the step that commits the
        reports through :meth:`_commit`.
        """
        verify = self._verify_payload
        obs = self.obs
        if obs.enabled:
            # Wall time goes only to the histogram — spans carry
            # virtual time, keeping traces byte-reproducible.
            observe = obs.verify_observer(self.obs_shard).observe
            perf = _time.perf_counter
            shard_reports = []
            for device_id in shard:
                verify_started = perf()
                report = verify(device_id, responses.get(device_id),
                                shard_time)
                observe(perf() - verify_started)
                obs.record_device_verify(shard_span, device_id,
                                         report.status.value)
                shard_reports.append(report)
        else:
            shard_reports = [verify(device_id, responses.get(device_id),
                                    shard_time)
                             for device_id in shard]
        return responses, lambda: [self._commit(report)
                                   for report in shard_reports]

    async def _verify_shard_in_worker(self, shard: List[str],
                                      responses: Mapping[str,
                                                         Optional[bytes]],
                                      shard_time: float, shard_span
                                      ) -> _ShardOutcome:
        """Verify step shipping a settled shard to this verifier's worker.

        The payloads and current ``last_seen`` snapshots travel to the
        bound pool slot as one binary task; the worker returns report
        rows and one :class:`FleetHealth` part, which the commit step
        applies through :meth:`apply_worker_batch`.  Verify latency
        feeds the shard histogram from worker-measured timings, and
        each returned row records its device span here.

        If the worker crashes holding the task, the responses are
        unverifiable: the shard's devices are committed ``NO_DATA`` and
        counted lost — never guessed healthy.  The slot is *not*
        respawned mid-round; the next round's ``ensure_worker`` brings
        it back.
        """
        pool, slot = self._worker_slot
        obs = self.obs
        entries = [(device_id, responses.get(device_id),
                    self._enrollments[device_id].last_seen)
                   for device_id in shard]
        try:
            body = await asyncio.wrap_future(pool.submit_task(
                slot, shard_time, entries, want_timings=obs.enabled))
        except WorkerCrashed:
            lost = [VerificationReport(
                device_id=device_id, collection_time=shard_time,
                status=DeviceStatus.NO_DATA,
                anomalies=["shard worker crashed; response discarded"])
                for device_id in shard]
            for report in lost:
                obs.record_device_verify(shard_span, report.device_id,
                                         report.status.value)
            return {}, lambda: [self._commit(report) for report in lost]
        rows, health_row, timings = decode_result(body)
        if obs.enabled:
            observe = obs.verify_observer(self.obs_shard).observe
            for timing in timings:
                observe(timing)
            for row in rows:
                obs.record_device_verify(shard_span, row["device_id"],
                                         row["status"])
        return responses, lambda: self.apply_worker_batch(rows, health_row)


# ----------------------------------------------------------------------
# Sharded verification
# ----------------------------------------------------------------------

class _LockedStore(StateStore):
    """Serialize concurrent access to one shared :class:`StateStore`.

    Every shard worker writes enrollment advances and report journal
    entries through this one wrapper, and the backends (JSONL stream,
    SQLite connection) are single-writer, so every call — from the
    round's event loop or any other thread — takes one re-entrant
    lock.  Contention is negligible — writes are tiny compared to
    verification work — and the payoff is that a sharded verifier's
    durable state is the *same single store* a plain verifier would
    produce.
    """

    def __init__(self, inner: StateStore) -> None:
        self.inner = inner
        self._lock = named_lock("fleet.store", kind="rlock")

    def save_enrollment(self, enrollment) -> None:
        with self._lock:
            self.inner.save_enrollment(enrollment)

    def append_report(self, report) -> None:
        with self._lock:
            self.inner.append_report(report)

    def checkpoint(self, health, last_collection_times,
                   rounds_completed: int = 0) -> None:
        with self._lock:
            self.inner.checkpoint(health, last_collection_times,
                                  rounds_completed=rounds_completed)

    def has_enrollment(self, device_id: str) -> bool:
        with self._lock:
            return self.inner.has_enrollment(device_id)

    def restore_state(self):
        with self._lock:
            return self.inner.restore_state()

    def device_history(self, device_id: str, limit: Optional[int] = None):
        with self._lock:
            return self.inner.device_history(device_id, limit=limit)

    def state_rows(self):
        with self._lock:
            return self.inner.state_rows()

    def flush(self) -> None:
        with self._lock:
            self.inner.flush()

    def close(self) -> None:
        with self._lock:
            self.inner.close()


class ShardedFleetVerifier:
    """N shard workers draining one fleet in N processes, one merged view.

    The fleet's devices are assigned round-robin to ``shards`` inner
    :class:`FleetVerifier` workers.  A collection round runs every
    worker's :meth:`FleetVerifier.collect_all_async` pipeline over its
    own shard, all overlapping on one event loop through the awaitable
    transport seam, and each settled batch is verified in that
    worker's own process (see :mod:`repro.fleet.workers`), outside
    this process's GIL.

    This process keeps all authoritative state.  Workers share one
    :class:`~repro.store.StateStore` (behind a lock), so enrollments and
    the report journal land in a single durable state, and the
    :class:`FleetHealth` parts the worker processes ship home merge —
    exactly, see :meth:`FleetHealth.merged` — into the fleet-wide
    :attr:`health`.  Reports are re-ordered into enrollment order
    before hitting the sinks, so on a clean round the sink output is
    deterministic and byte-identical to a single verifier's.  The
    ordering requirement means sinks are fed *after* the workers have
    committed: if a sink fails mid-emit, this round's reports are
    already journaled and folded into health (durability first) and
    only the sink stream is short — whereas a single verifier, which
    interleaves commit and emit per report, stops both at the failure
    point.

    Worker processes start on :meth:`warm_up` or the first round,
    re-sync enrollments only when keys or whitelists change, and a
    crashed worker's outstanding batches finish as lost devices before
    it rejoins the next round.
    """

    def __init__(self, config: ErasmusConfig, shards: int = 4,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0,
                 sinks: Iterable[ReportSink] = (),
                 store: Optional[StateStore] = None,
                 obs: Optional["Observability"] = None) -> None:
        if shards < 1:
            raise ValueError("a sharded verifier needs at least one shard")
        self.config = config
        self.shards = shards
        self.schedule_tolerance = schedule_tolerance
        self.allowed_missing = allowed_missing
        self.sinks: List[ReportSink] = list(sinks)
        self.store = store
        self.obs = obs if obs is not None else _default_obs()
        # The lock wraps *around* an ObservedStore (when Fleet.provision
        # wrapped one in), so recorded store latency stays the
        # backend's own rather than lock-wait time.
        shared = _LockedStore(store) if store is not None else None
        self._shared_store = shared
        #: One verification process per shard, started on first use.
        self.worker_pool = WorkerPool(
            shards, config=config, schedule_tolerance=schedule_tolerance,
            allowed_missing=allowed_missing, obs=self.obs)
        self.workers: List[FleetVerifier] = [
            FleetVerifier(config, schedule_tolerance=schedule_tolerance,
                          allowed_missing=allowed_missing, sinks=(),
                          store=shared, obs=self.obs)
            for _ in range(shards)]
        for index, worker in enumerate(self.workers):
            # Distinct span/metric shard labels per worker; the fleet
            # round is recorded once, merged, by collect_all below.
            worker.obs_shard = str(index)
            worker._obs_record_rounds = False
            worker._worker_slot = (self.worker_pool, index)
        self._order: List[str] = []
        self._shard_of: Dict[str, int] = {}
        self.rounds_completed = 0
        self._round_stats: List[RoundStats] = []
        # (generation, enrollment epoch) per slot, so enrollment mirrors
        # re-ship only when material changed or the slot respawned.
        self._worker_sync: List[Optional[tuple]] = [None] * shards
        self._closed = False

    def warm_up(self) -> None:
        """Start the worker processes and ship enrollments ahead of a round.

        Takes this one-time cold start out of the first ``collect_all``
        (benchmarks measure steady-state rounds this way).
        """
        asyncio.run(self._sync_worker_processes())

    async def _sync_worker_processes(self) -> None:
        """Spawn/respawn slots and re-ship changed enrollment mirrors."""
        pool = self.worker_pool
        waits = []
        indices = []
        for index, worker in enumerate(self.workers):
            generation = pool.ensure_worker(index)
            key = (generation, worker._enrollment_epoch)
            if self._worker_sync[index] != key:
                rows = [worker._enrollments[device_id].to_row()
                        for device_id in worker.enrolled_ids()]
                waits.append(asyncio.wrap_future(
                    pool.sync_enrollments(index, rows)))
                indices.append(index)
                self._worker_sync[index] = key
        if not waits:
            return
        results = await asyncio.gather(*waits, return_exceptions=True)
        for index, result in zip(indices, results):
            if isinstance(result, BaseException):
                # The slot died before acking; forget the sync so the
                # next round re-ships after the respawn.  This round's
                # tasks to it fail fast as WorkerCrashed (lost devices).
                self._worker_sync[index] = None

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll_device(self, device: ProvisionedDevice, *,
                      re_enroll: bool = False) -> None:
        """Enroll one device on its (stable, round-robin) shard worker."""
        existing = self._shard_of.get(device.device_id)
        shard = existing if existing is not None \
            else len(self._order) % self.shards
        self.workers[shard].enroll_device(device, re_enroll=re_enroll)
        if existing is None:
            self._shard_of[device.device_id] = shard
            self._order.append(device.device_id)

    def enrolled_ids(self) -> List[str]:
        """All enrolled device ids, in fleet-wide enrollment order."""
        return list(self._order)

    @property
    def device_count(self) -> int:
        """Number of enrolled devices across all shards."""
        return len(self._order)

    def is_enrolled(self, device_id: str) -> bool:
        """True when the device is enrolled on any shard."""
        return device_id in self._shard_of

    def shard_of(self, device_id: str) -> int:
        """Index of the shard worker owning one device."""
        try:
            return self._shard_of[device_id]
        except KeyError as exc:
            raise KeyError(f"device {device_id!r} is not enrolled") from exc

    def worker_for(self, device_id: str) -> FleetVerifier:
        """The shard worker owning one device."""
        return self.workers[self.shard_of(device_id)]

    def last_collection_time(self, device_id: str) -> Optional[float]:
        """Time of the device's most recent data-bearing collection."""
        if device_id not in self._shard_of:
            return None
        return self.worker_for(device_id).last_collection_time(device_id)

    def add_sink(self, sink: ReportSink) -> None:
        """Attach one more fleet-level report sink."""
        self.sinks.append(sink)

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------
    @property
    def health(self) -> FleetHealth:
        """Fleet-wide aggregate merged from the per-shard aggregates."""
        merged = FleetHealth.merged(worker.health for worker in self.workers)
        merged.round_stats = list(self._round_stats)
        return merged

    def checkpoint(self) -> None:
        """Snapshot the merged state into the shared store.

        Goes through the :class:`_LockedStore` wrapper, never the raw
        backend, like every other write to the shared store: the
        JSONL/SQLite backends are single-writer.
        """
        if self._shared_store is None:
            return
        times: Dict[str, float] = {}
        for worker in self.workers:
            times.update(worker._last_collection_time)
        self._shared_store.checkpoint(
            self.health, times, rounds_completed=self.rounds_completed)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect_all(self, transport,
                    collection_time: Optional[float] = None,
                    k: Optional[int] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    checkpoint: bool = True,
                    max_inflight_shards: int = DEFAULT_MAX_INFLIGHT_SHARDS
                    ) -> RoundReports:
        """One fleet-wide round: all shard workers drain concurrently.

        The worker processes are first spawned (or respawned) and
        re-synced where enrollments changed; then every shard worker's
        :meth:`FleetVerifier.collect_all_async` pipeline runs, all
        gathered on one event loop.
        """
        _ensure_no_running_loop(
            "drive sharded rounds from synchronous code — the round "
            "runs its own event loop")
        if collection_time is None and \
                getattr(transport, "engine", None) is None:
            raise ValueError(
                "collection_time is required for transports without an "
                "engine clock")
        shard_ids: List[List[str]] = [[] for _ in range(self.shards)]
        for device_id in self._order:
            shard_ids[self._shard_of[device_id]].append(device_id)

        stale_before = getattr(transport, "stale_responses_rejected", 0)
        started = _time.perf_counter()

        async def _gather() -> List[RoundReports]:
            await self._sync_worker_processes()
            return list(await asyncio.gather(*[
                worker.collect_all_async(
                    transport, collection_time, k=k, device_ids=ids,
                    batch_size=batch_size, checkpoint=False,
                    max_inflight_shards=max_inflight_shards)
                for worker, ids in zip(self.workers, shard_ids)]))

        worker_reports = asyncio.run(_gather())

        by_device = {report.device_id: report
                     for shard_reports in worker_reports
                     for report in shard_reports}
        reports = RoundReports(by_device[device_id]
                               for device_id in self._order)
        try:
            with SinkFanout(self.sinks):
                for report in reports:
                    for sink in self.sinks:
                        sink.emit(report)
        except BaseException:
            # The fanout closed the sinks; drop the dead ones so a
            # retry round streams to the survivors (mirrors
            # FleetVerifier.collect_all).
            self.sinks = [sink for sink in self.sinks if not sink.closed]
            raise

        stats = RoundStats.merged([r.stats for r in worker_reports])
        # Fleet-level figures: the workers' wall clocks overlap, and
        # their stale-counter samples race, so both are re-measured here.
        ended = _time.perf_counter()
        stats.wall_start = started
        stats.wall_end = ended
        stats.wall_seconds = ended - started
        stats.stale_responses_rejected = \
            getattr(transport, "stale_responses_rejected", 0) - stale_before
        reports.stats = stats
        self._round_stats.append(stats)
        self.rounds_completed += 1
        if self.obs.enabled:
            self.obs.round_finished(stats)
        if checkpoint:
            self.checkpoint()
        return reports

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the worker pool, fleet-level sinks and the shared store
        (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.worker_pool.close()
        _close_released(self.sinks, self.store)


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------

#: Transport factories selectable by name in :meth:`Fleet.provision`.
TRANSPORT_FACTORIES: Dict[str, Callable[..., Transport]] = {
    "in-process": InProcessTransport,
    "simulated-network": SimulatedNetworkTransport,
    "swarm-relay": SwarmRelayTransport,
}
TRANSPORT_FACTORIES["socket"] = SocketTransport
#: Convenience aliases.
TRANSPORT_FACTORIES["network"] = SimulatedNetworkTransport
TRANSPORT_FACTORIES["swarm"] = SwarmRelayTransport


class Fleet:
    """A provisioned fleet: devices, transport, engine and verifier service.

    Build one with :meth:`provision`; then alternate ``run_until`` (let
    provers self-measure on their schedules) with ``collect_all``
    (verify everyone's history).  The same scenario code runs unchanged
    over any transport.
    """

    def __init__(self, profile: DeviceProfile,
                 verifier: Union[FleetVerifier, ShardedFleetVerifier],
                 transport: Transport, engine: SimulationEngine,
                 devices: Dict[str, ProvisionedDevice],
                 obs: Optional["Observability"] = None) -> None:
        self.profile = profile
        self.verifier = verifier
        self.transport = transport
        self.engine = engine
        self._devices = devices
        self.obs = obs if obs is not None else _default_obs()

    @classmethod
    def provision(cls, profile: DeviceProfile, count: int, *,
                  master_secret: bytes,
                  transport: Union[str, Transport,
                                   Callable[[SimulationEngine], Transport]]
                  = "in-process",
                  engine: Optional[SimulationEngine] = None,
                  sinks: Iterable[ReportSink] = (),
                  store: Optional[StateStore] = None,
                  schedule_tolerance: float = 0.25,
                  allowed_missing: int = 0,
                  name_prefix: str = "dev",
                  stagger: bool = True,
                  start_time: float = 0.0,
                  transport_options: Optional[Mapping[str, object]] = None,
                  shards: Optional[int] = None,
                  worker_mode: Optional[str] = None,
                  obs: Optional["Observability"] = None
                  ) -> "Fleet":
        """Provision ``count`` devices from one profile, ready to attest.

        Each device gets a key derived from ``master_secret``, an imaged
        architecture, a prover attached to the shared engine (start
        times staggered across one measurement interval unless
        ``stagger=False``, so the fleet does not measure in lockstep),
        a transport registration and a verifier enrollment.

        ``transport`` may be a factory name from
        :data:`TRANSPORT_FACTORIES`, a ready :class:`Transport`
        instance, or a callable receiving the engine.  ``store`` backs
        the verifier with a :class:`repro.store.StateStore` so the
        deployment can be resumed after a verifier restart (see
        :meth:`FleetVerifier.restore`).  ``shards`` provisions the
        fleet onto a :class:`ShardedFleetVerifier` that verifies in that
        many worker processes, instead of a single in-process
        :class:`FleetVerifier`.  ``worker_mode`` only restates that
        choice: ``'loop'`` when ``shards`` is ``None``, ``'process'``
        when it is set; any other value raises :class:`ValueError`.

        ``obs`` threads one :class:`repro.obs.Observability` through
        the whole stack: its clock binds to the fleet engine, the
        store is wrapped in a latency-recording interposition, the
        transport's packet events are hooked, the streaming SLO sink
        (when rules are configured) joins the report fanout, and the
        verifier records per-device/per-round metrics and span traces.
        ``fleet.obs.serve()`` then exposes everything over HTTP.
        """
        if count <= 0:
            raise ValueError("a fleet needs at least one device")
        implied_mode = "loop" if shards is None else "process"
        if worker_mode not in (None, implied_mode):
            raise ValueError(
                f"worker_mode {worker_mode!r} does not match shards="
                f"{shards!r}; expected 'loop' or 'process' as shards "
                f"implies ({implied_mode!r} here)")
        if engine is None:
            engine = SimulationEngine()
        if obs is None:
            obs = _default_obs()
        if obs.enabled:
            obs.bind_engine(engine)
            # The default MemoryStore is materialized here (instead of
            # inside the verifier) so journal/checkpoint latency is
            # observed even without an explicit durable backend.
            store = obs.wrap_store(
                store if store is not None else MemoryStore())
        round_sinks = list(sinks)
        slo_sink = obs.health_sink()
        if slo_sink is not None and slo_sink not in round_sinks:
            round_sinks.append(slo_sink)
        # The verifier is built (and its arguments checked) before the
        # transport, which may own threads and sockets.
        if shards is not None:
            verifier: Union[FleetVerifier, ShardedFleetVerifier] = \
                ShardedFleetVerifier(profile.config, shards=shards,
                                     schedule_tolerance=schedule_tolerance,
                                     allowed_missing=allowed_missing,
                                     sinks=round_sinks, store=store,
                                     obs=obs)
        else:
            verifier = FleetVerifier(profile.config,
                                     schedule_tolerance=schedule_tolerance,
                                     allowed_missing=allowed_missing,
                                     sinks=round_sinks, store=store,
                                     obs=obs)
        options = dict(transport_options or {})
        if isinstance(transport, str):
            try:
                factory = TRANSPORT_FACTORIES[transport]
            except KeyError as exc:
                known = ", ".join(sorted(TRANSPORT_FACTORIES))
                raise ValueError(f"unknown transport {transport!r}; "
                                 f"known: {known}") from exc
            built_transport = factory(engine, **options)
        elif isinstance(transport, Transport):
            if options:
                # A ready instance cannot absorb construction options;
                # dropping them silently would run the wrong network.
                raise ValueError(
                    "transport_options cannot be combined with a ready "
                    f"Transport instance (got {sorted(options)})")
            built_transport = transport
        else:
            built_transport = transport(engine, **options)
        if obs.enabled:
            obs.attach_transport(built_transport)
        devices: Dict[str, ProvisionedDevice] = {}
        interval = profile.config.measurement_interval
        try:
            for index in range(count):
                device_id = f"{name_prefix}-{index:04d}"
                device = profile.provision(device_id,
                                           master_secret=master_secret)
                offset = start_time
                if stagger:
                    offset += (index / count) * interval
                device.prover.attach(engine, start_time=offset)
                built_transport.register(device)
                verifier.enroll_device(device)
                devices[device_id] = device
        except BaseException:
            # A transport built here from its name belongs to no caller
            # yet; release its threads and sockets before re-raising.
            close = getattr(built_transport, "close", None)
            if isinstance(transport, str) and close is not None:
                close()
            raise
        if obs.enabled:
            # inc, not set: two fleets sharing one obs should add up.
            obs.devices_enrolled.inc(count)
        return cls(profile=profile, verifier=verifier,
                   transport=built_transport, engine=engine,
                   devices=devices, obs=obs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def device_count(self) -> int:
        """Number of provisioned devices."""
        return len(self._devices)

    def device_ids(self) -> List[str]:
        """All device ids, in provisioning order."""
        return list(self._devices)

    def device(self, device_id: str) -> ProvisionedDevice:
        """Look up one provisioned device."""
        try:
            return self._devices[device_id]
        except KeyError as exc:
            raise KeyError(f"no device {device_id!r} in this fleet") from exc

    def devices(self) -> List[ProvisionedDevice]:
        """All provisioned devices, in provisioning order."""
        return list(self._devices.values())

    @property
    def health(self) -> FleetHealth:
        """The verifier's running fleet-health aggregate."""
        return self.verifier.health

    @property
    def now(self) -> float:
        """Current virtual time of the shared engine."""
        return self.engine.now

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> int:
        """Advance the simulation (provers self-measure on schedule)."""
        return self.engine.run(until=time)

    def collect_all(self, k: Optional[int] = None,
                    collection_time: Optional[float] = None,
                    batch_size: int = DEFAULT_BATCH_SIZE,
                    checkpoint: bool = True,
                    max_inflight_shards: int = DEFAULT_MAX_INFLIGHT_SHARDS
                    ) -> RoundReports:
        """Run one collection round over the whole fleet.

        ``collection_time=None`` stamps each shard at the engine clock
        after its exchange (see :meth:`FleetVerifier.collect_all`).
        """
        return self.verifier.collect_all(
            self.transport, collection_time, k=k,
            batch_size=batch_size, checkpoint=checkpoint,
            max_inflight_shards=max_inflight_shards)

    async def collect_all_async(self, k: Optional[int] = None,
                                collection_time: Optional[float] = None,
                                batch_size: int = DEFAULT_BATCH_SIZE,
                                checkpoint: bool = True,
                                max_inflight_shards: int =
                                DEFAULT_MAX_INFLIGHT_SHARDS) -> RoundReports:
        """Awaitable :meth:`collect_all` — the fleet's async pipeline.

        Only available on single-verifier fleets;
        :class:`ShardedFleetVerifier` rounds run their own event loop
        and are driven through the synchronous :meth:`collect_all`.
        """
        if not isinstance(self.verifier, FleetVerifier):
            raise TypeError("collect_all_async requires a single "
                            "FleetVerifier; a sharded fleet drives its own "
                            "event loop through collect_all")
        return await self.verifier.collect_all_async(
            self.transport, collection_time, k=k, batch_size=batch_size,
            checkpoint=checkpoint, max_inflight_shards=max_inflight_shards)

    def close(self) -> None:
        """Close every attached report sink and the state store.

        Delegates to the verifier's own ``close``, which is idempotent
        and exception-safe: closing twice (an explicit call followed by
        context-manager exit, say) is a no-op, sinks that a failed
        round already closed are skipped harmlessly, and one sink
        failing to close never prevents the remaining sinks or the
        store from being released — the first failure is re-raised once
        everything has been attempted.
        """
        self.verifier.close()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
