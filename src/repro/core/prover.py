"""The ERASMUS prover.

The prover (Prv) owns a security architecture (SMART+ or HYDRA), a
measurement scheduler and the rolling measurement store.  It performs
two activities:

* **measurement phase** — triggered by its own timer according to the
  configured schedule, with no verifier involvement;
* **collection phase** — triggered by a verifier request; the prover
  merely reads its stored measurements and transmits them (Figure 2).
  In the ERASMUS+OD variant it additionally authenticates the request
  and computes one fresh measurement (Figure 4).

The prover can run attached to a :class:`repro.sim.SimulationEngine`
(events drive measurements automatically) or be driven manually by
calling :meth:`take_measurement` — the latter is what the cost-model
benchmarks use.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.arch.base import MeasurementAborted, SecurityArchitecture
from repro.core.config import ErasmusConfig, ScheduleKind
from repro.core.measurement import Measurement
from repro.core.protocol import (
    CollectRequest,
    CollectResponse,
    OnDemandRequest,
    OnDemandResponse,
)
from repro.core.scheduler import MeasurementScheduler, build_scheduler
from repro.core.storage import MeasurementStore
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind


class ErasmusProver:
    """An ERASMUS prover device.

    Parameters
    ----------
    architecture:
        The underlying security architecture (provides measurement,
        request authentication and the RROC).
    config:
        Deployment parameters (``T_M``, ``n``, schedule, ...).
    device_id:
        Identifier used in traces and by the verifier's bookkeeping.
    scheduling_key:
        Seed for the CSPRNG when ``config.schedule`` is ``IRREGULAR``;
        in a real deployment this is derived from ``K`` inside the
        protected code.
    critical_task_active:
        Optional predicate ``time -> bool``.  When it returns ``True``
        at measurement time, the measurement is aborted (Section 5) and
        handled according to the scheduler's abort policy.
    """

    def __init__(self, architecture: SecurityArchitecture,
                 config: ErasmusConfig, device_id: str = "prover",
                 scheduling_key: bytes = b"",
                 critical_task_active: Optional[Callable[[float], bool]] = None
                 ) -> None:
        self.architecture = architecture
        self.config = config
        self.device_id = device_id
        if config.crypto_backend is not None:
            # The deployment config wins over whatever default the
            # architecture was built with, so prover-side measurement
            # crypto and the schedule CSPRNG use the same provider.
            architecture.use_crypto_backend(config.crypto_backend)
        self.scheduler: MeasurementScheduler = build_scheduler(
            config, key=scheduling_key, device_nonce=device_id.encode())
        # The stateless timestamp-to-slot rule assumes at most one
        # measurement per T_M window; irregular schedules violate that,
        # so they fall back to round-robin slot assignment.
        self.store = MeasurementStore(
            config.buffer_slots, config.measurement_interval,
            stateless=config.schedule is not ScheduleKind.IRREGULAR)
        self.critical_task_active = critical_task_active
        self._engine: Optional[SimulationEngine] = None
        self._window_start = 0.0
        self.measurements_taken = 0
        self.measurements_aborted = 0
        self.measurements_missed = 0
        self.collections_served = 0
        self.busy_intervals: List[tuple[float, float]] = []
        #: Observers called after every engine-scheduled measurement
        #: attempt with ``(device_id, time, measurement-or-None)``.
        #: This is the Section 3.5 observation channel: measurement
        #: activity is externally visible (busy CPU), so schedule-aware
        #: malware can react to *when* measurements happen without ever
        #: touching the scheduler's CSPRNG state.
        self.measurement_listeners: List[
            Callable[[str, float, Optional[Measurement]], None]] = []

    # ------------------------------------------------------------------
    # Measurement phase
    # ------------------------------------------------------------------
    def take_measurement(self, time: float) -> Optional[Measurement]:
        """Perform one self-measurement at the given simulation time.

        Returns the stored record, or ``None`` when the measurement was
        aborted because a critical task was active.
        """
        self.architecture.advance_clock(time)
        abort = bool(self.critical_task_active and
                     self.critical_task_active(time))
        try:
            output = self.architecture.perform_measurement(abort=abort)
        except MeasurementAborted:
            self.measurements_aborted += 1
            return None
        measurement = Measurement.from_output(output)
        self.store.store(measurement)
        self.measurements_taken += 1
        self.busy_intervals.append((time, time + measurement.duration))
        return measurement

    def attach(self, engine: SimulationEngine, start_time: float = 0.0) -> None:
        """Attach to a simulation engine and start the measurement schedule."""
        self._engine = engine
        self._window_start = start_time
        first = self.scheduler.next_time(start_time)
        engine.schedule(first, self._on_measurement_due,
                        EventKind.MEASUREMENT, payload=self.device_id)

    def _on_measurement_due(self, event: Event) -> None:
        assert self._engine is not None
        time = self._engine.now
        measurement = self.take_measurement(time)
        trace = self._engine.trace
        if trace is not None:
            trace.record(
                time, "measurement", device=self.device_id,
                aborted=measurement is None,
                timestamp=None if measurement is None
                else measurement.timestamp)
        for listener in list(self.measurement_listeners):
            listener(self.device_id, time, measurement)
        if measurement is None:
            retry = self.scheduler.reschedule_after_abort(
                time, self._window_start)
            if retry is not None and retry > time:
                self._engine.schedule(retry, self._on_measurement_due,
                                      EventKind.MEASUREMENT,
                                      payload=self.device_id)
                return
            self.measurements_missed += 1
        self._window_start = time
        next_time = self.scheduler.next_time(time)
        self._engine.schedule(next_time, self._on_measurement_due,
                              EventKind.MEASUREMENT, payload=self.device_id)

    # ------------------------------------------------------------------
    # Collection phase (Figure 2)
    # ------------------------------------------------------------------
    def handle_collect(self, request: CollectRequest) -> CollectResponse:
        """Serve a plain ERASMUS collection: read and transmit, nothing else."""
        k = min(request.k, self.store.slots)
        self.collections_served += 1
        return CollectResponse(measurements=self.store.latest(k))

    def collection_runtime(self, on_demand: bool = False) -> float:
        """Modelled prover-side run-time of serving one collection.

        Plain ERASMUS collections involve no cryptography: only packet
        construction and transmission (Table 2).  ERASMUS+OD adds the
        request verification and a full measurement.
        """
        breakdown = self.architecture.cost_model.collection_runtime(
            self.architecture.measured_memory_bytes(),
            self.architecture.mac_name, on_demand=on_demand)
        return breakdown["total"]

    # ------------------------------------------------------------------
    # ERASMUS+OD collection (Figure 4)
    # ------------------------------------------------------------------
    def handle_ondemand(self, request: OnDemandRequest,
                        time: Optional[float] = None) -> OnDemandResponse:
        """Serve an ERASMUS+OD request: authenticate, measure, return history.

        A request that fails authentication (bad MAC, stale or replayed
        timestamp) is refused without computing anything expensive —
        that is the whole point of the SMART+ anti-DoS check.
        """
        if time is not None:
            self.architecture.advance_clock(time)
        authentic = self.architecture.authenticate_request(
            payload=b"", tag=request.tag, request_time=request.request_time,
            freshness_window=self.config.request_freshness_window)
        if not authentic:
            return OnDemandResponse(fresh=None, measurements=[])
        measurement_time = time if time is not None \
            else self.architecture.read_clock()
        fresh = self.take_measurement(measurement_time)
        if fresh is None:
            return OnDemandResponse(fresh=None, measurements=[])
        k = min(request.k, self.store.slots)
        history = [entry for entry in self.store.latest(k)
                   if entry.timestamp != fresh.timestamp]
        self.collections_served += 1
        return OnDemandResponse(fresh=fresh, measurements=history)

    # ------------------------------------------------------------------
    # Availability accounting (Section 5)
    # ------------------------------------------------------------------
    def busy_fraction(self, start: float, end: float) -> float:
        """Fraction of ``[start, end]`` spent computing measurements."""
        if end <= start:
            raise ValueError("end must be after start")
        busy = 0.0
        for interval_start, interval_end in self.busy_intervals:
            overlap = min(end, interval_end) - max(start, interval_start)
            if overlap > 0:
                busy += overlap
        return busy / (end - start)

    def is_busy_at(self, time: float) -> bool:
        """True when a measurement is in progress at ``time``."""
        return any(start <= time < end for start, end in self.busy_intervals)
