"""Fault injectors: wrappers around the fleet's seams, never edits.

Campaign cells exercise robustness by injecting faults *around* the
production code paths, through the same seams the fleet stack already
exposes:

* :class:`PartitionInjector` wraps any
  :class:`~repro.fleet.transport.Transport`: during configured
  engine-time windows a deterministic subset of devices simply never
  answers — the verifier sees lost responses, exactly like a real
  partition;
* :class:`CrashOnceStore` wraps any
  :class:`~repro.store.StateStore`: the N-th report journal write
  raises :class:`~repro.store.StoreError` once, killing the collection
  round mid-commit — the campaign runner then proves the deployment
  recovers via :meth:`repro.fleet.FleetVerifier.restore`;
* verifier downtime needs no wrapper at all: the runner skips the
  collection rounds that fall inside a downtime window, and the
  bounded measurement buffer decides what evidence survives.

Both wrappers are pure interpositions — the wrapped object is driven
unmodified, so the faults compose with every transport and store
backend.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fleet.profiles import ProvisionedDevice
from repro.fleet.transport import Transport
from repro.store import StateStore, StoreError

Window = Tuple[float, float]


class PartitionInjector(Transport):
    """A transport wrapper that cuts a device subset during windows.

    The cut set is chosen deterministically per device from ``seed``
    (each device is cut with probability ``fraction``); while the
    engine clock is inside any of the ``windows``, exchanges with cut
    devices return ``None`` without ever reaching the wrapped
    transport.  Outside the windows the wrapper is transparent.
    """

    def __init__(self, inner: Transport, windows: Sequence[Window],
                 fraction: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("the cut fraction must be within [0, 1]")
        for start, end in windows:
            if start < 0 or end <= start:
                raise ValueError(
                    f"partition window {(start, end)!r} must satisfy "
                    f"0 <= start < end")
        self.inner = inner
        self.windows: List[Window] = [(float(start), float(end))
                                      for start, end in windows]
        self.fraction = fraction
        self.seed = seed
        #: Exchanges dropped by this injector (not by the network).
        self.dropped_exchanges = 0
        self._cut_cache: Dict[str, bool] = {}

    # -- passthrough attributes the collection stack introspects -------
    @property
    def name(self) -> str:  # type: ignore[override]
        return f"partitioned({getattr(self.inner, 'name', 'transport')})"

    @property
    def engine(self):
        return getattr(self.inner, "engine", None)

    @property
    def stale_responses_rejected(self) -> int:
        return getattr(self.inner, "stale_responses_rejected", 0)

    # -- the fault ------------------------------------------------------
    def is_cut(self, device_id: str) -> bool:
        """True when this device belongs to the partitioned subset."""
        cut = self._cut_cache.get(device_id)
        if cut is None:
            cut = random.Random(
                f"{self.seed}/{device_id}").random() < self.fraction
            self._cut_cache[device_id] = cut
        return cut

    def partition_active(self, time: Optional[float] = None) -> bool:
        """True when ``time`` (default: engine now) is inside a window."""
        if time is None:
            engine = self.engine
            time = engine.now if engine is not None else 0.0
        return any(start <= time < end for start, end in self.windows)

    def _drops(self, device_id: str) -> bool:
        return self.partition_active() and self.is_cut(device_id)

    # -- Transport contract --------------------------------------------
    def register(self, device: ProvisionedDevice) -> None:
        self.inner.register(device)

    def exchange(self, device_id: str, payload: bytes) -> Optional[bytes]:
        if self._drops(device_id):
            self.dropped_exchanges += 1
            return None
        return self.inner.exchange(device_id, payload)

    def exchange_many(self, requests: Mapping[str, bytes]
                      ) -> Dict[str, Optional[bytes]]:
        passed = {device_id: payload
                  for device_id, payload in requests.items()
                  if not self._drops(device_id)}
        dropped = [device_id for device_id in requests
                   if device_id not in passed]
        self.dropped_exchanges += len(dropped)
        responses: Dict[str, Optional[bytes]] = \
            self.inner.exchange_many(passed) if passed else {}
        return {device_id: responses.get(device_id)
                for device_id in requests}


class CrashOnceStore(StateStore):
    """A state store whose N-th report write fails — exactly once.

    ``crash_after_reports`` counts successful journal appends before
    the crash: append number ``crash_after_reports + 1`` raises
    :class:`StoreError` without touching the wrapped store, and every
    append after that goes through again.  Everything else is a pure
    passthrough, so :meth:`repro.fleet.FleetVerifier.restore` can
    resume from the very store that "crashed".
    """

    def __init__(self, inner: StateStore, crash_after_reports: int) -> None:
        if crash_after_reports < 0:
            raise ValueError("crash_after_reports must be non-negative")
        self.inner = inner
        self.crash_after_reports = crash_after_reports
        self.reports_appended = 0
        self.crashed = False

    def save_enrollment(self, enrollment) -> None:
        self.inner.save_enrollment(enrollment)

    def append_report(self, report) -> None:
        if not self.crashed and \
                self.reports_appended == self.crash_after_reports:
            self.crashed = True
            raise StoreError(
                f"injected store crash after {self.reports_appended} "
                f"journaled report(s)")
        self.inner.append_report(report)
        self.reports_appended += 1

    def checkpoint(self, health, last_collection_times,
                   rounds_completed: int = 0) -> None:
        self.inner.checkpoint(health, last_collection_times,
                              rounds_completed=rounds_completed)

    def has_enrollment(self, device_id: str) -> bool:
        return self.inner.has_enrollment(device_id)

    def restore_state(self):
        return self.inner.restore_state()

    def device_history(self, device_id: str, limit: Optional[int] = None):
        return self.inner.device_history(device_id, limit=limit)

    def state_rows(self):
        return self.inner.state_rows()

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()
