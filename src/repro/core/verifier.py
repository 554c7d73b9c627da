"""The ERASMUS verifier (single-device legacy entry point).

The verifier (Vrf) shares the symmetric key ``K`` with each prover and
knows the prover's expected (healthy) software states and measurement
schedule.  During a collection it:

* verifies the MAC of every received measurement (tampering with the
  insecure buffer is thereby detected — malware cannot forge MACs);
* checks that timestamps are plausible: monotonically increasing,
  conforming to the expected schedule (missing measurements show up as
  gaps), and not from the future;
* compares each digest against the set of known-good software states to
  decide whether the prover was healthy *at each measurement time* —
  this is what lets ERASMUS detect mobile malware that has already left;
* computes freshness (collection time minus newest timestamp).

The checks themselves live in
:class:`repro.core.verification.DeviceJudge`, and enrollment
bookkeeping in :class:`repro.core.verification.BaseVerifier`; this
class is the thin stateful shim that keeps the original hand-wired API
working and records every report.  New code — anything managing more
than a handful of devices — should use :class:`repro.fleet.
FleetVerifier`, which runs the same judges with batched collections,
transports and report sinks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store.base import StateStore

from repro.core.config import ErasmusConfig
from repro.core.protocol import OnDemandRequest, OnDemandResponse
from repro.core.verification import (
    BaseVerifier,
    DeviceStatus,
    MeasurementVerdict,
    VerificationReport,
)

__all__ = [
    "DeviceStatus",
    "ErasmusVerifier",
    "MeasurementVerdict",
    "VerificationReport",
]


class ErasmusVerifier(BaseVerifier):
    """A verifier that manages one or more provers sharing per-device keys.

    Deprecated as the primary entry point in favour of
    :class:`repro.fleet.FleetVerifier`; kept as a fully working shim for
    single-device walkthroughs and the original examples.  All policy
    parameters are forwarded to the underlying
    :class:`~repro.core.verification.VerificationCore` (see there for
    the meaning of ``schedule_tolerance`` and ``allowed_missing``).
    """

    def __init__(self, config: ErasmusConfig,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0,
                 store: Optional["StateStore"] = None) -> None:
        super().__init__(config, schedule_tolerance=schedule_tolerance,
                         allowed_missing=allowed_missing, store=store)
        self.reports: List[VerificationReport] = []
        self._request_counter = 0.0

    # ------------------------------------------------------------------
    # Request creation
    # ------------------------------------------------------------------
    def create_ondemand_request(self, device_id: str, request_time: float,
                                k: Optional[int] = None) -> OnDemandRequest:
        """Build an authenticated ERASMUS+OD request for one prover."""
        enrollment = self._enrollment_for(device_id)
        if k is None:
            k = self.config.measurements_per_collection
        # Guarantee strictly increasing request timestamps even if two
        # requests are created at the same simulation instant.
        if request_time <= self._request_counter:
            request_time = self._request_counter + 1e-6
        self._request_counter = request_time
        tag = self.core.request_tag(enrollment.key, request_time)
        return OnDemandRequest(request_time=request_time, k=k, tag=tag)

    # ------------------------------------------------------------------
    # Verification (verify_collection inherited from BaseVerifier)
    # ------------------------------------------------------------------
    def verify_ondemand(self, device_id: str, request: OnDemandRequest,
                        response: OnDemandResponse,
                        collection_time: float) -> VerificationReport:
        """Verify an ERASMUS+OD response (Figure 4, verifier side)."""
        enrollment = self._enrollment_for(device_id)
        report = self._judge_for(enrollment).verify_ondemand(
            enrollment, request, response, collection_time)
        return self._commit(report)

    def _commit(self, report: VerificationReport) -> VerificationReport:
        """Record a finished report and advance per-device bookkeeping."""
        self._advance_bookkeeping(report)
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------
    def reports_for(self, device_id: str) -> List[VerificationReport]:
        """All reports produced so far for one device."""
        return [report for report in self.reports
                if report.device_id == device_id]
