"""On-demand attestation baseline (SMART+-style).

This is the approach ERASMUS is compared against throughout the paper:
the verifier sends an authenticated, timestamped request; the prover
authenticates it (anti-DoS), computes a measurement of its *current*
state in real time, and returns it.  There is no stored history, so:

* mobile malware that left before the request goes undetected;
* every attestation costs the prover a full measurement while the
  verifier waits.

The prover below deliberately mirrors :class:`repro.core.prover.
ErasmusProver` so the experiments can swap one for the other; the
verifier is an :class:`repro.core.verifier.ErasmusVerifier` that judges
a lone fresh measurement instead of a history.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.base import MeasurementAborted, SecurityArchitecture
from repro.core.config import ErasmusConfig
from repro.core.measurement import Measurement
from repro.core.protocol import OnDemandRequest, OnDemandResponse
from repro.core.verifier import DeviceStatus, ErasmusVerifier, \
    VerificationReport


class OnDemandProver:
    """A prover that only supports classic on-demand attestation."""

    def __init__(self, architecture: SecurityArchitecture,
                 config: ErasmusConfig, device_id: str = "prover") -> None:
        self.architecture = architecture
        self.config = config
        self.device_id = device_id
        self.attestations_served = 0
        self.requests_refused = 0

    def handle_request(self, request: OnDemandRequest,
                       time: Optional[float] = None) -> OnDemandResponse:
        """Authenticate the request and attest the current state."""
        if time is not None:
            self.architecture.advance_clock(time)
        authentic = self.architecture.authenticate_request(
            payload=b"", tag=request.tag, request_time=request.request_time,
            freshness_window=self.config.request_freshness_window)
        if not authentic:
            self.requests_refused += 1
            return OnDemandResponse(fresh=None, measurements=[])
        try:
            output = self.architecture.perform_measurement()
        except MeasurementAborted:
            return OnDemandResponse(fresh=None, measurements=[])
        self.attestations_served += 1
        return OnDemandResponse(fresh=Measurement.from_output(output),
                                measurements=[])

    def attestation_runtime(self) -> float:
        """Prover-side run-time of one on-demand attestation."""
        return self.architecture.cost_model.attestation_runtime(
            self.architecture.measured_memory_bytes(),
            self.architecture.mac_name, on_demand=True)


class OnDemandVerifier(ErasmusVerifier):
    """A verifier using only on-demand attestation.

    Enrollment, request tags and the per-measurement verdict all come
    from :class:`~repro.core.verifier.ErasmusVerifier` and the device's
    :class:`~repro.core.verification.DeviceJudge`; only the judgement of
    a lone fresh measurement (no history, so no schedule checks) is
    specific to the baseline.
    """

    def create_ondemand_request(self, device_id: str, request_time: float,
                                k: int = 0) -> OnDemandRequest:
        """Build an authenticated attestation request (no history)."""
        return super().create_ondemand_request(device_id, request_time, k=k)

    def verify_response(self, device_id: str, request: OnDemandRequest,
                        response: OnDemandResponse,
                        collection_time: float) -> VerificationReport:
        """Verify the single fresh measurement returned by the prover."""
        enrollment = self._enrollment_for(device_id)
        report = VerificationReport(device_id=device_id,
                                    collection_time=collection_time,
                                    status=DeviceStatus.HEALTHY)
        fresh = response.fresh
        if fresh is None:
            report.status = DeviceStatus.NO_DATA
            report.anomalies.append("prover returned no measurement")
            return self._commit(report)
        report.verdicts = self._judge_for(enrollment).verdicts(
            enrollment, [fresh], collection_time)
        verdict = report.verdicts[0]
        report.freshness = collection_time - fresh.timestamp
        if not verdict.authentic or fresh.timestamp + 1e-6 < \
                request.request_time:
            report.status = DeviceStatus.TAMPERED
            report.anomalies.append("fresh measurement is invalid or stale")
        elif verdict.from_future:
            report.status = DeviceStatus.TAMPERED
            report.anomalies.append(
                "fresh measurement is timestamped in the future")
        elif not verdict.healthy:
            report.status = DeviceStatus.INFECTED
        return self._commit(report)
