"""ERASMUS core: self-measurement remote attestation.

This package implements the paper's primary contribution:

* :mod:`repro.core.measurement` — the measurement record
  ``M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>`` and its wire encoding;
* :mod:`repro.core.storage` — the rolling (circular) measurement buffer
  kept in the prover's insecure memory (Section 3.2);
* :mod:`repro.core.scheduler` — regular, CSPRNG-irregular (Section 3.5)
  and lenient (Section 5) measurement scheduling;
* :mod:`repro.core.prover` / :mod:`repro.core.verifier` — the two
  protocol roles, including the collection protocol (Figure 2), the
  ERASMUS+OD variant (Figure 4) and measurement-history verification;
* :mod:`repro.core.ondemand` — the on-demand attestation baseline
  (SMART+-style) that ERASMUS is compared against;
* :mod:`repro.core.qoa` — the Quality of Attestation metric
  (Section 3.1);
* :mod:`repro.core.config` — configuration dataclasses.
"""

from repro.core.config import ErasmusConfig, ScheduleKind
from repro.core.measurement import (
    Measurement,
    MeasurementDecodeError,
    RecordColumns,
)
from repro.core.ondemand import OnDemandProver, OnDemandVerifier
from repro.core.protocol import (
    CollectRequest,
    CollectResponse,
    OnDemandRequest,
    OnDemandResponse,
    ProtocolDecodeError,
    decode_request,
    decode_response,
)
from repro.core.prover import ErasmusProver
from repro.core.qoa import QoA, expected_freshness, detection_probability
from repro.core.scheduler import (
    IrregularScheduler,
    LenientScheduler,
    MeasurementScheduler,
    RegularScheduler,
    build_scheduler,
)
from repro.core.storage import MeasurementStore
from repro.core.verification import (
    BaseVerifier,
    DeviceStatus,
    DuplicateEnrollmentError,
    Enrollment,
    MeasurementVerdict,
    VerificationCore,
    VerificationReport,
)
from repro.core.verifier import ErasmusVerifier

__all__ = [
    "BaseVerifier",
    "CollectRequest",
    "CollectResponse",
    "DeviceStatus",
    "DuplicateEnrollmentError",
    "Enrollment",
    "ErasmusConfig",
    "ErasmusProver",
    "ErasmusVerifier",
    "IrregularScheduler",
    "LenientScheduler",
    "Measurement",
    "MeasurementDecodeError",
    "MeasurementScheduler",
    "MeasurementStore",
    "MeasurementVerdict",
    "OnDemandProver",
    "OnDemandRequest",
    "OnDemandResponse",
    "OnDemandVerifier",
    "ProtocolDecodeError",
    "QoA",
    "RecordColumns",
    "RegularScheduler",
    "ScheduleKind",
    "VerificationCore",
    "VerificationReport",
    "build_scheduler",
    "decode_request",
    "decode_response",
    "detection_probability",
    "expected_freshness",
]
