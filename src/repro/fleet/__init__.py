"""Fleet-scale attestation service: the canonical public API.

The paper's headline property — collections cheap enough to run
continuously — only matters at scale, so this package treats
attestation as a many-device service rather than a pairwise exchange:

* :mod:`repro.fleet.profiles` — :class:`DeviceProfile`: one-call
  provisioning of SMART+ / HYDRA devices (key, firmware, schedule,
  MAC, crypto backend);
* :mod:`repro.fleet.transport` — :class:`Transport` implementations
  (in-process, simulated packet network, swarm relay tree) that all
  speak the canonical wire encoding, plus the awaitable view
  (:func:`as_async_transport`) the collection pipeline drives;
* :mod:`repro.fleet.service` — :class:`FleetVerifier` (an async-first
  ``collect_all`` round judging every response with the device's
  :class:`~repro.core.verification.DeviceJudge`, with the synchronous
  call kept as a thin shim), the
  :class:`ShardedFleetVerifier` (N verification worker processes,
  merged :class:`FleetHealth`) and the :class:`Fleet` facade;
* :mod:`repro.fleet.sinks` — pluggable report sinks (in-memory, JSONL,
  :class:`FleetHealth` aggregation) and per-round :class:`RoundStats`.

Verifier state can be made durable by passing a
:class:`repro.store.StateStore` backend (``store=``) to
:meth:`Fleet.provision` / :class:`FleetVerifier`; a crashed verifier is
then resumed with :meth:`FleetVerifier.restore` — see
:mod:`repro.store`.

Quickstart::

    from repro.fleet import DeviceProfile, Fleet

    profile = DeviceProfile.smartplus(firmware=b"pump-fw-v1",
                                      measurement_interval=60.0,
                                      collection_interval=600.0)
    fleet = Fleet.provision(profile, 1000, master_secret=b"factory-secret")
    fleet.run_until(600.0)
    reports = fleet.collect_all()
    print(fleet.health.summary())

The legacy single-device entry points
(:class:`repro.core.ErasmusProver` / :class:`repro.core.ErasmusVerifier`)
keep working as thin shims over the same verification core.
"""

from repro.fleet.profiles import (
    HYDRA,
    SMARTPLUS,
    DeviceProfile,
    ProvisionedDevice,
    derive_device_key,
)
from repro.fleet.service import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_INFLIGHT_SHARDS,
    TRANSPORT_FACTORIES,
    Fleet,
    FleetVerifier,
    RoundReports,
    ShardedFleetVerifier,
)
from repro.core.verification import DuplicateEnrollmentError
from repro.fleet.sinks import (
    FleetHealth,
    FleetHealthSink,
    JsonlSink,
    MemorySink,
    ReportSink,
    RoundStats,
    SinkFanout,
    report_to_row,
)
from repro.fleet.transport import (
    InProcessTransport,
    SimulatedNetworkTransport,
    SocketTransport,
    SwarmRelayTransport,
    SyncTransportAdapter,
    Transport,
    as_async_transport,
    serve_request,
)
from repro.fleet.workers import WorkerCrashed, WorkerError, WorkerPool

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_INFLIGHT_SHARDS",
    "DeviceProfile",
    "DuplicateEnrollmentError",
    "Fleet",
    "FleetHealth",
    "FleetHealthSink",
    "FleetVerifier",
    "HYDRA",
    "InProcessTransport",
    "JsonlSink",
    "MemorySink",
    "ProvisionedDevice",
    "ReportSink",
    "RoundReports",
    "RoundStats",
    "SMARTPLUS",
    "ShardedFleetVerifier",
    "SimulatedNetworkTransport",
    "SinkFanout",
    "SocketTransport",
    "SwarmRelayTransport",
    "SyncTransportAdapter",
    "TRANSPORT_FACTORIES",
    "Transport",
    "WorkerCrashed",
    "WorkerError",
    "WorkerPool",
    "as_async_transport",
    "derive_device_key",
    "report_to_row",
    "serve_request",
]
