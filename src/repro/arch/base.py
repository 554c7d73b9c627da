"""Abstract base class shared by the SMART+ and HYDRA architecture models."""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass
from typing import Callable, Dict

from repro.crypto.backend import BackendSpec, resolve_backend
from repro.crypto.mac import get_mac
from repro.hw.devices import DeviceCostModel
from repro.hw.memory import AccessContext, DeviceMemory

_HASH_FOR_MAC: Dict[str, str] = {
    "hmac-sha1": "sha1",
    "hmac-sha256": "sha256",
    "keyed-blake2s": "blake2s",
}


def hash_for_mac(mac_name: str,
                 backend: BackendSpec = None) -> Callable[[bytes], bytes]:
    """Return the hash function ``H`` paired with a MAC choice.

    The measurement is ``MAC_K(t, H(mem_t))``; the paper pairs HMAC-SHA1
    with SHA-1, HMAC-SHA256 with SHA-256 and keyed BLAKE2s with
    (unkeyed) BLAKE2s.  The returned callable computes the digest on the
    selected crypto backend (identical values on every backend).
    """
    try:
        hash_name = _HASH_FOR_MAC[mac_name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_HASH_FOR_MAC))
        raise ValueError(
            f"no hash paired with MAC {mac_name!r}; known: {known}") from exc
    return resolve_backend(backend).hash_function(hash_name)


class ArchitectureError(Exception):
    """Generic architecture-level failure (misconfiguration, bad state)."""


class MeasurementAborted(Exception):
    """A measurement was aborted before completion (Section 5 variant)."""


@dataclass(frozen=True)
class MeasurementOutput:
    """Raw output of one self-measurement performed by the architecture.

    ``timestamp`` comes from the RROC, ``digest`` is ``H(mem_t)``,
    ``tag`` is ``MAC_K(t, H(mem_t))`` and ``duration`` is the modelled
    run-time of the measurement on the target device.
    """

    timestamp: float
    digest: bytes
    tag: bytes
    duration: float
    memory_bytes: int


def encode_timestamp(timestamp: float) -> bytes:
    """Canonical byte encoding of a timestamp for MAC computation.

    Timestamps are RROC cycle-derived seconds; we encode them as a
    fixed-point 64-bit integer of microseconds so that prover and
    verifier always MAC exactly the same bytes.
    """
    return struct.pack(">Q", int(round(timestamp * 1_000_000)))


class SecurityArchitecture(abc.ABC):
    """Interface ERASMUS requires from the underlying hybrid architecture.

    Concrete subclasses (SMART+, HYDRA) own the device memory, the key,
    the RROC and the cost model; the core protocol layer only calls the
    methods defined here.
    """

    def __init__(self, memory: DeviceMemory, cost_model: DeviceCostModel,
                 mac_name: str, measured_regions: tuple[str, ...],
                 crypto_backend: BackendSpec = None) -> None:
        self.memory = memory
        self.cost_model = cost_model
        self.mac_name = mac_name.lower()
        self.mac_algorithm = get_mac(self.mac_name)
        self.use_crypto_backend(crypto_backend)
        self.measured_regions = tuple(measured_regions)
        # Modelled measurement run-time per measured size: the cost
        # model is fixed at construction, so each size is priced once.
        self._durations: Dict[int, float] = {}
        self.measurements_performed = 0
        self.aborted_measurements = 0
        self._last_request_time: float | None = None

    def use_crypto_backend(self, backend: BackendSpec) -> None:
        """Select the crypto backend for measurements and request auth.

        Deployments that model reference cycle costs pick ``reference``;
        everything else uses the resolved default (normally the stdlib
        ``accelerated`` provider).  Digests and tags are identical
        either way.  The hash ``H`` and the ``(key, data) -> tag`` MAC
        are bound here once, so a measurement resolves neither by name.
        """
        self.crypto_backend = resolve_backend(backend)
        self.hash_function = hash_for_mac(self.mac_name, self.crypto_backend)
        self._keyed_mac = self.mac_algorithm.keyed_mac_function(
            self.crypto_backend)

    # ------------------------------------------------------------------
    # Clock and key access (architecture-specific)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def read_clock(self) -> float:
        """Read the reliable read-only clock (seconds since boot)."""

    @abc.abstractmethod
    def advance_clock(self, time_seconds: float) -> None:
        """Advance the device clock to an absolute simulation time."""

    @abc.abstractmethod
    def _read_key(self) -> bytes:
        """Read ``K`` from within the attestation context.

        Only the architecture's own protected code paths call this;
        anything else reading the key region raises an access violation.
        """

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measured_memory_bytes(self) -> int:
        """Total size of the memory covered by a measurement."""
        return sum(self.memory.region(name).size
                   for name in self.measured_regions)

    def read_measured_memory(self) -> bytes:
        """Read the measured regions from the attestation context."""
        chunks = [self.memory.read_region(name, AccessContext.ATTESTATION)
                  for name in self.measured_regions]
        return b"".join(chunks)

    def perform_measurement(self, abort: bool = False) -> MeasurementOutput:
        """Compute one self-measurement ``<t, H(mem_t), MAC_K(t, H(mem_t))>``.

        The computation happens inside the architecture's protected
        context (modelled by :meth:`_protected_execution`).  ``abort=True``
        models the Section 5 situation where a time-critical task
        pre-empts the measurement: the architecture cleans up and raises
        :class:`MeasurementAborted` without producing a record.
        """
        with self._protected_execution():
            if abort:
                self.aborted_measurements += 1
                raise MeasurementAborted(
                    "measurement aborted by a time-critical task")
            timestamp = self.read_clock()
            memory_image = self.read_measured_memory()
            digest = self.hash_function(memory_image)
            key = self._read_key()
            tag = self._keyed_mac(key, encode_timestamp(timestamp) + digest)
            size = len(memory_image)
            duration = self._durations.get(size)
            if duration is None:
                duration = self._durations[size] = \
                    self.cost_model.measurement_runtime(size, self.mac_name)
            self.measurements_performed += 1
            return MeasurementOutput(timestamp=timestamp, digest=digest,
                                     tag=tag, duration=duration,
                                     memory_bytes=size)

    # ------------------------------------------------------------------
    # Verifier-request authentication (on-demand / ERASMUS+OD only)
    # ------------------------------------------------------------------
    def authenticate_request(self, payload: bytes, tag: bytes,
                             request_time: float,
                             freshness_window: float = 60.0) -> bool:
        """Authenticate a verifier request as SMART+ prescribes.

        Checks (1) the request timestamp is strictly newer than the last
        accepted one (anti-replay), (2) it is within ``freshness_window``
        seconds of the RROC (anti-delay), and (3) the MAC over the
        payload verifies under ``K``.
        """
        now = self.read_clock()
        if self._last_request_time is not None and \
                request_time <= self._last_request_time:
            return False
        if abs(now - request_time) > freshness_window:
            return False
        with self._protected_execution():
            key = self._read_key()
            valid = self.mac_algorithm.verify(
                key, encode_timestamp(request_time) + payload, tag,
                backend=self.crypto_backend)
        if valid:
            self._last_request_time = request_time
        return valid

    def request_auth_runtime(self) -> float:
        """Modelled run-time of authenticating one verifier request."""
        return self.cost_model.request_auth_runtime(self.mac_name)

    # ------------------------------------------------------------------
    # Protected execution
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _protected_execution(self):
        """Context manager for the architecture's protected execution mode.

        SMART+ models ROM execution with interrupts disabled; HYDRA
        models the PrAtt process running at the highest priority with
        exclusive capabilities.
        """

    # ------------------------------------------------------------------
    # Introspection used by the application / adversary layers
    # ------------------------------------------------------------------
    def application_write(self, region: str, offset: int,
                          payload: bytes) -> None:
        """Write to device memory from the (untrusted) normal world."""
        self.memory.write_region(region, payload,
                                 context=AccessContext.NORMAL, offset=offset)

    def application_read(self, region: str) -> bytes:
        """Read device memory from the (untrusted) normal world."""
        return self.memory.read_region(region, context=AccessContext.NORMAL)
