"""Stateless measurement-history verification.

This module is the policy-and-crypto half of the verifier role, split
out so the same checks can back any enrollment store:

* :class:`VerificationCore` holds only deployment policy (the config,
  the schedule tolerance, the missing-measurement allowance) and the
  resolved crypto primitives;
* :class:`DeviceJudge` is the one place measurements become verdicts:
  it binds one device key to the core and judges collections and
  ERASMUS+OD responses.  Per-device state — the known-good digests,
  the newest timestamp already seen — is passed *into* every call;
* :class:`BaseVerifier` keeps enrollments and a judge per device for
  the front ends: :class:`repro.core.ErasmusVerifier` for
  single-device walkthroughs and :class:`repro.fleet.FleetVerifier`
  for batched collection over thousands of provers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store.base import StateStore

from repro.arch.base import encode_timestamp
from repro.core.config import ErasmusConfig
from repro.core.measurement import Measurement, RecordColumns
from repro.core.protocol import (
    CollectRequest,
    CollectResponse,
    OnDemandRequest,
    OnDemandResponse,
)
from repro.crypto.backend import resolve_backend
from repro.crypto.mac import get_mac


class DeviceStatus(enum.Enum):
    """Overall outcome of verifying one collection."""

    HEALTHY = "healthy"
    INFECTED = "infected"
    TAMPERED = "tampered"
    NO_DATA = "no_data"


class DuplicateEnrollmentError(ValueError):
    """A device was enrolled twice without an explicit re-enrollment.

    Silently replacing an enrollment would discard the device's
    last-seen timestamp and whitelisted digests — on a fleet verifier
    that is almost always an operator mistake, so it must be opted into
    with ``re_enroll=True``.
    """


@dataclass(frozen=True)
class MeasurementVerdict:
    """Verdict on a single received measurement."""

    measurement: Measurement
    authentic: bool
    healthy: bool
    from_future: bool = False

    @property
    def acceptable(self) -> bool:
        """Authentic, plausible and matching a known-good state."""
        return self.authentic and self.healthy and not self.from_future


class JudgedRecords:
    """One judged collection: its columns plus per-record verdict flags."""

    __slots__ = ("columns", "authentic", "healthy", "from_future")

    def __init__(self, columns: RecordColumns, authentic: List[bool],
                 healthy: List[bool], from_future: List[bool]) -> None:
        self.columns = columns
        self.authentic = authentic
        self.healthy = healthy
        self.from_future = from_future

    def verdicts(self) -> List[MeasurementVerdict]:
        """The flags as one :class:`MeasurementVerdict` per record."""
        return [MeasurementVerdict(measurement=measurement,
                                   authentic=authentic, healthy=healthy,
                                   from_future=from_future)
                for measurement, authentic, healthy, from_future in zip(
                    self.columns.measurements(), self.authentic,
                    self.healthy, self.from_future)]


class _LazyVerdicts:
    """``VerificationReport.verdicts``, built from judged columns on read.

    A report from :class:`DeviceJudge` holds :class:`JudgedRecords`; its
    verdict list is built the first time someone reads it.  Passing
    ``verdicts=`` or assigning a list stores that list instead.
    """

    def __get__(self, report, owner=None):
        if report is None:
            return ()  # the dataclass field default
        if report._verdicts is None:
            report._verdicts = report._judged.verdicts()
        return report._verdicts

    def __set__(self, report, verdicts) -> None:
        report._verdicts = list(verdicts)
        report._judged = None


@dataclass
class VerificationReport:
    """Outcome of verifying one collection from one prover.

    A report normally carries its per-measurement verdicts — as the
    judge's :class:`JudgedRecords`, with :attr:`verdicts` built on first
    read; a report restored from a persisted row (:meth:`from_row`)
    carries none, so the derived counters fall back to the ``restored``
    row written by :meth:`to_row` — :meth:`measurement_count`,
    :meth:`infected_timestamps` and :meth:`newest_timestamp` stay
    correct either way, which is what lets a
    :class:`repro.store.StateStore` replay reports into a
    :class:`repro.fleet.FleetHealth` aggregate after a restart.
    """

    device_id: str
    collection_time: float
    status: DeviceStatus
    verdicts: List[MeasurementVerdict] = _LazyVerdicts()  # type: ignore[assignment]
    anomalies: List[str] = field(default_factory=list)
    freshness: Optional[float] = None
    missing_intervals: int = 0
    restored: Optional[Dict[str, object]] = field(
        default=None, repr=False, compare=False)

    def _attach(self, judged: JudgedRecords) -> None:
        """Carry the judge's columns and flags in place of a verdict list."""
        self._judged = judged
        self._verdicts = None

    @property
    def measurement_count(self) -> int:
        """Number of measurements received in this collection."""
        if self._judged is not None:
            return len(self._judged.columns)
        if self.verdicts or self.restored is None:
            return len(self.verdicts)
        return int(self.restored.get("measurements", 0))

    @property
    def infected_timestamps(self) -> List[float]:
        """Timestamps at which the prover's state was not a known-good one."""
        judged = self._judged
        if judged is not None:
            return [timestamp for timestamp, authentic, healthy in zip(
                        judged.columns.timestamps, judged.authentic,
                        judged.healthy)
                    if authentic and not healthy]
        if self.verdicts or self.restored is None:
            return [verdict.measurement.timestamp
                    for verdict in self.verdicts
                    if verdict.authentic and not verdict.healthy]
        return [float(t) for t in
                self.restored.get("infected_timestamps", ())]

    @property
    def newest_timestamp(self) -> Optional[float]:
        """Newest measurement timestamp carried by this collection."""
        if self._judged is not None:
            return max(self._judged.columns.timestamps)
        if self.verdicts:
            return max(verdict.measurement.timestamp
                       for verdict in self.verdicts)
        if self.restored is not None:
            value = self.restored.get("newest_timestamp")
            return None if value is None else float(value)
        return None

    def to_row(self) -> Dict[str, object]:
        """Flatten into a stable, JSON-friendly row.

        The row is the canonical persisted form: it is what
        :class:`repro.fleet.JsonlSink` writes, what every
        :class:`repro.store.StateStore` journals, and what
        :meth:`from_row` reverses.  All keys are plain JSON types.
        """
        return {
            "device_id": self.device_id,
            "collection_time": self.collection_time,
            "status": self.status.value,
            "measurements": self.measurement_count,
            "freshness": self.freshness,
            "missing_intervals": self.missing_intervals,
            "anomalies": list(self.anomalies),
            "infected_timestamps": self.infected_timestamps,
            "newest_timestamp": self.newest_timestamp,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "VerificationReport":
        """Rebuild a (verdict-free) report from its persisted row."""
        freshness = row.get("freshness")
        return cls(
            device_id=str(row["device_id"]),
            collection_time=float(row["collection_time"]),
            status=DeviceStatus(row["status"]),
            anomalies=[str(item) for item in row.get("anomalies", ())],
            freshness=None if freshness is None else float(freshness),
            missing_intervals=int(row.get("missing_intervals", 0)),
            restored=dict(row))

    def detected_infection(self) -> bool:
        """True when this collection exposed malware presence or tampering."""
        return self.status in (DeviceStatus.INFECTED, DeviceStatus.TAMPERED)

    @property
    def freshness_label(self) -> str:
        """Freshness rendered for humans (``n/a`` for empty collections)."""
        return "n/a" if self.freshness is None else f"{self.freshness:.0f}s"

    def summary(self) -> str:
        """One-line human-readable account of this collection."""
        text = (f"{self.device_id}: {self.status.value}, "
                f"{self.measurement_count} record(s), "
                f"freshness {self.freshness_label}")
        if self.missing_intervals:
            text += f", {self.missing_intervals} missing"
        if self.anomalies:
            text += f" ({'; '.join(self.anomalies)})"
        return text

    def __repr__(self) -> str:
        return (f"VerificationReport(device_id={self.device_id!r}, "
                f"status={self.status.value!r}, "
                f"records={self.measurement_count}, "
                f"anomalies={len(self.anomalies)})")


@dataclass(frozen=True)
class Enrollment:
    """The per-device facts a verification needs: key and healthy states.

    ``last_seen`` is the newest timestamp accepted in an earlier
    collection — records at or before it are treated as redundant
    re-collections rather than schedule gaps (Section 3.1).
    """

    device_id: str
    key: bytes
    healthy_digests: frozenset[bytes]
    last_seen: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("the shared key must be non-empty")

    @classmethod
    def create(cls, device_id: str, key: bytes,
               healthy_digests: Iterable[bytes],
               last_seen: Optional[float] = None) -> "Enrollment":
        """Normalize raw key material into an enrollment record."""
        return cls(device_id=device_id, key=bytes(key),
                   healthy_digests=frozenset(bytes(d)
                                             for d in healthy_digests),
                   last_seen=last_seen)

    def advanced(self, last_seen: float) -> "Enrollment":
        """Copy with an updated newest-seen timestamp."""
        return Enrollment(device_id=self.device_id, key=self.key,
                          healthy_digests=self.healthy_digests,
                          last_seen=last_seen)

    def with_digest(self, digest: bytes) -> "Enrollment":
        """Copy whitelisting one more software state (e.g. an update)."""
        return Enrollment(device_id=self.device_id, key=self.key,
                          healthy_digests=self.healthy_digests |
                          {bytes(digest)},
                          last_seen=self.last_seen)

    def to_row(self) -> Dict[str, object]:
        """Flatten into a stable, JSON-friendly row.

        Byte fields are hex-encoded and the digest set is sorted, so
        equal enrollments always serialize to identical rows — the
        property :class:`repro.store.StateStore` snapshots rely on.
        """
        return {
            "device_id": self.device_id,
            "key": self.key.hex(),
            "healthy_digests": sorted(digest.hex()
                                      for digest in self.healthy_digests),
            "last_seen": self.last_seen,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, object]) -> "Enrollment":
        """Rebuild an enrollment from its persisted row."""
        last_seen = row.get("last_seen")
        return cls(
            device_id=str(row["device_id"]),
            key=bytes.fromhex(str(row["key"])),
            healthy_digests=frozenset(
                bytes.fromhex(str(digest))
                for digest in row.get("healthy_digests", ())),
            last_seen=None if last_seen is None else float(last_seen))


class VerificationCore:
    """Stateless verification of ERASMUS measurement histories.

    ``allowed_missing`` is the Section 5 policy knob: how many expected
    measurements may be missing from a collection (e.g. legitimately
    aborted because of time-critical tasks) before the verifier treats
    the absence as tampering.  The default of zero is the strict policy.
    """

    def __init__(self, config: ErasmusConfig,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0) -> None:
        if not 0 <= schedule_tolerance < 1:
            raise ValueError("schedule tolerance must be in [0, 1)")
        if allowed_missing < 0:
            raise ValueError("allowed_missing must be non-negative")
        self.config = config
        self.schedule_tolerance = schedule_tolerance
        self.allowed_missing = allowed_missing
        self.mac_algorithm = get_mac(config.mac_name)
        self.crypto_backend = resolve_backend(config.crypto_backend)

    # ------------------------------------------------------------------
    # Request authentication material
    # ------------------------------------------------------------------
    def request_tag(self, key: bytes, request_time: float) -> bytes:
        """``MAC_K(t_req)`` for an authenticated ERASMUS+OD request."""
        return self.mac_algorithm.mac(key, encode_timestamp(request_time),
                                      backend=self.crypto_backend)

    # ------------------------------------------------------------------
    # Schedule checks
    # ------------------------------------------------------------------
    def _expected_interval(self) -> float:
        """The schedule spacing gaps are judged against (``U`` if irregular)."""
        if self.config.irregular_upper is not None:
            return self.config.irregular_upper
        return self.config.measurement_interval

    def check_schedule(self, timestamps: List[float],
                       last_seen: Optional[float]) -> tuple[int, List[str]]:
        """Check timestamp spacing against the expected schedule.

        Returns the number of missing measurement intervals and a list of
        anomaly descriptions (duplicates within one response, oversized
        gaps).  Records already seen in an earlier collection are
        ignored for gap purposes — re-collecting them is merely
        redundant (Section 3.1), not an attack.  For irregular schedules
        the upper bound ``U`` plays the role of the expected interval.
        """
        anomalies: List[str] = []
        expected = self._expected_interval()
        allowed_gap = expected * (1 + self.schedule_tolerance)
        ordered = sorted(timestamps)

        duplicates = sum(1 for first, second in zip(ordered, ordered[1:])
                         if second - first <= 1e-9)
        if duplicates:
            anomalies.append(
                f"{duplicates} duplicate timestamp(s) within one collection")

        new_only = ordered
        if last_seen is not None:
            new_only = [timestamp for timestamp in ordered
                        if timestamp > last_seen + 1e-9]
        missing = 0
        previous = last_seen
        for timestamp in new_only:
            if previous is not None:
                gap = timestamp - previous
                if gap > allowed_gap:
                    skipped = int(gap / expected) - 1
                    missing += max(1, skipped)
            previous = timestamp
        return missing, anomalies

    @staticmethod
    def advance_last_seen(report: VerificationReport,
                          last_seen: Optional[float]) -> Optional[float]:
        """The newest-seen timestamp after accepting ``report``."""
        newest = report.newest_timestamp
        return last_seen if newest is None else newest

    def device_judge(self, key: bytes) -> "DeviceJudge":
        """The judge for one device key under this core's policy."""
        return DeviceJudge(self, key)


class DeviceJudge:
    """The one verdict loop: judges one device's collections.

    Every verifier front end turns measurements into verdicts here.
    The MAC construction is resolved once through the core's crypto
    backend with the device key pre-bound, and tags are compared with
    the backend's own constant-time comparison.  Running a judge on the
    ``reference`` backend is the reference path; the cross-backend
    tests pin both backends to identical reports.  Judges are cheap to
    build and safe to reuse across rounds as long as the device keeps
    the same key (re-enrollment must discard the judge).
    """

    __slots__ = ("core", "key", "_mac", "_compare")

    def __init__(self, core: VerificationCore, key: bytes) -> None:
        self.core = core
        self.key = key
        backend = core.crypto_backend
        algorithm = core.mac_algorithm
        try:
            self._mac = backend.mac_function(algorithm.name, key)
        except ValueError:
            # A MAC registered via register_mac() that the backend has
            # no native construction for (e.g. a custom/truncated MAC):
            # fall back to the algorithm's own dispatch, which knows
            # its reference mac_fn.
            self._mac = lambda data: algorithm.mac(key, data,
                                                   backend=backend)
        self._compare = backend.compare_digests

    def _judge(self, enrollment: Enrollment, columns: RecordColumns,
               collection_time: float) -> JudgedRecords:
        """Flag each record: MAC over stamp plus digest, known-good, future."""
        mac, compare = self._mac, self._compare
        digests = enrollment.healthy_digests
        horizon = collection_time + 1e-6
        return JudgedRecords(
            columns,
            authentic=[compare(mac(stamp + digest), tag)
                       for stamp, digest, tag in zip(
                           columns.stamps, columns.digests, columns.tags)],
            # statics: ok(constant-time) — public whitelist membership
            healthy=[digest in digests for digest in columns.digests],
            from_future=[timestamp > horizon
                         for timestamp in columns.timestamps])

    def verdicts(self, enrollment: Enrollment,
                 measurements: Iterable[Measurement],
                 collection_time: float) -> List[MeasurementVerdict]:
        """Judge each measurement: MAC, known-good digest, plausibility."""
        return self._judge(enrollment,
                           RecordColumns.from_measurements(measurements),
                           collection_time).verdicts()

    def verify_measurements(self, enrollment: Enrollment,
                            records: Union[RecordColumns,
                                           Sequence[Measurement]],
                            collection_time: float) -> VerificationReport:
        """Verify one measurement history against the enrollment facts.

        ``records`` is a decoded response's :class:`RecordColumns` or a
        list of :class:`Measurement` (converted to columns once).  No
        verifier state is read or written, so callers own all
        bookkeeping (report history, newest-seen timestamps).  An empty
        history is itself an anomaly: a prover always holds records.
        """
        core = self.core
        report = VerificationReport(device_id=enrollment.device_id,
                                    collection_time=collection_time,
                                    status=DeviceStatus.HEALTHY)
        if not isinstance(records, RecordColumns):
            records = RecordColumns.from_measurements(records)
        if not len(records):
            report.status = DeviceStatus.TAMPERED
            report.anomalies.append("prover returned no measurements")
            return report
        judged = self._judge(enrollment, records, collection_time)
        report._attach(judged)
        timestamps = records.timestamps
        report.missing_intervals, schedule_anomalies = core.check_schedule(
            sorted(timestamps), enrollment.last_seen)
        report.anomalies.extend(schedule_anomalies)
        report.freshness = collection_time - max(timestamps)

        # Stale tail: the newest record should not be older than one
        # (tolerated) measurement interval — otherwise the most recent
        # measurements were deleted or silently skipped.
        expected_interval = core._expected_interval()
        allowed_age = expected_interval * (1 + core.schedule_tolerance)
        if report.freshness > allowed_age:
            report.missing_intervals += max(
                1, int(report.freshness / expected_interval) - 1)

        forged = judged.authentic.count(False)
        future = judged.from_future.count(True)

        if forged or future or schedule_anomalies:
            report.status = DeviceStatus.TAMPERED
            if forged:
                report.anomalies.append(
                    f"{forged} measurement(s) failed MAC verification")
            if future:
                report.anomalies.append(
                    f"{future} measurement(s) are timestamped in the future")
        elif report.infected_timestamps:
            report.status = DeviceStatus.INFECTED
        elif report.missing_intervals > core.allowed_missing:
            # Gaps without other anomalies: measurements were deleted or
            # skipped beyond what the deployment policy tolerates.  The
            # paper treats unexplained absence as self-incriminating.
            report.status = DeviceStatus.TAMPERED
            report.anomalies.append(
                f"{report.missing_intervals} expected measurement(s) missing "
                f"(policy allows {core.allowed_missing})")
        return report

    def verify_ondemand(self, enrollment: Enrollment,
                        request: OnDemandRequest,
                        response: OnDemandResponse,
                        collection_time: float) -> VerificationReport:
        """Verify an ERASMUS+OD response (Figure 4, verifier side).

        In addition to the history checks, the fresh measurement ``M_0``
        must exist and must have been computed at or after the request
        time (otherwise the prover replayed an old record).
        """
        measurements = list(response.measurements)
        if response.fresh is not None:
            measurements = [response.fresh] + measurements
        report = self.verify_measurements(enrollment, measurements,
                                          collection_time)
        if response.fresh is None:
            report.anomalies.append("prover returned no fresh measurement")
            report.status = DeviceStatus.TAMPERED
        elif response.fresh.timestamp + 1e-6 < request.request_time:
            report.anomalies.append(
                "fresh measurement is older than the request")
            report.status = DeviceStatus.TAMPERED
        return report


class BaseVerifier:
    """Shared enrollment store and bookkeeping for verifier front ends.

    Both the legacy single-device :class:`repro.core.ErasmusVerifier`
    and the fleet-scale :class:`repro.fleet.FleetVerifier` subclass
    this: they keep :class:`Enrollment` records per device, advance the
    newest-seen timestamp after every accepted report, and delegate all
    judgement to one cached :class:`DeviceJudge` per device.

    ``store`` is an optional :class:`repro.store.StateStore`: every
    enrollment and every last-seen advance is written through to it, so
    a store-backed verifier can be rebuilt after a restart (see
    :meth:`repro.fleet.FleetVerifier.restore`).  ``None`` keeps the
    historical dict-only behaviour.
    """

    def __init__(self, config: ErasmusConfig,
                 schedule_tolerance: float = 0.25,
                 allowed_missing: int = 0,
                 store: Optional["StateStore"] = None) -> None:
        self.config = config
        self.core = VerificationCore(config,
                                     schedule_tolerance=schedule_tolerance,
                                     allowed_missing=allowed_missing)
        self.store = store
        self._enrollments: Dict[str, Enrollment] = {}
        self._last_collection_time: Dict[str, float] = {}
        # Bumped whenever a device's key or digest whitelist changes (not
        # on last-seen advances); worker pools key their enrollment
        # mirrors on this so re-syncs only happen when material changed.
        self._enrollment_epoch = 0
        # Per-device judges (see DeviceJudge); rebuilt transparently if
        # a re-enrollment replaces a device's key.
        self._judges: Dict[str, DeviceJudge] = {}

    # Policy attributes kept readable for existing callers/tests.
    @property
    def schedule_tolerance(self) -> float:
        return self.core.schedule_tolerance

    @property
    def allowed_missing(self) -> int:
        return self.core.allowed_missing

    @property
    def mac_algorithm(self):
        return self.core.mac_algorithm

    @property
    def crypto_backend(self):
        return self.core.crypto_backend

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, device_id: str, key: bytes,
               healthy_digests: Iterable[bytes]) -> None:
        """Register a prover: its shared key and its known-good states.

        This is the low-level primitive: it *overwrites* any existing
        enrollment (resetting ``last_seen`` and the digest whitelist),
        including in the attached store.  Fleet deployments should use
        :meth:`repro.fleet.FleetVerifier.enroll_device`, which guards
        against accidental re-enrollment.
        """
        self._set_enrollment(Enrollment.create(device_id, key,
                                               healthy_digests))

    def _set_enrollment(self, enrollment: Enrollment) -> None:
        """Install an enrollment and write it through to the store."""
        previous = self._enrollments.get(enrollment.device_id)
        key_changed = previous is not None and not \
            self.crypto_backend.compare_digests(previous.key, enrollment.key)
        if (previous is None or key_changed
                # Whitelist *change detection* over public software-state
                # digest sets, not an authentication decision:
                # statics: ok(constant-time)
                or previous.healthy_digests != enrollment.healthy_digests):
            self._enrollment_epoch += 1
        self._enrollments[enrollment.device_id] = enrollment
        if self.store is not None:
            self.store.save_enrollment(enrollment)

    def is_enrolled(self, device_id: str) -> bool:
        """True when the device has been enrolled."""
        return device_id in self._enrollments

    def healthy_digests(self, device_id: str) -> frozenset[bytes]:
        """The whitelisted software states for one device."""
        return self._enrollment_for(device_id).healthy_digests

    def last_seen(self, device_id: str) -> Optional[float]:
        """Newest measurement timestamp accepted from one device."""
        return self._enrollment_for(device_id).last_seen

    def add_healthy_digest(self, device_id: str, digest: bytes) -> None:
        """Whitelist an additional software state (e.g. after an update)."""
        self._set_enrollment(self._enrollment_for(device_id)
                             .with_digest(digest))

    def _enrollment_for(self, device_id: str) -> Enrollment:
        try:
            return self._enrollments[device_id]
        except KeyError as exc:
            raise KeyError(f"device {device_id!r} is not enrolled") from exc

    def _judge_for(self, enrollment: Enrollment) -> DeviceJudge:
        """The device's cached judge, rebuilt on key change."""
        judge = self._judges.get(enrollment.device_id)
        if judge is None or not self.crypto_backend.compare_digests(
                judge.key, enrollment.key):
            judge = self.core.device_judge(enrollment.key)
            self._judges[enrollment.device_id] = judge
        return judge

    # ------------------------------------------------------------------
    # Requests and bookkeeping
    # ------------------------------------------------------------------
    def create_collect_request(self, k: Optional[int] = None) -> CollectRequest:
        """Build a plain collection request (no authentication needed)."""
        if k is None:
            k = self.config.measurements_per_collection
        return CollectRequest(k=k)

    def verify_collection(self, device_id: str, response: CollectResponse,
                          collection_time: float) -> VerificationReport:
        """Verify a plain ERASMUS collection (Figure 2, verifier side)."""
        enrollment = self._enrollment_for(device_id)
        report = self._judge_for(enrollment).verify_measurements(
            enrollment, response.columns, collection_time)
        return self._commit(report)

    def _commit(self, report: VerificationReport) -> VerificationReport:
        """Accept a finished report; subclasses add their own recording."""
        self._advance_bookkeeping(report)
        return report

    def _advance_bookkeeping(self, report: VerificationReport) -> None:
        """Record the collection time and newest-seen timestamp.

        Only collections that actually carried measurements advance the
        per-device state — an empty or unanswered round proves nothing
        about which records already reached the verifier.
        """
        if not report.measurement_count:
            return
        enrollment = self._enrollments[report.device_id]
        advanced = self.core.advance_last_seen(report, enrollment.last_seen)
        if advanced is not None:
            self._set_enrollment(enrollment.advanced(advanced))
        self._last_collection_time[report.device_id] = report.collection_time

    def last_collection_time(self, device_id: str) -> Optional[float]:
        """Time of the most recent collection that carried measurements."""
        return self._last_collection_time.get(device_id)
