"""Golden byte-identity of the device-side measurement stream.

A seeded SMART+ fleet on an irregular (CSPRNG-driven) schedule runs
five collection intervals with no collection in between: some devices
have a critical task that aborts measurements, and one device loads a
new application image half-way through.  Every attempt the
``measurement_listeners`` channel observes -- ``(device_id, time,
timestamp, digest, tag)``, aborted attempts included -- is folded into
one SHA-256.  The expected digests are pinned constants, so any change
to the simulation engine, the scheduler's CSPRNG stream, the memory
reads, the hash/MAC binding or the abort model that alters a single
output byte fails here.  The 20-device fleet has the same digest on
both crypto backends.
"""

import hashlib

import pytest

from repro.core import ScheduleKind
from repro.fleet import DeviceProfile, Fleet

ROUNDS = 5
COLLECTION_INTERVAL = 600.0
#: Device index that loads a new image at the middle of round 3.
UPDATED_DEVICE = 17
#: Every 25th device (from index 3) runs a critical task for two
#: seconds out of every seven, aborting measurements that land there.
BUSY_STRIDE, BUSY_OFFSET = 25, 3

GOLDEN = {
    ("accelerated", 200):
        "18ed967df81b0a7765eb79ddbad9b8b089e26568a13c0fd5b778464f3e409524",
    ("accelerated", 20):
        "ff853235f9fbee4be54baeb383be9275fa85b18765fd2e94d3b48ec6e9a9caa2",
    ("reference", 20):
        "ff853235f9fbee4be54baeb383be9275fa85b18765fd2e94d3b48ec6e9a9caa2",
}


def _critical_task(time: float) -> bool:
    return int(time) % 7 < 2


def measurement_stream_digest(backend: str, devices: int) -> tuple[str, int]:
    """SHA-256 over every observed attempt, and the number aborted."""
    profile = DeviceProfile.smartplus(
        firmware=b"golden-firmware-v1" + bytes(100), application_size=256,
        measurement_interval=60.0, collection_interval=COLLECTION_INTERVAL,
        buffer_slots=16, schedule=ScheduleKind.IRREGULAR,
        crypto_backend=backend)
    fleet = Fleet.provision(profile, devices,
                            master_secret=b"golden-master-secret")
    stream = hashlib.sha256()

    def observe(device_id, time, measurement):
        stream.update(f"{device_id}|{time!r}|".encode())
        if measurement is None:
            stream.update(b"aborted;")
        else:
            stream.update(f"{measurement.timestamp!r}|".encode()
                          + measurement.digest + measurement.tag + b";")

    for index, device in enumerate(fleet.devices()):
        device.prover.measurement_listeners.append(observe)
        if index % BUSY_STRIDE == BUSY_OFFSET:
            device.prover.critical_task_active = _critical_task
    ids = fleet.device_ids()
    for round_no in range(1, ROUNDS + 1):
        horizon = round_no * COLLECTION_INTERVAL
        if round_no == 3:
            fleet.run_until(horizon - COLLECTION_INTERVAL / 2)
            fleet.device(ids[UPDATED_DEVICE]).load_application(
                b"updated-image-v2" + bytes(50))
        fleet.run_until(horizon)
    aborted = sum(device.prover.measurements_aborted
                  for device in fleet.devices())
    return stream.hexdigest(), aborted


@pytest.mark.parametrize(("backend", "devices"), sorted(GOLDEN))
def test_measurement_stream_is_byte_identical(backend, devices):
    digest, aborted = measurement_stream_digest(backend, devices)
    assert aborted > 0
    assert digest == GOLDEN[(backend, devices)]
