"""Benchmark workloads and the closed-loop fleet episode that runs them.

An *episode* provisions one fleet through the public API, then drives
``rounds`` collection rounds as a closed loop: the provers self-measure
up to ``r * T_C`` (``Fleet.run_until``), then one ``collect_all`` round
runs, and the next round starts only after it returned.  Every report
is checked against the ground-truth oracle before any figure is kept.

No ``gc.collect()`` runs between rounds: a verifier in the field pays
its generation-2 pauses, and those grow with retained history.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from oracle import GroundTruth
from rss import current_rss_kib, peak_rss_kib

#: Deployment shared by every workload: SMART+ provers with a 512 B
#: application, T_M = 60 s, T_C = 600 s and n = 16 slots, so k = 10.
MEASUREMENT_INTERVAL = 60.0
COLLECTION_INTERVAL = 600.0
BUFFER_SLOTS = 16
APPLICATION_SIZE = 512
FIRMWARE = b"perfbench-pump-firmware-v1" + bytes(200)
MALWARE = b"perfbench-resident-implant" + bytes(210)
#: Share of the fleet that receives the malware image.
INFECTED_SHARE = 0.02
#: Rounds at or after this one see the malware: the image is loaded
#: half-way through the collection interval that precedes it.
INFECTION_ROUND = 2


@dataclass(frozen=True)
class Workload:
    """One fleet shape: size, transport, store and verifier layout."""

    name: str
    devices: int
    transport: str
    rounds: int
    store: str = "memory"
    shards: Optional[int] = None
    worker_mode: str = "loop"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="inproc-2k", devices=2000, transport="in-process", rounds=5),
    Workload(
        name="simnet-jsonl-500", devices=500,
        transport="simulated-network", store="jsonl", rounds=24),
    Workload(
        name="process-socket-2k", devices=2000, transport="socket",
        rounds=8, shards=2, worker_mode="process"),
)}


def _no_phase(_round_no: int, _name: str):
    return nullcontext()


def master_secret(seed: int) -> bytes:
    """The fleet master secret a seed picks."""
    return hashlib.sha256(b"perfbench-master-secret/%d" % seed).digest()


def infected_ids(device_ids: List[str], seed: int) -> List[str]:
    """The devices a seed picks for the malware image (sorted)."""
    count = max(1, round(len(device_ids) * INFECTED_SHARE))
    return sorted(random.Random(seed).sample(device_ids, count))


class Episode:
    """One provisioned fleet driven through the workload's rounds."""

    def __init__(self, workload: Workload, seed: int, scratch_root: str
                 ) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch_root = scratch_root
        self.fleet = None
        self._store_dir: Optional[str] = None

    def provision(self) -> float:
        """Provision the fleet (and warm process workers); returns seconds."""
        from repro.fleet import DeviceProfile, Fleet
        from repro.store import JsonlStore

        workload = self.workload
        profile = DeviceProfile.smartplus(
            firmware=FIRMWARE, application_size=APPLICATION_SIZE,
            measurement_interval=MEASUREMENT_INTERVAL,
            collection_interval=COLLECTION_INTERVAL,
            buffer_slots=BUFFER_SLOTS)
        store = None
        if workload.store == "jsonl":
            os.makedirs(self.scratch_root, exist_ok=True)
            self._store_dir = tempfile.mkdtemp(prefix="jsonl-",
                                               dir=self.scratch_root)
            store = JsonlStore(self._store_dir)
        started = time.perf_counter()
        self.fleet = Fleet.provision(
            profile, workload.devices, master_secret=master_secret(self.seed),
            transport=workload.transport, store=store,
            shards=workload.shards, worker_mode=workload.worker_mode)
        if workload.worker_mode == "process":
            self.fleet.verifier.warm_up()
        return time.perf_counter() - started

    def run(self, phase=None) -> Dict[str, object]:
        """Drive every round; returns the raw per-round figures.

        ``phase(round_no, name)``, when given, returns a context manager
        entered around each round's ``"simulate"`` and ``"collect"``
        step (the traced run opens its round spans there).
        """
        if phase is None:
            phase = _no_phase
        fleet = self.fleet
        ids = fleet.device_ids()
        infected = infected_ids(ids, self.seed)
        truth = GroundTruth(ids, infected, INFECTION_ROUND)
        simulate_s: List[float] = []
        collect_s: List[float] = []
        rss_kib: List[int] = []
        lost = stale = 0
        perf = time.perf_counter
        for round_no in range(1, self.workload.rounds + 1):
            horizon = round_no * COLLECTION_INTERVAL
            with phase(round_no, "simulate"):
                started = perf()
                if round_no == INFECTION_ROUND:
                    fleet.run_until(horizon - COLLECTION_INTERVAL / 2)
                    for device_id in infected:
                        fleet.device(device_id).load_application(MALWARE)
                fleet.run_until(horizon)
                simulate_s.append(perf() - started)
            with phase(round_no, "collect"):
                started = perf()
                reports = fleet.collect_all()
                collect_s.append(perf() - started)
            truth.check_round(round_no, reports, reports.stats)
            lost += reports.stats.responses_lost
            stale += reports.stats.stale_responses_rejected
            rss_kib.append(current_rss_kib())
        return {"simulate_s": simulate_s, "collect_s": collect_s,
                "rss_kib": rss_kib, "peak_rss_kib": peak_rss_kib(),
                "devices": len(ids), "rounds": self.workload.rounds,
                "responses_lost": lost, "stale_rejected": stale,
                "attempted": truth.attempted, "failed": truth.failed,
                "problems": truth.problems[:10]}

    def close(self) -> None:
        """Stop sockets and worker processes, delete the JSONL directory."""
        try:
            if self.fleet is not None:
                try:
                    self.fleet.close()
                finally:
                    close_transport = getattr(self.fleet.transport, "close",
                                              None)
                    if close_transport is not None:
                        close_transport()
        finally:
            if self._store_dir is not None:
                shutil.rmtree(self._store_dir, ignore_errors=True)
