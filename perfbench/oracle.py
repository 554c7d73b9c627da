"""Ground truth for every device-round a benchmark episode collects.

The seed fixes which devices get the malware image and the round it
first shows in.  From then on each of those devices must be judged
``INFECTED`` and every other device ``HEALTHY``; before it, all are
``HEALTHY``.  A report that is missing, duplicated, unexpected or
carries another status fails its device-round, as does every response
the round's :class:`~repro.fleet.sinks.RoundStats` counts as lost or
stale.  No figure is reported from an episode whose outputs were not
checked here.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


class GroundTruth:
    """Expected status per device-round, and the running failure count."""

    def __init__(self, device_ids: Sequence[str], infected: Iterable[str],
                 infection_round: int) -> None:
        self.device_ids = list(device_ids)
        self._known = frozenset(self.device_ids)
        self.infected = frozenset(infected)
        self.infection_round = infection_round
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def expected(self, round_no: int, device_id: str) -> str:
        """The status value the verifier must report."""
        if round_no >= self.infection_round and device_id in self.infected:
            return "infected"
        return "healthy"

    def check_round(self, round_no: int, reports, stats) -> int:
        """Count the round's failed device-rounds; returns that count."""
        seen = {}
        extra = 0
        for report in reports:
            if report.device_id in seen or \
                    report.device_id not in self._known:
                extra += 1
                continue
            seen[report.device_id] = report.status.value
        failed_ids = [device_id for device_id in self.device_ids
                      if seen.get(device_id)
                      != self.expected(round_no, device_id)]
        lost = stats.responses_lost
        stale = stats.stale_responses_rejected
        # A lost response also yields a NO_DATA report, which already
        # failed above; count the larger of the two views once.
        failed = max(len(failed_ids), lost) + extra + stale
        failed = min(failed, len(self.device_ids))
        if failed:
            self.problems.append(
                f"round {round_no}: {len(failed_ids)} wrong or missing "
                f"(first {failed_ids[:3]}), {extra} unexpected, "
                f"{lost} lost, {stale} stale")
        self.attempted += len(self.device_ids)
        self.failed += failed
        return failed
