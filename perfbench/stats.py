"""The benchmark's arithmetic: throughput, RSS growth and medians.

Kept apart from run.py and episode.py so the formulas can be tested on
their own.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def rate(work: float, seconds: Sequence[float]) -> float:
    """Work per second over summed wall time.

    A mean, not a median of per-round rates: a round slowed by a
    garbage-collection pause counts with its full length.
    """
    total = sum(seconds)
    if total <= 0:
        raise ValueError("no measured time")
    return work / total


def rss_growth_kib_per_dev_round(rss_kib: Sequence[int],
                                 devices: int) -> float:
    """RSS after the last round minus RSS after round 1, per device-round.

    ``rss_kib[i]`` is the resident set size after round ``i + 1``; the
    device-rounds in between are ``devices * (len(rss_kib) - 1)``.
    """
    if len(rss_kib) < 2:
        raise ValueError("RSS growth needs at least two rounds")
    if devices <= 0:
        raise ValueError("RSS growth needs at least one device")
    return (rss_kib[-1] - rss_kib[0]) / (devices * (len(rss_kib) - 1))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)
