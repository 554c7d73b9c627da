"""Resident-set-size probes for the running process (Linux)."""

from __future__ import annotations

import resource


def current_rss_kib() -> int:
    """Resident set size now, in KiB (``VmRSS``)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS missing from /proc/self/status")


def peak_rss_kib() -> int:
    """Peak resident set size of this process so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
