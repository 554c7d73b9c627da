"""Fleet-round benchmark of the ERASMUS verifier stack.

Drives the public fleet API (``Fleet.provision``, then ``run_until`` and
``collect_all`` per round) as a closed loop on one workload, checks
every verdict against ground truth, and prints each metric by name and
unit.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced episodes and reports the per-layer metrics of the
traced ones plus the tracing overhead (traced minus untraced).

Each episode runs in its own interpreter (``episode.py``), so its RSS
figures start from a fresh process.  Episodes repeat, each a fixed
amount of work, until the next one would end past ``--seconds``.

Usage::

    python3 perfbench/run.py --workload inproc-2k --seed 1 --seconds 30 \\
        --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

from layers import PER_LAYER
from stats import median, rate, rss_growth_kib_per_dev_round
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EPISODE = os.path.join(HERE, "episode.py")
#: Present only in a checkout that holds the program's sources.
SOURCE_MARKER = os.path.join(ROOT, "src", "repro", "fleet", "__init__.py")
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("collect_s_p50", "s"),
    ("collect_dev_per_s", "dev-round/s"),
    ("simulate_dev_rounds_per_s", "dev-round/s"),
    ("peak_rss_mib", "MiB"),
    ("rss_growth_kib_per_dev_round", "KiB/dev-round"),
)


class EpisodeFailed(RuntimeError):
    """An episode exited non-zero or printed no result."""


def run_episode(workload: str, seed: int, trace: bool,
                timeout: float) -> Dict[str, object]:
    """Run one episode interpreter and return its JSON result."""
    try:
        completed = subprocess.run(
            [sys.executable, EPISODE, "--workload", workload,
             "--seed", str(seed), "--trace", "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise EpisodeFailed(f"episode exceeded {timeout:.0f} s") from exc
    if completed.returncode != 0:
        raise EpisodeFailed(
            f"episode exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise EpisodeFailed(f"episode printed no result:\n{completed.stderr}")
    return json.loads(lines[-1])


def end_to_end(episodes: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end metrics over a run's untraced episodes."""
    collect = [s for ep in episodes for s in ep["collect_s"]]
    simulate = [s for ep in episodes for s in ep["simulate_s"]]
    device_rounds = sum(ep["devices"] * ep["rounds"] for ep in episodes)
    return {
        "setup_s": median([ep["setup_s"] for ep in episodes]),
        "collect_s_p50": median(collect),
        "collect_dev_per_s": rate(device_rounds, collect),
        "simulate_dev_rounds_per_s": rate(device_rounds, simulate),
        "peak_rss_mib": median([ep["peak_rss_kib"] for ep in episodes])
        / 1024,
        "rss_growth_kib_per_dev_round": median([
            rss_growth_kib_per_dev_round(ep["rss_kib"], ep["devices"])
            for ep in episodes]),
    }


def per_layer(plain: List[Dict[str, object]],
              traced: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer metrics: the traced episodes' mean, plus the overhead."""
    values = {}
    for name, _unit, _better in PER_LAYER:
        if name != "tracing.overhead_frac":
            values[name] = sum(ep["layers"][name] for ep in traced) \
                / len(traced)

    def measured(episodes):
        return sum(sum(ep["simulate_s"]) + sum(ep["collect_s"])
                   for ep in episodes)

    values["tracing.overhead_frac"] = \
        (measured(traced) - measured(plain)) / measured(plain)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(SOURCE_MARKER):
        print(f"perfbench: {SOURCE_MARKER} is missing; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    started = time.perf_counter()
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    unit_s: List[float] = []
    try:
        while True:
            unit_started = time.perf_counter()
            for trace in ((False, True) if args.trace else (False,)):
                remaining = RUN_LIMIT_S - (time.perf_counter() - started)
                result = run_episode(args.workload, args.seed, trace,
                                     timeout=remaining)
                (traced if trace else plain).append(result)
            unit_s.append(time.perf_counter() - unit_started)
            elapsed = time.perf_counter() - started
            if elapsed + median(unit_s) > args.seconds:
                break
    except EpisodeFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    episodes = plain + traced
    attempted = sum(ep["attempted"] for ep in episodes)
    failed = sum(ep["failed"] for ep in episodes)
    for ep in episodes:
        for problem in ep["problems"]:
            print(f"oracle: {problem}", file=sys.stderr)

    e2e = end_to_end(plain)
    units = dict(END_TO_END)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(plain)} untraced and {len(traced)} traced episodes, "
          f"{time.perf_counter() - started:.1f} s")
    for name, unit in END_TO_END:
        print(f"  {name:32s} {e2e[name]:14.6g} {unit}")
    print(f"  {'failed_frac':32s} {failed / attempted:14.6g} fraction")
    if args.trace:
        values = per_layer(plain, traced)
        units = {name: unit for name, unit, _better in PER_LAYER}
        for name, _unit, _better in PER_LAYER:
            print(f"  {name:44s} {values[name]:14.6g} {units[name]}")
    else:
        values = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
