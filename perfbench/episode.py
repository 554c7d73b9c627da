"""One benchmark episode in a fresh interpreter.

``run.py`` starts this script once per episode, so every episode's RSS
figures start from a clean process.  It prints one JSON object as the
last line of its standard output.  Process-mode workers are spawned
and re-import this file as ``__mp_main__``, so nothing below the main
guard may run at import.

Usage::

    python3 perfbench/episode.py --workload inproc-2k --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout (JSONL stores, span files).
OUT_DIR = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Episode

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    episode = Episode(workload, args.seed, OUT_DIR)
    try:
        if tracer is not None:
            with tracer.setup_span():
                setup_s = episode.provision()
            tracer.attach(episode.fleet)
        else:
            setup_s = episode.provision()
        result = episode.run(
            phase=tracer.phase if tracer is not None else None)
    finally:
        episode.close()
    result["setup_s"] = setup_s
    if tracer is not None:
        tracer.uninstall()
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.csv")
        tracer.recorder.write_csv(spans_path)
        result["layers"] = tracer.layer_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
