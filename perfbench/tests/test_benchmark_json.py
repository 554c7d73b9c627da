"""BENCHMARK.json, the code and METRICS.md name the same things."""

import json
import os
import re

from layers import PER_LAYER
from run import END_TO_END
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as stream:
        return stream.read()


def test_benchmark_json_matches_the_code():
    spec = json.loads(load("BENCHMARK.json"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


def test_benchmark_json_respects_the_format():
    spec = json.loads(load("BENCHMARK.json"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_metrics_md_maps_every_metric_and_workload():
    doc = load(os.path.join("perfbench", "METRICS.md"))
    for name, _unit, _better in PER_LAYER:
        assert f"| `{name}` |" in doc, name
    for name, _unit in END_TO_END:
        assert f"| `{name}` |" in doc, name
    for name, workload in WORKLOADS.items():
        assert f"| `{name}` | {workload.devices:,} | {workload.rounds} |" \
            in doc, name
