"""The ``python -m repro.statics`` front end: exit codes and outputs."""

import json

from repro.statics.cli import main

from tests.statics.helpers import write_tree

DIRTY = {"pkg/clock.py": "import time\nstamp = time.time()\n"}
CLEAN = {"pkg/ok.py": "value = 1\n"}


def run(tmp_path, *argv, monkeypatch=None, capsys=None):
    return main([str(tmp_path / "pkg"), *argv])


def test_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, CLEAN)
    assert run(tmp_path) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_lint_lines(tmp_path, capsys):
    write_tree(tmp_path, DIRTY)
    assert run(tmp_path) == 1
    out = capsys.readouterr().out
    assert "determinism error" in out
    assert "clock.py:2:" in out


def test_json_output_to_file(tmp_path):
    write_tree(tmp_path, DIRTY)
    report = tmp_path / "report.json"
    assert run(tmp_path, "--format", "json",
               "--output", str(report)) == 1
    payload = json.loads(report.read_bytes())
    assert payload["tool"] == "repro.statics"
    assert [row["rule"] for row in payload["findings"]] == ["determinism"]


def test_select_restricts_the_rule_set(tmp_path):
    write_tree(tmp_path, DIRTY)
    assert run(tmp_path, "--select", "constant-time") == 0
    assert run(tmp_path, "--select", "determinism") == 1


def test_unknown_select_is_a_usage_error(tmp_path, capsys):
    assert main(["--select", "no-such-rule", str(tmp_path)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules_prints_the_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("constant-time", "determinism", "exact-fraction",
                 "lock-discipline", "codec", "obs-seam", "crypto-seam"):
        assert f"{rule}:" in out
    assert "invariant:" in out


def test_write_baseline_then_gate_is_clean(tmp_path, capsys):
    write_tree(tmp_path, DIRTY)
    baseline = tmp_path / "statics-baseline.json"
    assert run(tmp_path, "--write-baseline", str(baseline),
               "--justification", "pinned by the cli test") == 0
    assert baseline.exists()
    # With the baseline applied the same tree gates clean ...
    assert run(tmp_path, "--baseline", str(baseline)) == 0
    capsys.readouterr()
    # ... and --no-baseline still shows everything.
    assert run(tmp_path, "--no-baseline",
               "--baseline", str(baseline)) == 1


def test_malformed_baseline_is_a_usage_error(tmp_path, capsys):
    write_tree(tmp_path, CLEAN)
    bad = tmp_path / "statics-baseline.json"
    bad.write_text('{"version": 1, "entries": [{"rule": "codec", '
                   '"path": "a.py", "message": "m"}]}', encoding="utf-8")
    assert run(tmp_path, "--baseline", str(bad)) == 2
    assert "justification" in capsys.readouterr().err
