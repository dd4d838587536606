"""Tests for ``scripts/check_perf_regression.py``: a skipped check is visible.

The ``fleet-processes`` gate cannot compare process-scaling ratios, nor
hold its absolute floor, on a host with fewer CPUs than processes.  Such a
skip must never read as a pass: every skipped check prints a GitHub
``::warning::`` annotation and the run ends on a ``SKIPPED`` line.  For the
same reason ``--promote`` copies a fresh artifact over its baseline only
after a plain pass, never after a failure or a skip.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_perf_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module through sys.modules while executing it.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _rows(available_cpus, speedups=(1.0, 0.8, 0.7)):
    return {
        "rows": [
            {
                "processes": processes,
                "num_models": 16,
                "groups_per_tick": 164864,
                "speedup_vs_single": speedup,
                "available_cpus": available_cpus,
                "weight_bytes_copied_per_tick": 0.0,
                "oracle_match": True,
            }
            for processes, speedup in zip((1, 2, 4), speedups)
        ]
    }


def _run(gate, tmp_path, capsys, baseline, fresh):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    status = gate.main(
        [
            "--kind", "fleet-processes",
            "--baseline", str(baseline_path),
            "--fresh", str(fresh_path),
            "--tolerance", "0.5",
            "--min-speedup", "2.5",
        ]
    )
    return status, capsys.readouterr().out.strip().splitlines()


def test_too_few_cpus_reports_a_visible_skip(gate, tmp_path, capsys):
    status, lines = _run(gate, tmp_path, capsys, _rows(1), _rows(1))
    assert status == 0
    warnings = [line for line in lines if line.startswith("::warning")]
    # Both multi-process rows' ratios and the absolute floor were skipped.
    assert len(warnings) == 3
    assert any("processes=2" in line for line in warnings)
    assert any("processes=4" in line for line in warnings)
    assert any("acceptance floor skipped" in line for line in warnings)
    assert lines[-1].startswith("SKIPPED")
    assert not any(line.startswith("regression gate passed") for line in lines)


def test_a_host_with_the_cores_gets_a_real_verdict(gate, tmp_path, capsys):
    status, lines = _run(
        gate, tmp_path, capsys, _rows(8, (1.0, 1.8, 3.0)), _rows(8, (1.0, 1.7, 2.9))
    )
    assert status == 0
    assert not any(line.startswith("::warning") for line in lines)
    assert lines[-1].startswith("regression gate passed")


def test_a_failure_still_fails_when_other_checks_were_skipped(gate, tmp_path, capsys):
    fresh = _rows(1)
    fresh["rows"][2]["oracle_match"] = False
    status, lines = _run(gate, tmp_path, capsys, _rows(1), fresh)
    assert status == 1
    assert any(line.startswith("::warning") for line in lines)
    assert any("REGRESSION GATE FAILED" in line for line in lines)


def _promote(gate, tmp_path, capsys, fresh):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_text = json.dumps(_rows(8, (1.0, 1.8, 3.0)))
    baseline_path.write_text(baseline_text)
    fresh_path.write_text(json.dumps(fresh))
    status = gate.main(
        [
            "--kind", "fleet-processes",
            "--baseline", str(baseline_path),
            "--fresh", str(fresh_path),
            "--tolerance", "0.5",
            "--min-speedup", "2.5",
            "--promote",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return status, lines, baseline_text, baseline_path.read_text(), fresh_path.read_text()


def test_promote_copies_fresh_over_baseline_on_a_pass(gate, tmp_path, capsys):
    status, lines, _, baseline_after, fresh_text = _promote(
        gate, tmp_path, capsys, _rows(8, (1.0, 1.7, 2.9))
    )
    assert status == 0
    assert baseline_after == fresh_text
    assert lines[-1].startswith("promoted")
    assert "baseline.json" in lines[-1]


def test_promote_refuses_after_a_failure(gate, tmp_path, capsys):
    fresh = _rows(8, (1.0, 1.7, 2.9))
    fresh["rows"][1]["oracle_match"] = False
    status, lines, baseline_before, baseline_after, _ = _promote(gate, tmp_path, capsys, fresh)
    assert status == 1
    assert baseline_after == baseline_before
    assert any("REGRESSION GATE FAILED" in line for line in lines)
    assert lines[-1].startswith("not promoted")


def test_promote_refuses_a_skipped_outcome(gate, tmp_path, capsys):
    status, lines, baseline_before, baseline_after, _ = _promote(gate, tmp_path, capsys, _rows(1))
    assert status == 1
    assert baseline_after == baseline_before
    assert any(line.startswith("SKIPPED") for line in lines)
    assert lines[-1].startswith("not promoted")


def test_fresh_artifact_carries_the_host_stamp(gate, tmp_path, monkeypatch):
    """A timing artifact names its host; a deterministic one stays bare."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_EXPERIMENT_ROUNDS", "3")
    conftest = SCRIPT.parents[1] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", conftest)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.emit("timed", [{"mode": "a", "ms": 1.25}], filename="timed.json")
    bench.emit("campaign", [{"mode": "a"}], filename="campaign.json", deterministic=True)
    host = json.loads((tmp_path / "timed.json").read_text())["metadata"]["host"]
    assert host["available_cpus"] >= 1
    assert host["cpu_model"] and host["numpy"] and host["python"]
    assert "metadata" not in json.loads((tmp_path / "campaign.json").read_text())
    # The gate reads only the rows.
    assert gate.load_rows(tmp_path / "timed.json", "mode") == {"a": {"mode": "a", "ms": 1.25}}
