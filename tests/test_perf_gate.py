"""Tests for ``scripts/check_perf_regression.py``: pass, fail, promote.

The gate judges a fresh artifact against its committed baseline and ends
on either the pass line or ``REGRESSION GATE FAILED``.  ``--promote``
copies a fresh artifact over its baseline only after a pass, never after
a failure.
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


def _rows(speedups=(0.9, 1.3, 2.4)):
    """A ``--kind fleet`` artifact (``results/fleet_throughput.json`` shape)."""
    return {
        "rows": [
            {
                "num_models": num_models,
                "groups_per_tick": 68 * num_models,
                "speedup": speedup,
            }
            for num_models, speedup in zip((2, 4, 16), speedups)
        ]
    }


def _gate_args(tmp_path, baseline, fresh):
    baseline_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    baseline_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    return [
        "--kind", "fleet",
        "--baseline", str(baseline_path),
        "--fresh", str(fresh_path),
        "--tolerance", "0.5",
        "--min-speedup", "2.0",
    ]


def _run(gate, tmp_path, capsys, baseline, fresh):
    status = gate.main(_gate_args(tmp_path, baseline, fresh))
    return status, capsys.readouterr().out.strip().splitlines()


def test_a_passing_run_gets_a_real_verdict(gate, tmp_path, capsys):
    status, lines = _run(gate, tmp_path, capsys, _rows(), _rows((0.8, 1.2, 2.3)))
    assert status == 0
    assert any(line.startswith("acceptance floor: best fleet speedup") for line in lines)
    assert lines[-1].startswith("regression gate passed")


def test_a_regression_fails_the_gate(gate, tmp_path, capsys):
    # The 4-model ratio halves past the tolerance and the best row drops
    # under the absolute floor: both are reported.
    status, lines = _run(gate, tmp_path, capsys, _rows(), _rows((0.8, 0.6, 1.9)))
    assert status == 1
    assert any("num_models=4: speedup fell to 0.60x" in line for line in lines)
    assert any("below the 2.00x acceptance floor" in line for line in lines)
    assert any("REGRESSION GATE FAILED" in line for line in lines)


def _promote(gate, tmp_path, capsys, fresh):
    baseline_text = json.dumps(_rows())
    args = _gate_args(tmp_path, _rows(), fresh)
    status = gate.main(args + ["--promote"])
    lines = capsys.readouterr().out.strip().splitlines()
    baseline_after = (tmp_path / "baseline.json").read_text()
    fresh_text = (tmp_path / "fresh.json").read_text()
    return status, lines, baseline_text, baseline_after, fresh_text


def test_promote_copies_fresh_over_baseline_on_a_pass(gate, tmp_path, capsys):
    status, lines, _, baseline_after, fresh_text = _promote(
        gate, tmp_path, capsys, _rows((0.8, 1.2, 2.3))
    )
    assert status == 0
    assert baseline_after == fresh_text
    assert lines[-1].startswith("promoted")
    assert "baseline.json" in lines[-1]


def test_promote_refuses_after_a_failure(gate, tmp_path, capsys):
    status, lines, baseline_before, baseline_after, _ = _promote(
        gate, tmp_path, capsys, _rows((0.8, 1.2, 1.5))
    )
    assert status == 1
    assert baseline_after == baseline_before
    assert any("REGRESSION GATE FAILED" in line for line in lines)
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
