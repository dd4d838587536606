"""Tests for ``scripts/check_perf_regression.py``: pass, fail, promote.

The gate judges fresh artifacts against the committed baselines of the
same names and ends on either the pass line or ``REGRESSION GATE
FAILED``.  ``--promote`` copies fresh artifacts over their baselines only
after a pass, and never from a host with fewer CPUs than the baseline's.
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


def _fleet(speedups=(0.9, 1.3, 2.4), cpus=None, groups=68):
    """A ``fleet_throughput.json`` artifact, optionally host-stamped."""
    payload = {
        "rows": [
            {
                "num_models": num_models,
                "groups_per_tick": groups * num_models,
                "speedup": speedup,
            }
            for num_models, speedup in zip((2, 4, 16), speedups)
        ]
    }
    if cpus is not None:
        payload["metadata"] = {"host": {"available_cpus": cpus}}
    return payload


def _campaign(p99=3.0):
    """A ``campaign_sla.json`` artifact (deterministic rows)."""
    row = {"case": "burst:model-0", "missed": 0, "p99_detection_ticks": p99}
    return {"rows": [row]}


def _run(gate, tmp_path, capsys, artifacts, promote=False):
    """Gate ``{name: (baseline, fresh)}``; returns status, output lines, texts."""
    fresh_paths = []
    for directory in ("baseline", "fresh"):
        (tmp_path / directory).mkdir(exist_ok=True)
    for name, (baseline, fresh) in artifacts.items():
        (tmp_path / "baseline" / f"{name}.json").write_text(json.dumps(baseline))
        fresh_paths.append(tmp_path / "fresh" / f"{name}.json")
        fresh_paths[-1].write_text(json.dumps(fresh))
    args = [str(path) for path in fresh_paths]
    args += ["--baseline-dir", str(tmp_path / "baseline")]
    status = gate.main(args + (["--promote"] if promote else []))
    lines = capsys.readouterr().out.strip().splitlines()
    baselines = {
        name: (tmp_path / "baseline" / f"{name}.json").read_text() for name in artifacts
    }
    return status, lines, baselines


def test_a_passing_run_gets_a_real_verdict(gate, tmp_path, capsys):
    artifacts = {
        "fleet_throughput": (_fleet(), _fleet((0.8, 1.2, 2.3))),
        "campaign_sla": (_campaign(), _campaign()),
    }
    status, lines, _ = _run(gate, tmp_path, capsys, artifacts)
    assert status == 0
    assert "fleet_throughput num_models=16: speedup 2.30x (baseline 2.40x)" in lines
    assert "campaign_sla: 1 rows compared with the baseline" in lines
    assert lines[-1].startswith("regression gate passed")


def test_a_regression_fails_the_gate(gate, tmp_path, capsys):
    # The 4-model ratio halves past the floor; nothing else moved.
    artifacts = {"fleet_throughput": (_fleet(), _fleet((0.9, 0.6, 2.4)))}
    status, lines, _ = _run(gate, tmp_path, capsys, artifacts)
    assert status == 1
    assert any("num_models=4: speedup fell to 0.6 " in line for line in lines)
    assert "REGRESSION GATE FAILED:" in lines
    assert len([line for line in lines if line.startswith("  - ")]) == 1


@pytest.mark.parametrize(
    "name, baseline, fresh, expected",
    [
        ("fleet_throughput", _fleet(), _fleet(groups=64), "groups_per_tick changed"),
        ("fleet_throughput", _fleet(), {"rows": _fleet()["rows"][:2]}, "values differ"),
        ("campaign_sla", _campaign(), _campaign(p99=4.0), "p99_detection_ticks"),
        ("scan_overview", _fleet(), _fleet(), "scan_overview: no gate declared"),
    ],
    ids=["structural-field", "missing-key", "campaign-row", "undeclared-artifact"],
)
def test_a_changed_artifact_fails_the_gate(
    gate, tmp_path, capsys, name, baseline, fresh, expected
):
    status, lines, _ = _run(gate, tmp_path, capsys, {name: (baseline, fresh)})
    assert status == 1
    assert any(expected in line for line in lines), lines
    assert "REGRESSION GATE FAILED:" in lines


def test_promote_copies_fresh_over_baseline_on_a_pass(gate, tmp_path, capsys):
    # An unstamped baseline is promotable from any host.
    fresh = _fleet((0.8, 1.2, 2.3), cpus=2)
    status, lines, baselines = _run(
        gate, tmp_path, capsys, {"fleet_throughput": (_fleet(), fresh)}, promote=True
    )
    assert status == 0
    assert json.loads(baselines["fleet_throughput"]) == fresh
    assert lines[-1].startswith("promoted")
    assert lines[-1].endswith("fleet_throughput.json")


def test_promote_refuses_after_a_failure(gate, tmp_path, capsys):
    status, lines, baselines = _run(
        gate,
        tmp_path,
        capsys,
        {"fleet_throughput": (_fleet(), _fleet((0.8, 0.6, 2.3)))},
        promote=True,
    )
    assert status == 1
    assert json.loads(baselines["fleet_throughput"]) == _fleet()
    assert "REGRESSION GATE FAILED:" in lines
    assert lines[-1].startswith("not promoted: the gate failed")


def test_promote_refuses_from_a_weaker_host(gate, tmp_path, capsys):
    baseline = _fleet(cpus=4)
    status, lines, baselines = _run(
        gate,
        tmp_path,
        capsys,
        {"fleet_throughput": (baseline, _fleet((0.9, 1.3, 2.4), cpus=2))},
        promote=True,
    )
    assert status == 1
    assert json.loads(baselines["fleet_throughput"]) == baseline
    assert lines[-2].startswith("regression gate passed")
    assert lines[-1].startswith("not promoted:")
    assert "2 CPUs, its baseline on 4" in lines[-1]


def test_fresh_artifact_carries_the_host_stamp(gate, tmp_path, monkeypatch):
    """A timing artifact names its host; a deterministic one stays bare."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_EXPERIMENT_ROUNDS", "3")
    conftest = SCRIPT.parents[1] / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("bench_conftest", conftest)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.emit("timed", [{"mode": "a", "ms": 1.25}], filename="timed.json")
    bench.save([{"mode": "a"}], "campaign.json", deterministic=True)
    host = json.loads((tmp_path / "timed.json").read_text())["metadata"]["host"]
    assert host["available_cpus"] >= 1
    assert host["cpu_model"] and host["numpy"] and host["python"]
    assert gate.available_cpus(tmp_path / "timed.json") == host["available_cpus"]
    assert "metadata" not in json.loads((tmp_path / "campaign.json").read_text())
    assert gate.available_cpus(tmp_path / "campaign.json") is None
    # The gate reads only the rows.
    rows = gate.load_rows(tmp_path / "timed.json", "mode")
    assert rows == {"a": {"mode": "a", "ms": 1.25}}
