"""EXP-CAMPAIGN — detection-latency SLA under scripted attack campaigns.

Not a paper artifact: this is the operational acceptance study behind the
telemetry subsystem (:mod:`repro.telemetry`).  The paper's claim is
run-time detection and recovery; this harness runs the committed
scenario-diverse campaign (:mod:`repro.experiments.campaign` — random
flips, PBFA, knowledgeable paired/low-bit attackers, burst and trickle
cadences) against engine-managed fleets with the full
detect → recover → reprotect lifecycle and asserts the SLA acceptance
bar: **every** scenario's injections are detected (nothing missed) with
**finite** p99 detection latency in both serving ticks and wall-clock.
The artifact is written only after the SLA holds;
``results/campaign_sla.json`` is the committed artifact, and
``scripts/check_perf_regression.py`` requires a fresh run's rows to equal
it.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import emit, save
from repro.experiments.campaign import (
    default_scenarios,
    deterministic_rows,
    run_campaign,
)


@pytest.mark.benchmark(group="campaign-sla")
def test_campaign_reports_finite_detection_sla(benchmark):
    rows = run_campaign(seed=0)
    # The committed artifact keeps only machine-independent fields (tick
    # latencies, counts, structure) so reruns are byte-identical; the live
    # rows keep wall-clock for the assertions below.
    emit(
        "Attack-campaign SLA — per-scenario detection latency percentiles "
        "(serving ticks) under the engine lifecycle",
        deterministic_rows(rows),
    )

    scenarios = {scenario.name for scenario in default_scenarios()}
    assert {row["scenario"] for row in rows} == scenarios
    assert len(scenarios) >= 3, "the committed campaign must stay scenario-diverse"
    for row in rows:
        case = row["case"]
        assert row["missed"] == 0, f"{case}: injections went undetected"
        assert row["injections"] >= 1, f"{case}: scenario never attacked"
        for metric in ("p50", "p95", "p99"):
            assert math.isfinite(row[f"{metric}_detection_ticks"]), (
                f"{case}: {metric} detection latency (ticks) is not finite"
            )
            assert math.isfinite(row[f"{metric}_detection_ms"]), (
                f"{case}: {metric} detection latency (ms) is not finite"
            )
        # A detection is only an SLA if the loop closed behind it.
        assert math.isfinite(row["mean_reprotect_ms"]), (
            f"{case}: detected corruption was never re-signed"
        )
        # Detection can never precede the tick that scans the flip.
        assert row["p99_detection_ticks"] >= 1
    save(deterministic_rows(rows), "campaign_sla.json", deterministic=True)

    # Register the single-scenario run with pytest-benchmark for trends.
    scenario = default_scenarios()[0]
    benchmark.pedantic(
        lambda: run_campaign(scenarios=[scenario], seed=1), rounds=3, iterations=1
    )
