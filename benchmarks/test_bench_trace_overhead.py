"""EXP-STAGE — cost of the engine's always-on stage timing.

Not a paper artifact: this is the cost ceiling for "where did this tick's
time go?".  Every :meth:`VerificationEngine.tick` takes one
``perf_counter`` stamp per stage of :data:`~repro.core.fleet.TICK_STAGES`,
and an attached :class:`~repro.telemetry.monitor.FleetTelemetry` observes
each delta into its ``stage_duration_s`` :class:`RingHistogram`.
Instrumentation that slows the engine down is a protection regression in
disguise — the scan budget it eats is scan budget the detector loses — so
its cost is gated at **< 2 %** of a fleet tick, asserted before the
artifact is written.

The stamps are part of the tick, so there is no uninstrumented tick to
compare against; the gate prices the sites directly.  Each paired round
times one telemetry-attached tick and one block of :data:`SITE_CALLS`
stage sites (a ``perf_counter`` stamp plus one ``RingHistogram.observe``);
the row reports the median over pairs of ``len(TICK_STAGES)`` sites as a
share of the same round's tick, with its IQR.

``results/trace_overhead.json`` is the committed baseline;
``scripts/check_perf_regression.py`` compares fresh runs against it (the
row carries its ``max_overhead_pct`` and ``stages_per_tick`` as
structural fields, so neither can drift without touching the committed
artifact).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import emit, save
from repro.core import RadarConfig, RecoveryPolicy, VerificationEngine
from repro.core.fleet import TICK_STAGES
from repro.experiments.reporting import pair_ratio, paired_timings
from repro.models.small import MLP
from repro.quant.layers import quantize_model
from repro.telemetry.metrics import RingHistogram
from repro.telemetry.monitor import FleetTelemetry

#: The gated budget (percent of a fleet tick).
BUDGET_PCT = 2.0

#: Paired rounds: host drift moves both sides of a round together.
MEASURE_ROUNDS = 60

#: Stage sites timed per round; one site costs well under a microsecond,
#: too little to time alone.
SITE_CALLS = 2000


def _build_engine() -> VerificationEngine:
    # A full rotation per tick so the tick does real kernel work (~1 ms).
    engine = VerificationEngine(
        RadarConfig(group_size=16), num_shards=8, shards_per_pass=8
    )
    for index in range(8):
        model = MLP(
            input_dim=256, num_classes=16, hidden_dims=(256, 128), seed=index
        )
        quantize_model(model)
        engine.register(f"model-{index}", model)
    return engine


def _stage_sites():
    """A block of ``SITE_CALLS`` stage sites: one stamp, one observe each."""
    histogram = RingHistogram()
    perf_counter = time.perf_counter

    def sites():
        previous = perf_counter()
        for _ in range(SITE_CALLS):
            stamp = perf_counter()
            histogram.observe(stamp - previous)
            previous = stamp

    return sites


@pytest.mark.benchmark(group="fleet-engine")
def test_tracing_overhead_stays_inside_budget():
    engine = _build_engine()
    telemetry = FleetTelemetry().attach(engine)
    for _ in range(3):  # warm-up: first ticks pay allocator setup
        engine.tick(recovery_policy=RecoveryPolicy.NONE)
    warm_ticks = telemetry.registry.counter("ticks_total").value
    stages_per_tick = sum(
        telemetry.registry.histogram("stage_duration_s", stage=stage).count
        for stage in telemetry.registry.label_values("stage_duration_s", "stage")
    ) // warm_ticks

    def tick():
        engine.tick(recovery_policy=RecoveryPolicy.NONE)

    ticks, site_blocks = paired_timings(tick, _stage_sites(), rounds=MEASURE_ROUNDS)
    stage_cost = np.asarray(site_blocks) / SITE_CALLS * len(TICK_STAGES)
    share, share_iqr = pair_ratio(stage_cost, ticks)

    rows = [
        {
            "mode": "stage_timing",
            "overhead_pct": share * 100.0,
            "overhead_pct_iqr": share_iqr * 100.0,
            "pairs": MEASURE_ROUNDS,
            "max_overhead_pct": BUDGET_PCT,
            "stages_per_tick": stages_per_tick,
            "site_us": float(np.median(site_blocks)) / SITE_CALLS * 1e6,
            "tick_ms": float(np.median(ticks)) * 1e3,
        },
    ]
    emit(
        "Stage-timing cost vs a telemetry-attached fleet tick "
        "(8 models, 8 shards, one full rotation per tick)",
        rows,
    )

    assert stages_per_tick == len(TICK_STAGES), (
        f"a tick observed {stages_per_tick} stage sample(s), not one per "
        f"stage of {TICK_STAGES}; the stage timing went missing"
    )
    assert share * 100.0 < BUDGET_PCT, (
        f"stage timing costs {share * 100.0:.3f}% of a tick "
        f"(budget {BUDGET_PCT}%)"
    )
    save(rows, "trace_overhead.json")
