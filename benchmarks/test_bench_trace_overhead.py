"""EXP-TRACE — span-tracer overhead against an uninstrumented fleet tick.

Not a paper artifact: this is the cost ceiling for the observability
subsystem (:mod:`repro.telemetry.trace`).  Instrumentation that slows the
engine down is a protection regression in disguise — the scan budget the
tracer eats is scan budget the detector loses — so the budget is gated,
not aspirational:

* **disabled** (the default ``NULL_TRACER``): the per-tick cost of the
  instrumentation call sites themselves must stay under **2 %** of a
  fleet tick.  The call sites cannot be removed to measure a true
  baseline, so this row prices them directly: the measured per-call cost
  of a null ``span()``/``set_attr()``/``finish()`` round trip times the
  number of call sites a tick executes, as a fraction of the median tick.
* **enabled** (a :class:`SpanTracer` feeding a bounded
  :class:`FlightRecorder`): the end-to-end tick slowdown must stay under
  **10 %**, measured by running the same fleet with tracing on.

Both budgets are asserted before the artifact is written.
``results/trace_overhead.json`` is the committed baseline;
``scripts/check_perf_regression.py`` compares fresh runs against it (each
row carries its own ``max_overhead_pct`` as a structural field, so the
budget cannot drift without touching the committed artifact).
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit, save
from repro.core import RadarConfig, RecoveryPolicy, VerificationEngine
from repro.experiments.reporting import pair_ratio, paired_timings
from repro.models.small import MLP
from repro.quant.layers import quantize_model
from repro.telemetry.trace import NULL_TRACER, FlightRecorder, SpanTracer

#: The gated budgets (fractions of a fleet tick, in percent).
DISABLED_BUDGET_PCT = 2.0
ENABLED_BUDGET_PCT = 10.0

#: Paired A/B rounds.  The estimate is the *median of per-round
#: differences* (enabled tick minus the same round's null tick): host drift
#: (CPU frequency, cache warmth) moves both ticks of a round together and
#: cancels in the difference, while comparing the two modes' separate
#: medians or mins lets that drift masquerade as tracer cost — at
#: single-digit-percent budgets, drift *is* the dominant error.
MEASURE_ROUNDS = 60


def _build_engine() -> VerificationEngine:
    # A full rotation per tick so the tick does real kernel work (~2 ms):
    # at sub-0.2 ms ticks the span constructions alone read as several
    # percent and the enabled row measures allocator noise instead of
    # tracer cost.
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


def _null_site_cost_s(calls: int = 200_000) -> float:
    """Per-call cost of one instrumentation site with tracing disabled."""
    tracer = NULL_TRACER

    def sites():
        for _ in range(calls):
            span = tracer.span("bench", parent=None)
            span.set_attr("key", 1)
            span.finish()

    [[elapsed_s]] = paired_timings(sites, rounds=1)
    return elapsed_s / calls


@pytest.mark.benchmark(group="fleet-engine")
def test_tracing_overhead_stays_inside_budget():
    # One engine, A/B interleaved per round: measuring the two modes in
    # separate blocks lets host drift (CPU frequency, cache warmth)
    # masquerade as tracer cost, which at single-digit-percent budgets is
    # the whole signal.  Toggling ``engine.tracer`` between ticks is safe —
    # it is a plain attribute the tick reads once.
    recorder = FlightRecorder(capacity=16384)
    tracer = SpanTracer(recorder=recorder)
    engine = _build_engine()
    for _ in range(3):  # warm-up: first ticks pay allocator setup
        engine.tick(recovery_policy=RecoveryPolicy.NONE)
    # One traced warm-up tick counts the spans a steady-state tick emits.
    engine.tracer = tracer
    engine.tick(recovery_policy=RecoveryPolicy.NONE)
    spans_per_tick = len(recorder)

    def tick_with(active):
        def tick():
            engine.tracer = active
            engine.tick(recovery_policy=RecoveryPolicy.NONE)

        return tick

    null_ticks, traced_ticks = paired_timings(
        tick_with(NULL_TRACER), tick_with(tracer), rounds=MEASURE_ROUNDS
    )
    baseline_tick_s = float(np.median(null_ticks))
    tracer_cost_s = max(
        float(np.median(np.subtract(traced_ticks, null_ticks))), 0.0
    )
    enabled_tick_s = baseline_tick_s + tracer_cost_s

    enabled_pct = tracer_cost_s / baseline_tick_s * 100.0
    # Disabled: the call sites are compiled in; price them directly.
    sites_s = _null_site_cost_s() * spans_per_tick
    disabled_pct = sites_s / baseline_tick_s * 100.0
    # Each share's spread over the timed pairs, in percentage points.
    _, enabled_iqr = pair_ratio(np.subtract(traced_ticks, null_ticks), null_ticks)
    _, disabled_iqr = pair_ratio(np.full(len(null_ticks), sites_s), null_ticks)

    rows = [
        {
            "mode": "disabled",
            "overhead_pct": disabled_pct,
            "overhead_pct_iqr": disabled_iqr * 100.0,
            "pairs": MEASURE_ROUNDS,
            "max_overhead_pct": DISABLED_BUDGET_PCT,
            "spans_per_tick": spans_per_tick,
            "tick_ms": baseline_tick_s * 1e3,
        },
        {
            "mode": "enabled",
            "overhead_pct": enabled_pct,
            "overhead_pct_iqr": enabled_iqr * 100.0,
            "pairs": MEASURE_ROUNDS,
            "max_overhead_pct": ENABLED_BUDGET_PCT,
            "spans_per_tick": spans_per_tick,
            "tick_ms": enabled_tick_s * 1e3,
        },
    ]
    emit(
        "Span-tracer overhead vs an uninstrumented fleet tick "
        "(8 models, 8 shards, one full rotation per tick)",
        rows,
    )

    assert spans_per_tick >= 5, (
        f"a traced tick emitted only {spans_per_tick} span(s); the "
        "plan/assemble/kernel/verdict instrumentation went missing"
    )
    assert disabled_pct < DISABLED_BUDGET_PCT, (
        f"disabled tracing costs {disabled_pct:.3f}% of a tick "
        f"(budget {DISABLED_BUDGET_PCT}%)"
    )
    assert enabled_pct < ENABLED_BUDGET_PCT, (
        f"enabled tracing costs {enabled_pct:.3f}% of a tick "
        f"(budget {ENABLED_BUDGET_PCT}%)"
    )
    save(rows, "trace_overhead.json")
