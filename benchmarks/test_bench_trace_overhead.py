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

``results/trace_overhead.json`` is the committed baseline;
``scripts/check_perf_regression.py --kind trace-overhead`` re-enforces
both budgets per row on fresh runs (each row carries its own
``max_overhead_pct`` as a structural field, so the budget cannot drift
without touching the committed artifact).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import emit
from repro.core import RadarConfig, RecoveryPolicy, VerificationEngine
from repro.models.small import MLP
from repro.quant.layers import quantize_model
from repro.telemetry.trace import NULL_TRACER, FlightRecorder, SpanTracer

#: The gated budgets (fractions of a fleet tick, in percent).
DISABLED_BUDGET_PCT = 2.0
ENABLED_BUDGET_PCT = 10.0

#: Paired A/B rounds.  The estimate is the *median of per-round
#: differences* (enabled tick minus the adjacent null tick): host drift
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
    started = time.perf_counter()
    for _ in range(calls):
        span = tracer.span("bench", parent=None)
        span.set_attr("key", 1)
        span.finish()
    return (time.perf_counter() - started) / calls


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
    baseline_samples = []
    differences = []
    for _ in range(3):  # warm-up: first ticks pay allocator setup
        engine.tick(recovery_policy=RecoveryPolicy.NONE)
    # One traced warm-up tick counts the spans a steady-state tick emits.
    engine.tracer = tracer
    engine.tick(recovery_policy=RecoveryPolicy.NONE)
    spans_per_tick = len(recorder)
    for _ in range(MEASURE_ROUNDS):
        engine.tracer = NULL_TRACER
        started = time.perf_counter()
        engine.tick(recovery_policy=RecoveryPolicy.NONE)
        null_tick_s = time.perf_counter() - started
        engine.tracer = tracer
        started = time.perf_counter()
        engine.tick(recovery_policy=RecoveryPolicy.NONE)
        traced_tick_s = time.perf_counter() - started
        baseline_samples.append(null_tick_s)
        differences.append(traced_tick_s - null_tick_s)
    baseline_samples.sort()
    differences.sort()
    baseline_tick_s = baseline_samples[MEASURE_ROUNDS // 2]
    tracer_cost_s = max(differences[MEASURE_ROUNDS // 2], 0.0)
    enabled_tick_s = baseline_tick_s + tracer_cost_s

    enabled_pct = tracer_cost_s / baseline_tick_s * 100.0
    # Disabled: the call sites are compiled in; price them directly.
    disabled_pct = (
        _null_site_cost_s() * spans_per_tick / baseline_tick_s * 100.0
    )

    rows = [
        {
            "mode": "disabled",
            "overhead_pct": disabled_pct,
            "max_overhead_pct": DISABLED_BUDGET_PCT,
            "spans_per_tick": spans_per_tick,
            "tick_ms": baseline_tick_s * 1e3,
        },
        {
            "mode": "enabled",
            "overhead_pct": enabled_pct,
            "max_overhead_pct": ENABLED_BUDGET_PCT,
            "spans_per_tick": spans_per_tick,
            "tick_ms": enabled_tick_s * 1e3,
        },
    ]
    emit(
        "Span-tracer overhead vs an uninstrumented fleet tick "
        "(4 models, 8 shards; budgets gated by CI)",
        rows,
        filename="trace_overhead.json",
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
