"""Tests for :mod:`repro.telemetry.metrics` and :mod:`repro.telemetry.monitor`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import RandomBitFlipAttack, RandomFlipConfig
from repro.core import (
    MeasuredScanCostModel,
    RadarConfig,
    RecoveryPolicy,
    VerificationEngine,
)
from repro.core.fleet import TICK_STAGES
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model
from repro.telemetry import FleetTelemetry, MetricRegistry
from repro.telemetry.metrics import Counter, Gauge, RingHistogram


def _fleet(num_models=3, budget_s=None, measured=False, **engine_kwargs):
    config = RadarConfig(group_size=16)
    engine_kwargs.setdefault("recovery_policy", RecoveryPolicy.RELOAD)
    engine_kwargs.setdefault("auto_reprotect", True)
    engine = VerificationEngine(
        config,
        num_shards=4,
        budget_s=budget_s,
        **engine_kwargs,
    )
    for index in range(num_models):
        model = MLP(input_dim=64, num_classes=4, hidden_dims=(48, 24), seed=index)
        quantize_model(model)
        engine.register(
            f"model-{index}",
            model,
            keep_golden_weights=True,
            cost_model=(
                MeasuredScanCostModel.from_radar_config(config) if measured else None
            ),
        )
    return engine


def _attack(engine, name, num_flips=5, seed=0):
    RandomBitFlipAttack(
        RandomFlipConfig(num_flips=num_flips, msb_only=True, seed=seed)
    ).run(engine.get(name).model, name)


class TestCounterAndGauge:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ProtectionError):
            Counter().inc(-1)

    def test_gauge_last_value_wins(self):
        gauge = Gauge()
        assert np.isnan(gauge.value)
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestRingHistogram:
    def test_empty_percentiles_are_nan(self):
        histogram = RingHistogram(capacity=8)
        assert np.isnan(histogram.percentile(99))
        assert len(histogram) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ProtectionError):
            RingHistogram(capacity=0)
        histogram = RingHistogram(capacity=4)
        histogram.observe(1.0)
        with pytest.raises(ProtectionError):
            histogram.percentile(0)
        with pytest.raises(ProtectionError):
            histogram.percentile(101)

    def test_ring_retains_only_latest_window(self):
        histogram = RingHistogram(capacity=4)
        for value in range(10):
            histogram.observe(float(value))
        assert histogram.count == 10
        assert len(histogram) == 4
        assert sorted(histogram.window().tolist()) == [6.0, 7.0, 8.0, 9.0]
        # Percentiles reflect the retained window, not the full history.
        assert histogram.percentile(50) == 7.0
        assert histogram.percentile(100) == 9.0

    def test_summary_shape(self):
        histogram = RingHistogram(capacity=16)
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert {"p50", "p95", "p99"} <= set(summary)

    # Satellite acceptance: the estimator matches exact nearest-rank
    # quantiles (NumPy's inverted_cdf) on random samples within capacity.
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=128,
        ),
        q=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_percentile_matches_exact_nearest_rank(self, samples, q):
        histogram = RingHistogram(capacity=128)
        for value in samples:
            histogram.observe(value)
        expected = float(
            np.percentile(np.asarray(samples), q, method="inverted_cdf")
        )
        assert histogram.percentile(q) == expected


class TestMetricRegistry:
    def test_get_or_create_by_name_and_labels(self):
        registry = MetricRegistry()
        a = registry.counter("events", model="a")
        b = registry.counter("events", model="b")
        assert a is not b
        assert registry.counter("events", model="a") is a
        assert registry.histogram("lat", model="a") is registry.histogram(
            "lat", model="a"
        )

    def test_label_values_enumerates_models(self):
        registry = MetricRegistry()
        registry.counter("events", model="a")
        registry.counter("events", model="b", event="detection")
        registry.counter("other", model="c")
        assert registry.label_values("events", "model") == ["a", "b"]

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricRegistry()
        registry.counter("ticks").inc(3)
        registry.gauge("price", model="a").set(1e-6)
        registry.histogram("lat", model="a").observe(0.5)
        snapshot = registry.snapshot()
        payload = json.dumps(snapshot)
        assert "ticks" in payload
        assert snapshot["counters"][0]["value"] == 3
        assert snapshot["histograms"][0]["count"] == 1


class TestFleetTelemetryWiring:
    def test_attach_registers_bus_and_tick_hook(self):
        engine = _fleet()
        telemetry = FleetTelemetry().attach(engine)
        assert engine.telemetry is telemetry
        with pytest.raises(ProtectionError):
            telemetry.attach(engine)  # already attached
        with pytest.raises(ProtectionError):
            FleetTelemetry().attach(engine)  # engine already observed
        telemetry.detach()
        assert engine.telemetry is None
        telemetry.detach()  # idempotent

    def test_note_injection_requires_attachment_and_registration(self):
        telemetry = FleetTelemetry()
        with pytest.raises(ProtectionError):
            telemetry.note_injection("model-0")
        engine = _fleet()
        telemetry.attach(engine)
        with pytest.raises(ProtectionError):
            telemetry.note_injection("no-such-model")

    def test_detection_latency_measured_in_ticks_and_seconds(self):
        engine = _fleet()
        telemetry = FleetTelemetry().attach(engine)
        engine.tick()  # tick 1: clean
        _attack(engine, "model-0")
        telemetry.note_injection("model-0", flips=5)
        detected_after = None
        for extra in range(8):
            outcome = engine.tick()["model-0"]
            if outcome.attack_detected:
                detected_after = extra + 1
                break
        assert detected_after is not None
        assert telemetry.pending_injections("model-0") == 0
        ticks = telemetry.registry.histogram("detection_latency_ticks", model="model-0")
        assert ticks.count == 1
        assert ticks.percentile(50) == float(detected_after)
        seconds = telemetry.registry.histogram("detection_latency_s", model="model-0")
        assert seconds.count == 1
        assert seconds.percentile(50) > 0

    def test_recovery_and_reprotect_spans_recorded(self):
        engine = _fleet()
        telemetry = FleetTelemetry().attach(engine)
        _attack(engine, "model-1", seed=3)
        telemetry.note_injection("model-1")
        for _ in range(4):
            engine.tick()
        recovery = telemetry.registry.histogram("recovery_s", model="model-1")
        reprotect = telemetry.registry.histogram("reprotect_s", model="model-1")
        assert recovery.count >= 1
        assert reprotect.count == 1
        # The detection->reprotect span contains the recovery wall-clock.
        assert reprotect.percentile(100) >= recovery.percentile(100) >= 0

    def test_tick_economics_budget_and_stacking(self):
        engine = _fleet(measured=True)
        telemetry = FleetTelemetry().attach(engine)
        for _ in range(3):
            # The measured models calibrate to the real host after every
            # tick, so a fixed prior-priced budget would go infeasible;
            # re-price the fleet-funding budget from the current calibration.
            budget = sum(
                engine.get(name).scheduler.planned_slice_cost_s()
                for name in engine.names()
            ) + engine.get("model-0").cost_model.pass_cost_s(1)
            engine.tick(budget_s=budget)
        assert telemetry.registry.counter("ticks_total").value == 3
        for name in engine.names():
            fill = telemetry.registry.histogram("stacking_fill", model=name)
            assert fill.count == 3
            assert 0 < fill.percentile(100) <= 1.0
            utilization = telemetry.registry.histogram(
                "budget_utilization", model=name
            )
            assert utilization.count == 3
            price = telemetry.registry.gauge("seconds_per_group", model=name)
            assert price.value > 0

    def test_cached_series_expose_what_direct_lookups_would(self):
        """The per-model series handles of ``observe_tick`` change no
        ``/metrics`` byte: replaying the same ticks through plain registry
        lookups renders identical exposition text, with models joining and
        leaving and budgeted and unbudgeted ticks mixed."""
        from repro.telemetry.exposition import render_prometheus

        engine = _fleet(measured=True)
        telemetry = FleetTelemetry().attach(engine)
        ticks = []

        def run(budgeted):
            budget = None
            if budgeted:
                budget = sum(
                    engine.get(name).scheduler.planned_slice_cost_s()
                    for name in engine.names()
                ) + engine.get(engine.names()[0]).cost_model.pass_cost_s(1)
            outcomes = engine.tick(budget_s=budget)
            prices = {
                name: engine.get(name).cost_model.seconds_per_group
                for name in outcomes
            }
            ticks.append(
                (
                    engine.last_tick_duration_s,
                    engine.last_stage_durations_s,
                    outcomes,
                    prices,
                )
            )

        for tick in range(8):
            if tick == 3:
                engine.register(
                    "late",
                    quantize_model(MLP(64, 4, (48, 24), seed=9)),
                    keep_golden_weights=True,
                )
            if tick == 5:
                engine.unregister("model-1")
            run(budgeted=tick % 2 == 0)

        reference = MetricRegistry()
        for duration, stages, outcomes, prices in ticks:
            reference.counter("ticks_total").inc()
            reference.histogram("tick_duration_s").observe(duration)
            for stage, seconds in stages.items():
                reference.histogram("stage_duration_s", stage=stage).observe(seconds)
            for name, outcome in outcomes.items():
                reference.counter("groups_checked_total", model=name).inc(
                    outcome.scan.groups_checked
                )
                if outcome.batch_width > 0:
                    reference.histogram("batch_size", model=name).observe(
                        float(outcome.batch_size)
                    )
                    reference.histogram("stacking_fill", model=name).observe(
                        outcome.scan.groups_checked / outcome.batch_width
                    )
                if (
                    outcome.budget_s is not None
                    and outcome.budget_s > 0
                    and outcome.measured_s is not None
                ):
                    reference.histogram("budget_utilization", model=name).observe(
                        outcome.measured_s / outcome.budget_s
                    )
                reference.gauge("seconds_per_group", model=name).set(prices[name])
        assert telemetry.registry.find_histogram(
            "budget_utilization", model="late"
        ) is not None
        assert render_prometheus(telemetry.registry) == render_prometheus(reference)

    def test_sla_report_rows_per_model(self):
        engine = _fleet()
        telemetry = FleetTelemetry().attach(engine)
        _attack(engine, "model-0")
        telemetry.note_injection("model-0")
        for _ in range(5):
            engine.tick()
        rows = {row["model"]: row for row in telemetry.sla_report()}
        assert set(rows) == set(engine.names())
        victim = rows["model-0"]
        assert victim["injections"] == 1
        assert victim["detections"] == 1
        assert victim["pending"] == 0
        assert np.isfinite(victim["p99_detection_ticks"])
        assert np.isfinite(victim["p99_detection_ms"])
        bystander = rows["model-1"]
        assert bystander["injections"] == 0
        assert np.isnan(bystander["p99_detection_ticks"])

    def test_snapshot_reports_pending_injections(self):
        engine = _fleet(auto_reprotect=False, recovery_policy=RecoveryPolicy.NONE)
        telemetry = FleetTelemetry().attach(engine)
        telemetry.note_injection("model-2")  # nothing was actually flipped
        snapshot = telemetry.snapshot()
        assert snapshot["pending_injections"] == {"model-2": 1}
        assert "metrics" in snapshot


class TestStageDurations:
    """The engine's per-stage tick timings, as telemetry records them."""

    TICKS = 24
    ATTACK_TICKS = (0, 8, 16)

    def _attacked_budgeted_run(self):
        """``TICKS`` budgeted ticks with flips injected into one model."""
        engine = _fleet()
        telemetry = FleetTelemetry().attach(engine)
        detecting = []
        for tick in range(self.TICKS):
            if tick in self.ATTACK_TICKS:
                _attack(engine, "model-0", seed=tick)
            budget = sum(
                engine.get(name).scheduler.planned_slice_cost_s()
                for name in engine.names()
            ) + engine.get("model-0").cost_model.pass_cost_s(1)
            outcomes = engine.tick(budget_s=budget)
            detecting.append(
                any(outcome.attack_detected for outcome in outcomes.values())
            )
        return engine, telemetry, detecting

    def _windows(self, registry):
        return {
            stage: registry.histogram("stage_duration_s", stage=stage).ordered_window()
            for stage in TICK_STAGES
        }

    def test_stage_samples_partition_each_tick(self):
        engine, telemetry, _ = self._attacked_budgeted_run()
        registry = telemetry.registry
        windows = self._windows(registry)
        assert set(registry.label_values("stage_duration_s", "stage")) == set(
            TICK_STAGES
        )
        for stage in TICK_STAGES:
            assert registry.histogram("stage_duration_s", stage=stage).count == self.TICKS
        ticks = registry.histogram("tick_duration_s").ordered_window()
        assert len(ticks) == self.TICKS
        for index, tick_s in enumerate(ticks):
            stages = [float(windows[stage][index]) for stage in TICK_STAGES]
            assert min(stages) >= 0.0
            # The stages are consecutive perf_counter deltas inside the tick.
            assert sum(stages) <= tick_s * (1 + 1e-9)
        assert engine.last_stage_durations_s == {
            stage: windows[stage][-1] for stage in TICK_STAGES
        }

    def test_detecting_ticks_spend_longer_in_lifecycle(self):
        _, telemetry, detecting = self._attacked_budgeted_run()
        lifecycle = self._windows(telemetry.registry)["lifecycle"]
        detected = lifecycle[np.array(detecting)]
        clean = lifecycle[~np.array(detecting)]
        assert detected.size and clean.size
        # A detection sweeps, recovers and re-signs the model; a clean
        # tick's lifecycle only reads each model's state.
        assert detected.min() > np.median(clean)

    def test_stage_windows_survive_a_state_store_round_trip(self, tmp_path):
        from repro.telemetry.store import StateStore

        _, telemetry, _ = self._attacked_budgeted_run()
        before = self._windows(telemetry.registry)
        store = StateStore(tmp_path)
        store.save_telemetry(telemetry)
        restored = FleetTelemetry()
        assert store.restore_telemetry(restored)
        after = self._windows(restored.registry)
        for stage in TICK_STAGES:
            np.testing.assert_array_equal(after[stage], before[stage])
            assert (
                restored.registry.histogram("stage_duration_s", stage=stage).count
                == self.TICKS
            )


class TestMetricPersistence:
    def test_histogram_state_dict_orders_samples_oldest_first(self):
        histogram = RingHistogram(capacity=4)
        for value in range(6):
            histogram.observe(float(value))
        state = histogram.state_dict()
        assert state["capacity"] == 4
        assert state["count"] == 6
        assert state["samples"] == [2.0, 3.0, 4.0, 5.0]

    def test_histogram_merge_prepends_persisted_window(self):
        old = RingHistogram(capacity=8)
        for value in (1.0, 2.0, 3.0):
            old.observe(value)
        fresh = RingHistogram(capacity=8)
        fresh.observe(10.0)
        fresh.load_state_dict(old.state_dict())
        assert fresh.count == 4
        assert fresh.ordered_window().tolist() == [1.0, 2.0, 3.0, 10.0]
        # New observations keep overwriting the oldest merged samples.
        for value in (11.0, 12.0, 13.0, 14.0):
            fresh.observe(value)
        assert fresh.count == 8
        assert fresh.ordered_window().tolist() == [
            1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0, 14.0,
        ]
        fresh.observe(15.0)
        assert fresh.ordered_window()[0] == 2.0

    def test_histogram_merge_truncates_to_most_recent_capacity(self):
        old = RingHistogram(capacity=8)
        for value in range(8):
            old.observe(float(value))
        fresh = RingHistogram(capacity=8)
        for value in (100.0, 101.0):
            fresh.observe(value)
        fresh.load_state_dict(old.state_dict())
        # 10 merged samples, capacity 8: the 2 oldest persisted fall off.
        assert len(fresh) == 8
        assert fresh.ordered_window().tolist() == [
            2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0, 101.0,
        ]
        assert fresh.count == 10  # lifetime total survives a full window

    def test_histogram_merge_from_smaller_capacity_snapshot(self):
        old = RingHistogram(capacity=2)
        for value in range(5):
            old.observe(float(value))
        fresh = RingHistogram(capacity=8)
        fresh.load_state_dict(old.state_dict())
        # Only the 2 retained samples travel; the ring invariant
        # (len == min(count, capacity)) forces count down to match.
        assert fresh.ordered_window().tolist() == [3.0, 4.0]
        assert fresh.count == 2
        assert fresh.percentile(50) == 3.0

    def test_histogram_round_trip_percentiles_are_identical(self):
        rng = np.random.default_rng(5)
        original = RingHistogram(capacity=64)
        for value in rng.normal(size=200):
            original.observe(float(value))
        restored = RingHistogram(capacity=64)
        restored.load_state_dict(original.state_dict())
        assert restored.percentiles() == original.percentiles()
        assert restored.count == original.count

    def test_registry_round_trip_merges_every_primitive(self):
        old = MetricRegistry(histogram_capacity=16)
        old.counter("events_total", model="a").inc(3)
        old.gauge("price", model="a").set(2.5)
        old.gauge("never_set", model="a")
        for value in (1.0, 2.0):
            old.histogram("latency", model="a").observe(value)
        state = old.state_dict()

        live = MetricRegistry(histogram_capacity=16)
        live.counter("events_total", model="a").inc(2)
        live.gauge("price", model="a").set(9.0)
        live.histogram("latency", model="a").observe(3.0)
        live.load_state_dict(state)
        # Counters add, the live gauge wins, histogram windows merge.
        assert live.counter("events_total", model="a").value == 5
        assert live.gauge("price", model="a").value == 9.0
        assert live.histogram("latency", model="a").ordered_window().tolist() == [
            1.0, 2.0, 3.0,
        ]
        # A gauge with no live reading takes the persisted one; one that
        # was never set anywhere stays NaN.
        cold = MetricRegistry(histogram_capacity=16)
        cold.load_state_dict(state)
        assert cold.gauge("price", model="a").value == 2.5
        assert np.isnan(cold.gauge("never_set", model="a").value)

    def test_registry_state_dict_is_json_round_trippable(self):
        import json

        registry = MetricRegistry(histogram_capacity=8)
        registry.counter("c", model="a").inc()
        registry.histogram("h", model="a").observe(0.5)
        payload = json.loads(json.dumps(registry.state_dict()))
        twin = MetricRegistry(histogram_capacity=8)
        twin.load_state_dict(payload)
        assert twin.counter("c", model="a").value == 1
        assert twin.histogram("h", model="a").ordered_window().tolist() == [0.5]

    def test_monitor_state_dict_round_trips_sla_percentiles(self):
        engine = _fleet()
        telemetry = FleetTelemetry().attach(engine)
        _attack(engine, "model-0")
        telemetry.note_injection("model-0")
        for _ in range(5):
            engine.tick()
        state = telemetry.state_dict()
        telemetry.detach()

        restarted = _fleet()
        reborn = FleetTelemetry().attach(restarted)
        reborn.load_state_dict(state)
        rows = {row["model"]: row for row in reborn.sla_report()}
        assert rows["model-0"]["injections"] == 1
        assert np.isfinite(rows["model-0"]["p99_detection_ticks"])
        # Pending injections deliberately do not survive the restart.
        assert reborn.pending_injections("model-0") == 0
