"""Tests for :mod:`repro.core.fleet` (the fleet verification engine)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EventBus,
    FleetEvent,
    FleetEventType,
    ProtectionState,
    RadarConfig,
    RecoveryPolicy,
    ScanPolicy,
    VerificationEngine,
    batched_mismatched_rows,
)
from repro.errors import ProtectionError
from repro.models.small import MLP, LeNet5
from repro.quant.layers import quantize_model, quantized_layers


def _small_model(seed: int, hidden=(24,), input_dim=48) -> MLP:
    model = MLP(input_dim=input_dim, num_classes=4, hidden_dims=hidden, seed=seed)
    quantize_model(model)
    return model


def _flip_weight(model, layer_index: int = 0, weight_index: int = 0) -> None:
    name, layer = quantized_layers(model)[layer_index]
    flat = layer.qweight.reshape(-1)
    flat[weight_index] = np.int8(int(flat[weight_index]) ^ -128)


def _oracle_flags(managed, shard_indices):
    """The per-layer checksum oracle's verdict over one planned slice."""
    rows = managed.scheduler.slice_rows(list(shard_indices))
    return managed.scheduler.fused.rows_to_layer_groups(
        managed.protector.store.mismatched_rows(managed.model, rows)
    )


def _assert_flags_equal(observed, expected) -> None:
    assert set(observed) == set(expected)
    for layer, groups in expected.items():
        np.testing.assert_array_equal(observed[layer], groups)


@pytest.fixture()
def engine():
    return VerificationEngine(RadarConfig(group_size=8), num_shards=4)


class TestEventBus:
    def test_emit_delivers_to_subscribers_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(("a", event.model)))
        bus.subscribe(lambda event: seen.append(("b", event.model)))
        bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=1))
        assert seen == [("a", "m"), ("b", "m")]

    def test_typed_subscription_filters(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, FleetEventType.RECOVERY)
        bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=1))
        bus.emit(FleetEvent(FleetEventType.RECOVERY, "m", tick=1))
        assert [event.type for event in seen] == [FleetEventType.RECOVERY]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=1))
        unsubscribe()
        bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=2))
        assert len(seen) == 1

    def test_duplicate_subscriptions_unsubscribe_independently(self):
        bus = EventBus()
        seen = []
        first = bus.subscribe(seen.append)
        bus.subscribe(seen.append)
        first()
        first()  # double-unsubscribe must not steal the second subscription
        bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=1))
        assert len(seen) == 1

    def test_history_is_bounded(self):
        bus = EventBus(history=3)
        for tick in range(5):
            bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=tick))
        assert len(bus) == 3
        assert [event.tick for event in bus.events()] == [2, 3, 4]

    def test_events_filter_by_type(self):
        bus = EventBus()
        bus.emit(FleetEvent(FleetEventType.DETECTION, "m", tick=1))
        bus.emit(FleetEvent(FleetEventType.REPROTECT, "m", tick=1))
        assert len(bus.events(FleetEventType.REPROTECT)) == 1

    def test_invalid_history_rejected(self):
        with pytest.raises(ProtectionError):
            EventBus(history=0)


class TestEngineValidation:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ProtectionError, match="workers must be >= 1"):
            VerificationEngine(workers=0)

    def test_tick_requires_models(self, engine):
        with pytest.raises(ProtectionError, match="no registered models"):
            engine.tick()

    def test_state_of_unknown_model_rejected(self, engine):
        with pytest.raises(ProtectionError, match="not registered"):
            engine.state_of("ghost")


class TestSteadyStateMemory:
    def test_full_scan_ticks_do_not_accumulate_memory(self):
        """A FULL fleet's ticks keep nothing of past ticks' row slices."""
        import tracemalloc

        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, policy=ScanPolicy.FULL
        )
        for index in range(4):
            engine.register(f"m{index}", _small_model(index, hidden=(128,), input_dim=64))
        tracemalloc.start()
        try:
            for _ in range(20):
                engine.tick()
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(280):
                engine.tick()
            growth = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert growth < 1 << 20, f"{growth} bytes retained across 280 ticks"


class TestBatchedEquivalence:
    """The coalesced cross-model pass is an optimization, not an approximation."""

    def test_batched_kernel_matches_per_model_results(self):
        views, layer_maps, models, stores = [], [], [], []
        for seed in range(3):
            model = _small_model(seed, hidden=(32, 16), input_dim=64)
            engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
            managed = engine.register("m", model)
            views.append(managed.scheduler.fused)
            layer_maps.append(managed.layer_map)
            models.append(model)
            stores.append(managed.protector.store)
        _flip_weight(models[1], layer_index=1, weight_index=5)
        rows = np.arange(views[0].total_groups, dtype=np.int64)
        batched = batched_mismatched_rows(views, layer_maps, [rows] * len(views))
        for store, model, flagged in zip(stores, models, batched):
            np.testing.assert_array_equal(flagged, store.mismatched_rows(model, rows))
        assert batched[1].size > 0 and batched[0].size == 0

    def test_batched_kernel_rejects_a_shared_row_array(self):
        """Rows are per model: one array for every model is not accepted."""
        small = _small_model(0)
        large = _small_model(1, hidden=(32, 16), input_dim=64)
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        managed_small = engine.register("small", small)
        managed_large = engine.register("large", large)
        with pytest.raises(ProtectionError, match="row arrays"):
            batched_mismatched_rows(
                [managed_small.scheduler.fused, managed_large.scheduler.fused],
                [managed_small.layer_map, managed_large.layer_map],
                np.arange(4, dtype=np.int64),
            )

    def test_tick_detects_exactly_what_sequential_steps_detect(self):
        config = RadarConfig(group_size=8)
        batched_engine = VerificationEngine(config, num_shards=4)
        reference_engine = VerificationEngine(config, num_shards=4)
        for index in range(3):
            batched_engine.register(f"m{index}", _small_model(index))
            reference_engine.register(f"m{index}", _small_model(index))
        _flip_weight(batched_engine.get("m2").model, weight_index=3)
        _flip_weight(reference_engine.get("m2").model, weight_index=3)
        lag = batched_engine.get("m0").scheduler.worst_case_lag_passes
        for _ in range(lag):
            outcomes = batched_engine.tick(recovery_policy=RecoveryPolicy.NONE)
            for name in reference_engine.names():
                managed = reference_engine.get(name)
                expected = managed.scheduler.step(managed.model)
                actual = outcomes[name].scan
                assert actual.shard_indices == expected.shard_indices
                _assert_flags_equal(
                    actual.report.flagged_groups, expected.report.flagged_groups
                )
                _assert_flags_equal(
                    actual.report.flagged_groups,
                    _oracle_flags(managed, expected.shard_indices),
                )

    def test_same_architecture_models_share_a_batch(self, engine):
        for index in range(4):
            engine.register(f"m{index}", _small_model(index))
        outcomes = engine.tick()
        assert all(outcome.batch_size == 4 for outcome in outcomes.values())

    def test_heterogeneous_fleet_shares_one_bucketed_batch(self):
        """Mixed architectures coalesce via padded stacking (same kernel key).

        With the width-disparity guard disabled, even a LeNet slice that
        dwarfs the MLP slices rides the one stacked pass (the PR-4
        no-sequential-fallback guarantee in its pure form).
        """
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, max_padding_waste=None
        )
        engine.register("mlp-a", _small_model(1))
        engine.register("mlp-b", _small_model(2))
        lenet = LeNet5(num_classes=4, seed=3)
        quantize_model(lenet)
        engine.register("lenet", lenet)
        outcomes = engine.tick()
        assert all(outcome.batch_size == 3 for outcome in outcomes.values())

    def test_width_disparity_guard_splits_dwarfing_slice(self):
        """Default guard: a slice that dwarfs its bucket runs separately.

        The LeNet slice here is ~60x the MLP slices, so padding the MLPs to
        its width would waste > 50 % of the stacked work; the guard
        sub-splits the bucket while keeping the comparable MLPs coalesced.
        """
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("mlp-a", _small_model(1))
        engine.register("mlp-b", _small_model(2))
        lenet = LeNet5(num_classes=4, seed=3)
        quantize_model(lenet)
        engine.register("lenet", lenet)
        outcomes = engine.tick()
        assert outcomes["lenet"].batch_size == 1
        assert outcomes["mlp-a"].batch_size == 2
        assert outcomes["mlp-b"].batch_size == 2
        assert outcomes["mlp-a"].batch_width == outcomes["mlp-a"].scan.groups_checked

    def test_mixed_group_sizes_split_kernel_buckets(self):
        """Different group sizes cannot share a stacked gather width."""
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("mlp-a", _small_model(1))
        engine.register("mlp-b", _small_model(2))
        engine.register(
            "coarse", _small_model(3), config=RadarConfig(group_size=16)
        )
        outcomes = engine.tick()
        assert outcomes["mlp-a"].batch_size == 2
        assert outcomes["mlp-b"].batch_size == 2
        assert outcomes["coarse"].batch_size == 1

    def test_worker_pool_ticks_heterogeneous_fleet(self):
        with VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, workers=2
        ) as engine:
            engine.register("mlp", _small_model(1))
            lenet = LeNet5(num_classes=4, seed=2)
            quantize_model(lenet)
            engine.register("lenet", lenet)
            _flip_weight(engine.get("mlp").model)
            detected = set()
            for _ in range(engine.get("mlp").scheduler.worst_case_lag_passes):
                for name, outcome in engine.tick().items():
                    if outcome.attack_detected:
                        detected.add(name)
            assert detected == {"mlp"}
            clean = engine.scan_all()
            assert not any(report.attack_detected for report in clean.values())


class TestLifecycle:
    """The tentpole acceptance: detect → recover → reprotect, automatically."""

    LIFECYCLE = [
        ProtectionState.FLAGGED,
        ProtectionState.RECOVERING,
        ProtectionState.REPROTECTING,
        ProtectionState.PROTECTED,
    ]

    @settings(max_examples=20, deadline=None)
    @given(
        victim=st.integers(min_value=0, max_value=2),
        layer_index=st.integers(min_value=0, max_value=1),
        weight_index=st.integers(min_value=0, max_value=23),
        policy=st.sampled_from([RecoveryPolicy.ZERO, RecoveryPolicy.RELOAD]),
    )
    def test_injected_flip_always_drives_the_full_lifecycle(
        self, victim, layer_index, weight_index, policy
    ):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, recovery_policy=policy
        )
        for index in range(3):
            engine.register(f"m{index}", _small_model(index), keep_golden_weights=True)
        name = f"m{victim}"
        _flip_weight(engine.get(name).model, layer_index, weight_index)

        transitions = []
        touched = set()
        for _ in range(engine.get(name).scheduler.worst_case_lag_passes):
            expected = {
                model: _oracle_flags(engine.get(model), engine.get(model).scheduler.plan())
                for model in engine.names()
            }
            outcomes = engine.tick()
            for outcome in outcomes.values():
                _assert_flags_equal(
                    outcome.scan.report.flagged_groups, expected[outcome.name]
                )
                if outcome.transitions:
                    touched.add(outcome.name)
                    transitions.extend(outcome.transitions)
            if transitions:
                break
        # Only the attacked model moves, through the full state cycle, and it
        # happens inside one tick with no manual recover/reprotect calls.
        assert touched == {name}
        assert transitions == self.LIFECYCLE
        assert engine.state_of(name) is ProtectionState.PROTECTED
        # The re-signed fleet verifies clean: a full scan of every model
        # agrees with the fresh golden signatures.
        reports = engine.scan_all()
        assert not any(report.attack_detected for report in reports.values())
        # And a full rotation of engine ticks stays quiet.
        for _ in range(engine.get(name).scheduler.worst_case_lag_passes):
            outcomes = engine.tick()
            assert not any(outcome.attack_detected for outcome in outcomes.values())

    def test_reprotect_never_signs_in_unscanned_corruption(self):
        """The REPROTECTING step must sweep the whole model first.

        A detection slice covers one shard; flips sitting in *other* shards
        have not been scanned yet.  Re-signing over a partially recovered
        model would accept them as the new golden baseline forever — the
        engine instead runs a full fused sweep and recovers everything
        before re-signing.
        """
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            recovery_policy=RecoveryPolicy.RELOAD,
        )
        engine.register("m", _small_model(1), keep_golden_weights=True)
        managed = engine.get("m")
        layers = quantized_layers(managed.model)
        originals = [layer.qweight.copy() for _, layer in layers]
        # One flip near the front of the rotation, one near the back: the
        # tick that detects the first has not scanned the second yet.
        _flip_weight(managed.model, layer_index=0, weight_index=0)
        _flip_weight(managed.model, layer_index=len(layers) - 1, weight_index=-1)
        for _ in range(managed.scheduler.worst_case_lag_passes):
            outcomes = engine.tick()
            if outcomes["m"].reprotected:
                break
        assert engine.state_of("m") is ProtectionState.PROTECTED
        recovery = engine.bus.events(FleetEventType.RECOVERY)[0]
        assert recovery.detail["full_sweep"]
        # Both flips were reloaded from the golden snapshot — neither was
        # baked into the re-signed baseline.
        for (name, layer), original in zip(layers, originals):
            np.testing.assert_array_equal(layer.qweight, original)
        assert not engine.scan_all()["m"].attack_detected

    def test_lifecycle_emits_the_full_event_trail(self, engine):
        engine.register("victim", _small_model(1))
        engine.register("bystander", _small_model(2))
        _flip_weight(engine.get("victim").model)
        for _ in range(engine.get("victim").scheduler.worst_case_lag_passes):
            engine.tick()
        trail = [(event.type, event.model) for event in engine.bus.events()]
        assert trail == [
            (FleetEventType.DETECTION, "victim"),
            (FleetEventType.RECOVERY, "victim"),
            (FleetEventType.REPROTECT, "victim"),
        ]
        recovery = engine.bus.events(FleetEventType.RECOVERY)[0]
        assert recovery.detail["policy"] == "zero"
        assert recovery.detail["zeroed_weights"] > 0
        assert recovery.detail["elapsed_s"] >= 0

    def test_without_auto_reprotect_model_stays_recovering(self):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, auto_reprotect=False
        )
        engine.register("m", _small_model(1))
        _flip_weight(engine.get("m").model)
        for _ in range(engine.get("m").scheduler.worst_case_lag_passes):
            engine.tick()
        assert engine.state_of("m") is ProtectionState.RECOVERING
        assert engine.bus.events(FleetEventType.REPROTECT) == []
        # Manual reprotect completes the loop.
        engine.reprotect("m")
        assert engine.state_of("m") is ProtectionState.PROTECTED
        assert not engine.scan_all()["m"].attack_detected

    def test_reload_recovery_heals_state_after_clean_rotation(self):
        # RELOAD restores the golden weights, so even without a re-sign a
        # full clean rotation returns the model to PROTECTED.
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            recovery_policy=RecoveryPolicy.RELOAD,
            auto_reprotect=False,
        )
        engine.register("m", _small_model(1), keep_golden_weights=True)
        _flip_weight(engine.get("m").model)
        lag = engine.get("m").scheduler.worst_case_lag_passes
        for _ in range(lag):
            engine.tick()
        assert engine.state_of("m") is ProtectionState.RECOVERING
        for _ in range(lag):
            engine.tick()
        assert engine.state_of("m") is ProtectionState.PROTECTED

    def test_detect_only_policy_flags_without_recovery(self, engine):
        engine.register("m", _small_model(1))
        _flip_weight(engine.get("m").model)
        for _ in range(engine.get("m").scheduler.worst_case_lag_passes):
            outcomes = engine.tick(recovery_policy=RecoveryPolicy.NONE)
        assert engine.state_of("m") is ProtectionState.FLAGGED
        assert engine.bus.events(FleetEventType.RECOVERY) == []
        detected = [
            outcome for outcome in outcomes.values() if outcome.recovery is not None
        ]
        assert detected == []

    def test_reprotect_preserves_planner_flip_memory(self):
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            policy=ScanPolicy.PRIORITY_EXPOSURE,
        )
        engine.register("m", _small_model(1))
        managed = engine.get("m")
        planner_before = managed.scheduler.planner
        _flip_weight(managed.model)
        for _ in range(managed.scheduler.worst_case_lag_passes):
            engine.tick()
        refreshed = engine.get("m")
        assert refreshed.scheduler.planner is planner_before
        assert any(
            planner_before.flip_rate(index) > 0
            for index in range(refreshed.scheduler.num_shards)
        )


class TestBudgetedEngine:
    def test_budget_exhausted_event_for_underfunded_model(self):
        from repro.core import AnalyticScanCostModel

        config = RadarConfig(group_size=8)
        cost_model = AnalyticScanCostModel.from_radar_config(config)
        engine = VerificationEngine(config, num_shards=4)
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2))
        # One slice total: the less urgent model is starved this tick.
        one_slice = engine.get("alpha").scheduler.planned_slice_cost_s()
        outcomes = engine.tick(budget_s=one_slice + cost_model.seconds_per_group)
        starved = [name for name, outcome in outcomes.items() if not outcome.scan.shard_indices]
        assert len(starved) == 1
        events = engine.bus.events(FleetEventType.BUDGET_EXHAUSTED)
        assert [event.model for event in events] == starved
        assert events[0].detail["budget_share_s"] == outcomes[starved[0]].budget_s

    def test_tick_budget_shares_match_allocation(self, engine):
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2))
        shares = engine.allocate_budget(1.0)
        outcomes = engine.tick(budget_s=1.0)
        for name, outcome in outcomes.items():
            assert outcome.budget_s == pytest.approx(shares[name])
            assert outcome.scan.within_budget

    def test_measured_wall_clock_reported_per_model(self, engine):
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2))
        outcomes = engine.tick()
        for outcome in outcomes.values():
            assert outcome.measured_s is not None
            assert outcome.measured_s > 0
            assert outcome.scan.measured_s == outcome.measured_s
