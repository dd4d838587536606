"""Tests for :mod:`repro.core.fleet` (the fleet verification engine)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EventBus,
    SignatureStore,
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

#: (hidden_dims, input_dim) choices for heterogeneous fleets.  The first
#: quantized layer of the smallest is 48 * 16 = 768 weights, so flip
#: indices below that bound are valid for every structure.
STRUCTURES = (
    ((24,), 48),
    ((32, 16), 64),
    ((16,), 48),
)


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


@pytest.fixture()
def manual_engine():
    """An engine that leaves re-signing to explicit :meth:`reprotect` calls."""
    return VerificationEngine(
        RadarConfig(group_size=8), num_shards=4, auto_reprotect=False
    )


def _assert_goldens_match_a_fresh_build(managed) -> None:
    """The store's goldens (and the kernel's) equal signing the model anew."""
    store = managed.protector.store
    fresh = SignatureStore(store.config).build(managed.model)
    np.testing.assert_array_equal(store.golden, fresh.golden)
    for entry, expected in zip(store, fresh):
        assert entry.layer_name == expected.layer_name
        np.testing.assert_array_equal(entry.golden, expected.golden)
        assert np.shares_memory(entry.golden, store.golden)
    assert managed.scheduler.fused.golden is store.golden


def _detect(engine, budget_s=None):
    """One detect-only tick: each model's scan result, nothing recovered."""
    outcomes = engine.tick(budget_s=budget_s, recovery_policy=RecoveryPolicy.NONE)
    return {name: outcome.scan for name, outcome in outcomes.items()}


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
    def test_tick_requires_models(self, engine):
        with pytest.raises(ProtectionError, match="no registered models"):
            engine.tick()

    def test_scan_all_requires_models(self, engine):
        with pytest.raises(ProtectionError, match="no registered models"):
            engine.scan_all()

    def test_describe_is_empty_but_allowed(self, engine):
        assert engine.describe() == []

    def test_state_of_unknown_model_rejected(self, engine):
        with pytest.raises(ProtectionError, match="not registered"):
            engine.state_of("ghost")

    def test_invalid_num_shards_rejected(self):
        with pytest.raises(ProtectionError, match="num_shards must be >= 1"):
            VerificationEngine(num_shards=0)

    def test_invalid_shards_per_pass_rejected(self):
        with pytest.raises(ProtectionError, match="shards_per_pass must be >= 1"):
            VerificationEngine(shards_per_pass=0)

    def test_slice_larger_than_shard_count_rejected(self):
        with pytest.raises(ProtectionError, match=r"within \[1, num_shards\]"):
            VerificationEngine(num_shards=2, shards_per_pass=3)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ProtectionError, match="budget_s must be positive"):
            VerificationEngine(budget_s=0.0)

    def test_per_model_override_validated_at_register(self):
        engine = VerificationEngine(num_shards=4, shards_per_pass=2)
        with pytest.raises(ProtectionError, match=r"within \[1, num_shards\]"):
            engine.register("alpha", _small_model(1), num_shards=1)


class TestRegistry:
    def test_register_protects_and_enrols(self, engine):
        managed = engine.register("alpha", _small_model(1))
        assert managed.protector.is_protected
        assert managed.scheduler.num_shards == 4
        assert "alpha" in engine
        assert len(engine) == 1
        assert engine.names() == ["alpha"]

    def test_duplicate_name_rejected(self, engine):
        engine.register("alpha", _small_model(1))
        with pytest.raises(ProtectionError):
            engine.register("alpha", _small_model(2))

    def test_empty_name_rejected(self, engine):
        with pytest.raises(ProtectionError):
            engine.register("", _small_model(1))

    def test_unregister_removes_model(self, engine):
        engine.register("alpha", _small_model(1))
        managed = engine.unregister("alpha")
        assert managed.name == "alpha"
        assert "alpha" not in engine
        with pytest.raises(ProtectionError):
            engine.unregister("alpha")

    def test_get_unknown_model_rejected(self, engine):
        with pytest.raises(ProtectionError):
            engine.get("ghost")

    def test_per_model_overrides(self, engine):
        managed = engine.register(
            "beta",
            _small_model(2),
            config=RadarConfig(group_size=4),
            num_shards=2,
        )
        assert managed.protector.config.group_size == 4
        assert managed.scheduler.num_shards == 2


class TestFleetOperations:
    def test_tick_advances_every_model(self, manual_engine):
        manual_engine.register("alpha", _small_model(1))
        manual_engine.register("beta", _small_model(2))
        results = _detect(manual_engine)
        assert set(results) == {"alpha", "beta"}
        assert all(result.pass_index == 1 for result in results.values())

    def test_clean_fleet_detects_nothing(self, manual_engine):
        manual_engine.register("alpha", _small_model(1))
        for _ in range(4):
            outcomes = manual_engine.tick()
            assert not any(outcome.attack_detected for outcome in outcomes.values())

    def test_attacked_model_is_detected_and_repaired_within_one_rotation(
        self, manual_engine
    ):
        manual_engine.register("alpha", _small_model(1), keep_golden_weights=True)
        manual_engine.register("beta", _small_model(2), keep_golden_weights=True)
        victim = manual_engine.get("alpha")
        name, layer = quantized_layers(victim.model)[0]
        flat = layer.qweight.reshape(-1)
        original = int(flat[3])
        flat[3] = np.int8(original ^ -128)
        recovered = 0
        detected_models = set()
        for _ in range(victim.scheduler.worst_case_lag_passes):
            outcomes = manual_engine.tick(recovery_policy=RecoveryPolicy.RELOAD)
            for outcome_name, outcome in outcomes.items():
                if outcome.attack_detected:
                    detected_models.add(outcome_name)
                    recovered += outcome.recovery.reloaded_weights
        assert detected_models == {"alpha"}
        assert recovered > 0
        assert int(flat[3]) == original  # RELOAD restored the golden value
        # The fleet is clean again after the repair.
        reports = manual_engine.scan_all()
        assert not any(report.attack_detected for report in reports.values())

    def test_scan_all_matches_per_model_full_scans(self, engine):
        engine.register("alpha", _small_model(1))
        model = engine.get("alpha").model
        _flip_weight(model, layer_index=1)
        reports = engine.scan_all()
        reference = engine.get("alpha").protector.scan(model)
        assert reports["alpha"].num_flagged_groups == reference.num_flagged_groups

    def test_describe_reports_one_row_per_model(self, engine):
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2), num_shards=2)
        rows = {row["model"]: row for row in engine.describe()}
        assert set(rows) == {"alpha", "beta"}
        assert rows["alpha"]["shards"] == 4
        assert rows["beta"]["shards"] == 2
        assert rows["alpha"]["storage_kb"] > 0


class TestReprotect:
    """The re-protect lifecycle for legitimate weight updates."""

    def test_reprotect_accepts_updated_weights_as_new_golden(self, manual_engine):
        manual_engine.register("alpha", _small_model(1))
        model = manual_engine.get("alpha").model
        name, layer = quantized_layers(model)[0]
        flat = layer.qweight.reshape(-1)
        # An update big enough for the 2-bit signatures to notice (MSB scale).
        flat[:8] = flat[:8] ^ np.int8(-128)
        # Before re-signing, the deliberate update looks exactly like an attack.
        assert manual_engine.scan_all()["alpha"].attack_detected
        manual_engine.reprotect("alpha")
        assert not manual_engine.scan_all()["alpha"].attack_detected

    def test_reprotect_resets_the_scan_rotation(self, manual_engine):
        managed = manual_engine.register("alpha", _small_model(1))
        for _ in range(3):
            _detect(manual_engine)
        assert managed.scheduler.passes == 3
        refreshed = manual_engine.reprotect("alpha")
        assert refreshed.scheduler.passes == 0
        assert refreshed.scheduler.max_exposure_passes == 0
        # Structural options survive the rebuild.
        assert refreshed.scheduler.num_shards == managed.scheduler.num_shards

    def test_reprotect_preserves_golden_weight_snapshot_policy(self, manual_engine):
        manual_engine.register("alpha", _small_model(1), keep_golden_weights=True)
        model = manual_engine.get("alpha").model
        name, layer = quantized_layers(model)[0]
        flat = layer.qweight.reshape(-1)
        flat[:4] = np.clip(flat[:4].astype(np.int64) + 2, -128, 127).astype(np.int8)
        manual_engine.reprotect("alpha")
        # The refreshed snapshot lets RELOAD restore the *updated* weights.
        updated = int(flat[0])
        flat[0] = np.int8(updated ^ -128)
        for _ in range(manual_engine.get("alpha").scheduler.worst_case_lag_passes):
            manual_engine.tick(recovery_policy=RecoveryPolicy.RELOAD)
        assert int(flat[0]) == updated

    def test_reprotect_unknown_model_rejected(self, manual_engine):
        with pytest.raises(ProtectionError, match="not registered"):
            manual_engine.reprotect("ghost")


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

    @settings(max_examples=8, deadline=None)
    @given(
        structures=st.lists(
            st.integers(min_value=0, max_value=len(STRUCTURES) - 1),
            min_size=2,
            max_size=4,
        ),
        flips=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=3,
            unique=True,
        ),
    )
    def test_tick_detects_exactly_what_sequential_steps_detect(
        self, structures, flips
    ):
        """Mixed structures share padded buckets; 0-3 flips anywhere."""
        config = RadarConfig(group_size=8)
        batched_engine = VerificationEngine(config, num_shards=4)
        reference_engine = VerificationEngine(config, num_shards=4)
        for engine in (batched_engine, reference_engine):
            for index, structure in enumerate(structures):
                hidden, input_dim = STRUCTURES[structure]
                engine.register(
                    f"m{index}", _small_model(100 + index, hidden, input_dim)
                )
            for model_index, weight_index in flips:
                name = f"m{model_index % len(structures)}"
                _flip_weight(engine.get(name).model, weight_index=weight_index)
        lag = max(
            batched_engine.get(name).scheduler.worst_case_lag_passes
            for name in batched_engine.names()
        )
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

        The MLPs (~70k weights) are sized within the width-disparity guard
        of the LeNet (82k), so all three ride one stacked pass with no
        sequential fallback.
        """
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("mlp-a", _small_model(1, hidden=(120,), input_dim=576))
        engine.register("mlp-b", _small_model(2, hidden=(120,), input_dim=576))
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

    def test_inline_ticks_heterogeneous_fleet(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
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
        _assert_goldens_match_a_fresh_build(managed)

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

    def test_clean_tick_runs_no_recovery(self, engine):
        engine.register("m", _small_model(1))
        for _ in range(engine.get("m").scheduler.worst_case_lag_passes):
            outcome = engine.tick()["m"]
            assert outcome.recovery is None
            assert outcome.transitions == []

    def test_reload_without_golden_weights_is_refused_on_a_clean_fleet(
        self, engine
    ):
        engine.register("m", _small_model(1))
        with pytest.raises(ProtectionError, match="golden weights"):
            engine.tick(recovery_policy=RecoveryPolicy.RELOAD)
        # Refused before anything ran: no tick was counted or scanned.
        assert engine.tick_index == 0
        assert engine.get("m").scheduler.passes == 0

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


def _flip_group(managed, layer_index: int, group: int) -> None:
    """MSB-flip one member of ``group`` of a layer (the group then mismatches)."""
    name, layer = quantized_layers(managed.model)[layer_index]
    member = int(managed.protector.store.layer(name).layout.members_of(group)[0])
    flat = layer.qweight.reshape(-1)
    flat[member] = np.int8(int(flat[member]) ^ -128)


class TestSameRows:
    """Equal shard counts and equal shard indices pick the broadcast branch."""

    @pytest.mark.parametrize(
        "shard_counts,broadcast", [((2, 2), True), ((2, 3), False)]
    )
    def test_branch_follows_shard_counts_and_verdicts_agree(
        self, monkeypatch, shard_counts, broadcast
    ):
        from repro.core.signature import StackedVerifier

        calls = []
        original = StackedVerifier.verify

        def spy(self, rows_list, scratch=None, homogeneous=False):
            flagged = original(self, rows_list, scratch, homogeneous)
            # The other branch must give the same verdicts.
            for ours, theirs in zip(
                flagged, original(self, rows_list, None, not homogeneous)
            ):
                np.testing.assert_array_equal(ours, theirs)
            calls.append((len(rows_list), homogeneous and self.shared_geometry))
            return flagged

        monkeypatch.setattr(StackedVerifier, "verify", spy)
        engine = VerificationEngine(
            RadarConfig(group_size=8), recovery_policy=RecoveryPolicy.NONE
        )
        for index, num_shards in enumerate(shard_counts):
            engine.register(f"m{index}", _small_model(60 + index), num_shards=num_shards)
        _flip_group(engine.get("m1"), 0, 0)  # group 0 lies in every shard 0
        outcomes = engine.tick()
        assert calls == [(2, broadcast)]
        assert all(outcome.scan.shard_indices == [0] for outcome in outcomes.values())
        assert outcomes["m1"].attack_detected and not outcomes["m0"].attack_detected
        for name, outcome in outcomes.items():
            managed = engine.get(name)
            _assert_flags_equal(
                outcome.scan.report.flagged_groups,
                _oracle_flags(managed, outcome.scan.shard_indices),
            )


class TestInPlaceResign:
    """A re-sign rewrites goldens in place and keeps every cached object."""

    #: (layer, group) flips of a 64 -> 32 -> 16 -> 4 MLP at G=8: 328 rows in
    #: four shards of 82.  Only the first lies in shard 0, which the
    #: detecting tick scans; the rest sit in shards 2 and 3.
    FLIPS = ((0, 0), (0, 200), (1, 30), (2, 7))

    @staticmethod
    def _model(seed: int) -> MLP:
        return _small_model(seed, hidden=(32, 16), input_dim=64)

    @pytest.mark.parametrize("signature_bits", [2, 3])
    @pytest.mark.parametrize("use_masking", [True, False])
    @pytest.mark.parametrize("use_interleave", [True, False])
    @pytest.mark.parametrize("policy", [RecoveryPolicy.ZERO, RecoveryPolicy.RELOAD])
    def test_auto_resign_matches_a_fresh_build(
        self, policy, use_interleave, use_masking, signature_bits
    ):
        config = RadarConfig(
            group_size=8,
            use_interleave=use_interleave,
            use_masking=use_masking,
            signature_bits=signature_bits,
        )
        engine = VerificationEngine(config, num_shards=4, recovery_policy=policy)
        managed = engine.register("m", self._model(1), keep_golden_weights=True)
        engine.register("bystander", self._model(2), keep_golden_weights=True)
        for layer_index, group in self.FLIPS:
            _flip_group(managed, layer_index, group)
        outcome = engine.tick()["m"]
        assert outcome.reprotected
        assert engine.bus.events(FleetEventType.DETECTION)[0].detail["shards"] == [0]
        recovered = outcome.recovery.groups_recovered
        assert recovered == len(self.FLIPS)
        resign = engine.bus.events(FleetEventType.REPROTECT)[0]
        assert resign.detail["groups_resigned"] == recovered
        _assert_goldens_match_a_fresh_build(managed)
        # The golden-weights snapshot is taken again from the current weights.
        for name, layer in quantized_layers(managed.model):
            np.testing.assert_array_equal(
                managed.protector.golden_weights[name], layer.qweight
            )
        for _ in range(managed.scheduler.worst_case_lag_passes):
            assert not any(o.attack_detected for o in engine.tick().values())

    @pytest.mark.parametrize("signature_bits", [2, 3])
    @pytest.mark.parametrize("use_masking", [True, False])
    @pytest.mark.parametrize("use_interleave", [True, False])
    def test_manual_reprotect_matches_a_fresh_build(
        self, use_interleave, use_masking, signature_bits
    ):
        config = RadarConfig(
            group_size=8,
            use_interleave=use_interleave,
            use_masking=use_masking,
            signature_bits=signature_bits,
        )
        engine = VerificationEngine(config, num_shards=4, auto_reprotect=False)
        managed = engine.register("m", self._model(3))
        # A legitimate update of every layer, wide enough to move signatures.
        for _, layer in quantized_layers(managed.model):
            flat = layer.qweight.reshape(-1)
            flat[::5] = np.clip(flat[::5].astype(np.int64) + 70, -128, 127).astype(np.int8)
        assert engine.scan_all()["m"].attack_detected
        engine.reprotect("m")
        event = engine.bus.events(FleetEventType.REPROTECT)[0]
        assert event.detail["trigger"] == "manual"
        assert event.detail["groups_resigned"] == managed.scheduler.total_groups
        _assert_goldens_match_a_fresh_build(managed)
        assert not engine.scan_all()["m"].attack_detected

    def test_reprotect_rejects_a_reshaped_layer(self, manual_engine):
        managed = manual_engine.register("m", self._model(4))
        _, layer = quantized_layers(managed.model)[-1]
        layer.qweight = layer.qweight.reshape(-1)[:-1].copy()
        with pytest.raises(ProtectionError, match="protect the model again"):
            manual_engine.reprotect("m")

    @pytest.mark.parametrize("policy", [ScanPolicy.ROUND_ROBIN, ScanPolicy.FULL])
    def test_homogeneous_bucket_verdicts_after_resign(self, policy):
        """A verifier's prestacked goldens follow the in-place re-sign.

        The bucket's three same-shaped models stack their goldens into one
        matrix.  After the victim re-signs, every later tick's verdicts
        must equal the oracle's for every model — a stale prestack would
        flag the victim's zeroed groups again.
        """
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4, policy=policy)
        for index in range(3):
            engine.register(f"m{index}", self._model(10 + index))
        engine.tick()
        (verifier,) = engine._verifiers.values()
        assert verifier.shared_geometry and isinstance(verifier._goldens, np.ndarray)
        victim = engine.get("m1")
        # Shard 1 (rows 82-163, all in layer 0) is the next slice under
        # ROUND_ROBIN.  Flip groups whose golden differs from a zeroed
        # group's, so the ZERO re-sign changes their goldens.
        golden = victim.protector.store.golden
        groups = [int(row) for row in np.flatnonzero(golden[82:164]) + 82][:3]
        assert groups
        for group in groups:
            _flip_group(victim, 0, group)
        outcomes = engine.tick()
        assert outcomes["m1"].reprotected
        np.testing.assert_array_equal(verifier._goldens[1], golden)
        for _ in range(2 * victim.scheduler.worst_case_lag_passes):
            expected = {
                name: _oracle_flags(engine.get(name), engine.get(name).scheduler.plan())
                for name in engine.names()
            }
            outcomes = engine.tick()
            for name, outcome in outcomes.items():
                _assert_flags_equal(outcome.scan.report.flagged_groups, expected[name])
                assert not outcome.attack_detected
        # The same verifier ran every tick: no rebuild restacked the goldens.
        assert all(cached is verifier for cached in engine._verifiers.values())

    def test_desynchronised_bucket_keeps_its_verifier(self):
        """Models at different rotation positions keep one cached verifier.

        156 groups in 5 shards leave shard 0 one row longer than the rest,
        so once re-signs put the models out of phase their slices differ
        in size on most ticks.  The batch keeps registration order, so the
        verifier the first tick compiled serves every later tick.
        """
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=5)
        for index in range(3):
            engine.register(f"m{index}", _small_model(40 + index))
        assert engine.get("m0").scheduler.total_groups == 156
        engine.tick()
        engine.reprotect("m1")
        engine.tick()
        engine.reprotect("m2")
        verifiers = list(engine._verifiers.values())
        for _ in range(10):
            expected = {
                name: _oracle_flags(engine.get(name), engine.get(name).scheduler.plan())
                for name in engine.names()
            }
            for name, outcome in engine.tick().items():
                _assert_flags_equal(outcome.scan.report.flagged_groups, expected[name])
        cached = list(engine._verifiers.values())
        assert len(cached) == len(verifiers)
        assert all(now is before for now, before in zip(cached, verifiers))

    def test_attacked_tick_keeps_every_cached_object(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        for index in range(2):
            engine.register(f"m{index}", self._model(20 + index))
        engine.tick()
        victim = engine.get("m0")
        view = victim.scheduler.fused
        kept = {
            "store": victim.protector.store,
            "view": view,
            "golden": view.golden,
            "plane": view._plane,
            "geometry": view.geometry,
            "layer_map": victim.layer_map,
            "scheduler": victim.scheduler,
            "planner": victim.scheduler.planner,
            "verifier": next(iter(engine._verifiers.values())),
        }
        _flip_group(victim, 0, 100)  # shard 1: the next slice
        assert engine.tick()["m0"].reprotected
        now = {
            "store": victim.protector.store,
            "view": victim.scheduler.fused,
            "golden": victim.scheduler.fused.golden,
            "plane": victim.scheduler.fused._plane,
            "geometry": victim.scheduler.fused.geometry,
            "layer_map": victim.layer_map,
            "scheduler": victim.scheduler,
            "planner": victim.scheduler.planner,
            "verifier": next(iter(engine._verifiers.values())),
        }
        assert all(now[name] is kept[name] for name in kept), [
            name for name in kept if now[name] is not kept[name]
        ]
        assert victim.scheduler.passes == 0

    def test_reprotect_events_report_the_resign_stage(self):
        from repro.telemetry.monitor import FleetTelemetry

        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        telemetry = FleetTelemetry().attach(engine)
        managed = engine.register("m", self._model(30))
        _flip_group(managed, 0, 0)
        engine.tick()
        engine.reprotect("m")
        auto, manual = engine.bus.events(FleetEventType.REPROTECT)
        assert auto.detail["trigger"] == "recovery"
        assert auto.detail["groups_resigned"] == 1
        assert manual.detail["groups_resigned"] == managed.scheduler.total_groups
        for event in (auto, manual):
            assert event.detail["elapsed_s"] > 0
        histogram = telemetry.registry.histogram("resign_s", model="m")
        assert histogram.count == 2
        assert histogram.summary()["mean"] == pytest.approx(
            (auto.detail["elapsed_s"] + manual.detail["elapsed_s"]) / 2
        )
        (row,) = telemetry.sla_report()
        assert row["mean_resign_ms"] == pytest.approx(histogram.summary()["mean"] * 1e3)


class TestBudgetedEngine:
    def test_budget_exhausted_event_for_underfunded_model(self):
        from repro.core import ScanCostModel

        config = RadarConfig(group_size=8)
        cost_model = ScanCostModel.from_radar_config(config)
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

    def test_generous_budget_funds_every_model_exactly(self, engine):
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2))
        shares = engine.allocate_budget(1.0)
        # Each model claims exactly the priced cost of its next slice.
        for name, share in shares.items():
            scheduler = engine.get(name).scheduler
            assert share == pytest.approx(scheduler.planned_slice_cost_s())
            assert share > 0
        assert sum(shares.values()) <= 1.0

    def test_flagged_history_makes_a_model_claim_first(self, manual_engine):
        from repro.core import ScanCostModel

        manual_engine.register("clean", _small_model(1), keep_golden_weights=True)
        manual_engine.register("victim", _small_model(2), keep_golden_weights=True)
        victim = manual_engine.get("victim")
        _flip_weight(victim.model)
        for _ in range(victim.scheduler.worst_case_lag_passes):
            manual_engine.tick(recovery_policy=RecoveryPolicy.RELOAD)
        # Both backlogs are identical after the shared ticks; the victim's
        # flag history tips the urgency, so under a one-slice budget it
        # claims the whole tick and the clean model gets nothing.
        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8))
        one_slice = victim.scheduler.planned_slice_cost_s()
        shares = manual_engine.allocate_budget(one_slice + cost_model.seconds_per_group)
        assert shares["victim"] == pytest.approx(one_slice)
        assert shares["clean"] == 0.0

    def test_budgeted_tick_passes_each_model_its_share(self):
        from repro.core import ScanCostModel

        config = RadarConfig(group_size=8)
        cost_model = ScanCostModel.from_radar_config(config)
        # Affords one ~39-group shard for each of the two models.
        engine = VerificationEngine(
            config, num_shards=4, budget_s=2 * cost_model.pass_cost_s(40)
        )
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2))
        for result in _detect(engine).values():
            assert result.budget_s is not None
            assert result.planned_cost_s is not None
            assert result.within_budget
            assert result.shard_indices  # both models afford their slice

    def test_underfunded_model_preempts_on_the_next_tick(self):
        from repro.core import ScanCostModel

        config = RadarConfig(group_size=8)
        cost_model = ScanCostModel.from_radar_config(config)
        # Each model's shard holds ~39 groups; the fleet budget affords one
        # shard *total* per tick, so exactly one model scans each tick.
        engine = VerificationEngine(
            config, num_shards=4, budget_s=cost_model.pass_cost_s(40)
        )
        engine.register("alpha", _small_model(1))
        engine.register("beta", _small_model(2))
        scanned_by_tick = []
        for _ in range(4):
            results = _detect(engine)
            scanned = {name for name, result in results.items() if result.shard_indices}
            assert len(scanned) == 1, "budget affords exactly one slice per tick"
            scanned_by_tick.append(scanned.pop())
        # The starved model's backlog grows, so the fleet alternates instead
        # of starving one model forever.
        assert scanned_by_tick == ["alpha", "beta", "alpha", "beta"]

    def test_explicit_budget_overrides_engine_default(self, engine):
        engine.register("alpha", _small_model(1))
        results = _detect(engine, budget_s=1.0)  # generous: everything fits
        assert results["alpha"].budget_s is not None
        assert results["alpha"].shard_indices

    def test_allocation_requires_models_and_positive_budget(self, engine):
        with pytest.raises(ProtectionError, match="no registered models"):
            engine.allocate_budget(1e-3)
        engine.register("alpha", _small_model(1))
        with pytest.raises(ProtectionError, match="budget_s must be positive"):
            engine.allocate_budget(0.0)

    def test_budget_accounting_validates_end_to_end(self, engine):
        from repro.core import ScanCostModel

        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8), alpha=0.2)
        engine.register("alpha", _small_model(1), cost_model=cost_model)
        result = _detect(engine, budget_s=1.0)["alpha"]
        # Planned cost and measured spend are both visible, and the measured
        # wall-clock calibrated the cost model.
        assert result.planned_cost_s is not None
        assert result.measured_s is not None
        assert cost_model.observations == 1


class TestBudgetFeasibility:
    """A budget no model slice can ever fit must fail fast, not scan nothing."""

    def test_register_rejects_model_the_default_budget_cannot_cover(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4, budget_s=1e-9)
        with pytest.raises(ProtectionError, match="can never cover a full scan slice"):
            engine.register("alpha", _small_model(1))

    def test_allocate_budget_rejects_infeasible_tick_budget(self, engine):
        engine.register("alpha", _small_model(1))
        with pytest.raises(ProtectionError, match="can never cover a full scan slice"):
            engine.allocate_budget(1e-9)

    def test_a_learned_price_past_the_budget_fails_the_next_tick(self):
        """Registration and a first tick passed at the prior price; one
        slow pass lifts the learned price above the budget, and the next
        budgeted tick must say so rather than hand the model empty slices
        forever."""
        from repro.core import ScanCostModel

        config = RadarConfig(group_size=8)
        fixed = ScanCostModel.from_radar_config(config)
        learned = ScanCostModel.from_radar_config(config, alpha=0.2)
        engine = VerificationEngine(
            config, num_shards=4, budget_s=fixed.pass_cost_s(40)
        )
        engine.register("steady", _small_model(1), cost_model=fixed)
        drifting = engine.register("drifting", _small_model(2), cost_model=learned)
        largest = drifting.scheduler.largest_shard_groups
        assert learned.pass_cost_s(largest) <= engine.budget_s
        engine.tick()
        learned.observe(largest, 100 * engine.budget_s)
        with pytest.raises(ProtectionError, match="can never cover") as raised:
            engine.tick()
        assert "'drifting' needs" in str(raised.value)
        assert "'steady'" not in str(raised.value)

    def test_feasible_budget_passes_the_check(self):
        from repro.core import ScanCostModel

        config = RadarConfig(group_size=8)
        cost_model = ScanCostModel.from_radar_config(config)
        engine = VerificationEngine(config, num_shards=4, budget_s=cost_model.pass_cost_s(40))
        engine.register("alpha", _small_model(1))
        assert _detect(engine)["alpha"].shard_indices
