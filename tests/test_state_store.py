"""Tests for :mod:`repro.telemetry.store` and the core ``state_dict`` hooks.

The central property (hypothesis-tested): persisting a calibrated,
mid-rotation engine and restoring it into a freshly built twin yields
*identical* planner and cost behaviour — same next planned slice, same
priced costs, same budget allocation — i.e. a restarted service resumes
warm with nothing left to re-learn.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import RandomBitFlipAttack, RandomFlipConfig
from repro.core import (
    ScanCostModel,
    ProtectedInference,
    RadarConfig,
    RecoveryPolicy,
    ScanPolicy,
    VerificationEngine,
)
from repro.core.fleet import ProtectionState
from repro.core.planner import (
    PriorityExposurePlanner,
    RoundRobinPlanner,
)
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model
from repro.telemetry import StateStore, engine_state_dict, restore_engine_state
from repro.telemetry.store import STATE_VERSION, cost_model_state


def _build_engine(num_models=2, policy=ScanPolicy.PRIORITY_EXPOSURE, seed=0):
    config = RadarConfig(group_size=16)
    engine = VerificationEngine(
        config,
        num_shards=4,
        policy=policy,
        recovery_policy=RecoveryPolicy.ZERO,
        auto_reprotect=True,
    )
    for index in range(num_models):
        model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=seed + index)
        quantize_model(model)
        engine.register(
            f"model-{index}",
            model,
            keep_golden_weights=True,
            cost_model=ScanCostModel.from_radar_config(config, alpha=0.2),
        )
    return engine


class TestCoreStateDicts:
    def test_measured_cost_model_round_trip(self):
        model = ScanCostModel(1e-6, alpha=0.3)
        model.observe(100, 5e-4)
        model.observe(50, 1e-4)
        twin = ScanCostModel(9e-9, alpha=0.9)
        twin.load_state_dict(model.state_dict())
        assert twin.seconds_per_group == model.seconds_per_group
        assert twin.alpha == model.alpha
        assert twin.observations == model.observations
        assert twin.pass_cost_s(123) == model.pass_cost_s(123)

    def test_measured_cost_model_rejects_bad_state(self):
        model = ScanCostModel(1e-6, alpha=0.2)
        with pytest.raises(ProtectionError):
            model.load_state_dict({"seconds_per_group": 0.0})
        with pytest.raises(ProtectionError):
            model.load_state_dict({"seconds_per_group": 1e-6, "alpha": 2.0})

    def test_round_robin_planner_cursor_round_trip(self):
        planner = RoundRobinPlanner()
        planner.committed([0, 1, 2], {})
        twin = RoundRobinPlanner()
        twin.load_state_dict(planner.state_dict())
        views = [None] * 5  # RoundRobin only reads len()
        assert twin.order(views) == planner.order(views)

    def test_full_scan_planner_inherits_cursor_state(self):
        """FULL runs the round-robin planner, cursor state included."""
        engine = _build_engine(num_models=1, policy=ScanPolicy.FULL)
        engine.tick()
        planner = engine.get("model-0").scheduler.planner
        assert type(planner) is RoundRobinPlanner
        assert planner.state_dict() == {"cursor": 4}

    def test_priority_planner_flip_rates_round_trip(self):
        planner = PriorityExposurePlanner()
        planner.committed([0, 1, 2], {0: 3, 2: 1})
        twin = PriorityExposurePlanner()
        twin.load_state_dict(planner.state_dict())
        for shard in range(3):
            assert twin.flip_rate(shard) == planner.flip_rate(shard)
        # JSON round trip keeps integer shard keys working.
        twin.load_state_dict(json.loads(json.dumps(planner.state_dict())))
        assert twin.flip_rate(0) == planner.flip_rate(0)

    def test_jittered_planner_round_trip_resumes_mid_epoch(self):
        from repro.core.planner import JitteredPlanner

        planner = JitteredPlanner(seed=13)
        views = [None] * 6  # JitteredPlanner only reads len()
        picks = planner.order(views)[:2]
        planner.committed(picks, {picks[0]: 2})
        # JSON round trip (as the StateStore performs) mid-epoch.
        twin = JitteredPlanner()
        twin.load_state_dict(json.loads(json.dumps(planner.state_dict())))
        for _ in range(10):
            expected = planner.order(views)[:2]
            assert twin.order(views)[:2] == expected
            planner.committed(expected, {})
            twin.committed(expected, {})
        assert twin.state_dict() == planner.state_dict()

    def test_scheduler_state_rejects_resharding(self):
        engine = _build_engine(num_models=1)
        scheduler = engine.get("model-0").scheduler
        state = scheduler.state_dict()
        state["num_shards"] = 8
        with pytest.raises(ProtectionError, match="shards"):
            scheduler.load_state_dict(state)

    def test_cost_model_state_tags_types(self):
        measured = ScanCostModel(1e-6, alpha=0.2)
        assert cost_model_state(measured)["type"] == "measured"
        state = cost_model_state(ScanCostModel(2e-7))
        assert state["type"] == "fixed"
        assert state["seconds_per_group"] == 2e-7


class TestEngineStateRoundTrip:
    def _calibrate(self, engine, ticks=5, attack_seed=1):
        RandomBitFlipAttack(
            RandomFlipConfig(num_flips=4, msb_only=True, seed=attack_seed)
        ).run(engine.get("model-0").model, "model-0")
        for _ in range(ticks):
            engine.tick()

    def test_round_trip_preserves_calibration_planner_and_state(self, tmp_path):
        engine = _build_engine()
        self._calibrate(engine)
        store = StateStore(tmp_path)
        store.save_engine(engine)

        twin = _build_engine()
        report = store.restore_engine(twin)
        assert report["restored"] == engine.names()
        assert not report["skipped"] and not report["partial"]
        for name in engine.names():
            saved = engine.get(name)
            restored = twin.get(name)
            assert restored.state is saved.state
            assert (
                restored.cost_model.seconds_per_group
                == saved.cost_model.seconds_per_group
            )
            assert restored.cost_model.observations == saved.cost_model.observations
            assert restored.scheduler.plan() == saved.scheduler.plan()
            assert restored.scheduler.passes == saved.scheduler.passes
        assert twin.tick_index == engine.tick_index
        # Both engines allocate a shared budget identically after restore.
        budget = max(
            saved.min_feasible_budget_s() for saved in map(engine.get, engine.names())
        ) * len(engine) * 2
        assert twin.allocate_budget(budget) == engine.allocate_budget(budget)

    def test_jittered_engine_round_trip_resumes_identical_rotation(self, tmp_path):
        """A restored jittered engine replans the exact same randomized
        rotation — the defense's unpredictability must not leak determinism
        across restarts, nor desync from its persisted epoch."""
        engine = _build_engine(policy=ScanPolicy.JITTERED)
        self._calibrate(engine)
        store = StateStore(tmp_path)
        store.save_engine(engine)

        twin = _build_engine(policy=ScanPolicy.JITTERED)
        for name in twin.names():
            # A cold twin would draw a different rotation; restore must
            # overwrite it (seed included), not merely happen to match.
            twin.get(name).scheduler.planner.seed = 999
        report = store.restore_engine(twin)
        assert report["restored"] == engine.names()
        assert not report["partial"]
        for name in engine.names():
            saved = engine.get(name).scheduler
            restored = twin.get(name).scheduler
            assert restored.plan() == saved.plan()
            assert (
                restored.planner.state_dict() == saved.planner.state_dict()
            )
        # The resumed twins stay in lockstep across further ticks.
        for _ in range(6):
            engine.tick()
            twin.tick()
            for name in engine.names():
                assert (
                    twin.get(name).scheduler.plan()
                    == engine.get(name).scheduler.plan()
                )

    def test_full_policy_snapshot_of_the_retired_planner_restores_partially(self):
        """FULL used to run its own ``FullScanPlanner``; such a snapshot
        restores everything but the planner cursor, and says so."""
        engine = _build_engine(num_models=1, policy=ScanPolicy.FULL)
        self._calibrate(engine, ticks=2)
        payload = json.loads(json.dumps(engine_state_dict(engine)))
        payload["models"]["model-0"]["planner"]["type"] = "FullScanPlanner"
        twin = _build_engine(num_models=1, policy=ScanPolicy.FULL)
        report = restore_engine_state(twin, payload)
        assert report["restored"] == ["model-0"]
        assert report["partial"] == [
            "model-0: planner type changed (FullScanPlanner -> RoundRobinPlanner); "
            "planner state not restored"
        ]
        saved, restored = engine.get("model-0"), twin.get("model-0")
        assert restored.scheduler.state_dict() == saved.scheduler.state_dict()
        assert restored.cost_model.seconds_per_group == saved.cost_model.seconds_per_group
        assert restored.scheduler.plan() == [0, 1, 2, 3]

    def test_restore_into_empty_dir_reports_cold_start(self, tmp_path):
        engine = _build_engine(num_models=1)
        assert StateStore(tmp_path).restore_engine(engine) is None

    def test_restore_skips_unregistered_and_reports_partial(self, tmp_path):
        engine = _build_engine(num_models=2)
        self._calibrate(engine)
        store = StateStore(tmp_path)
        store.save_engine(engine)
        # A twin with fewer models and a different planner type.
        twin = _build_engine(num_models=1, policy=ScanPolicy.ROUND_ROBIN)
        report = store.restore_engine(twin)
        assert report["restored"] == ["model-0"]
        assert report["skipped"] == ["model-1"]
        assert any("planner type changed" in note for note in report["partial"])
        # Calibration still restored despite the planner mismatch.
        assert (
            twin.get("model-0").cost_model.seconds_per_group
            == engine.get("model-0").cost_model.seconds_per_group
        )

    def test_restore_replaces_analytic_with_persisted_measured_model(self, tmp_path):
        engine = _build_engine(num_models=1)
        self._calibrate(engine)
        store = StateStore(tmp_path)
        store.save_engine(engine)
        config = RadarConfig(group_size=16)
        twin = VerificationEngine(config, num_shards=4)
        model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=0)
        quantize_model(model)
        managed = twin.register("model-0", model)  # fixed-price default
        fixed = managed.cost_model
        assert fixed.alpha == 0
        store.restore_engine(twin)
        saved = engine.get("model-0").cost_model
        # Loaded in place: the scheduler stays the price's one owner.
        assert managed.cost_model is fixed
        assert managed.cost_model is managed.scheduler.cost_model
        assert fixed.state_dict() == saved.state_dict()
        # The restored price learns from the next tick, in place.
        twin.tick()
        assert managed.cost_model is managed.scheduler.cost_model
        assert fixed.observations == saved.observations + 1

    def test_persisted_measured_entry_restores_exactly(self):
        # The on-disk shape of a learned price; a fixed-price registration
        # takes its price, alpha and observation count verbatim.
        entry = {
            "type": "measured",
            "seconds_per_group": 3.25e-7,
            "alpha": 0.3,
            "observations": 17,
        }
        payload = engine_state_dict(_build_engine(num_models=1))
        payload["models"]["model-0"]["cost_model"] = entry
        twin = VerificationEngine(
            RadarConfig(group_size=16), num_shards=4, policy=ScanPolicy.PRIORITY_EXPOSURE
        )
        model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=0)
        quantize_model(model)
        managed = twin.register("model-0", model)
        report = restore_engine_state(twin, payload)
        assert report["restored"] == ["model-0"] and not report["partial"]
        assert cost_model_state(managed.cost_model) == entry

    def test_restore_under_another_grouping_keeps_fresh_pricing(self, tmp_path):
        engine = _build_engine(num_models=1)
        self._calibrate(engine)
        store = StateStore(tmp_path)
        store.save_engine(engine)
        regrouped = RadarConfig(group_size=32)
        twin = VerificationEngine(regrouped, num_shards=4, policy=ScanPolicy.PRIORITY_EXPOSURE)
        model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=0)
        quantize_model(model)
        fresh = ScanCostModel.from_radar_config(regrouped, alpha=0.2)
        twin.register("model-0", model, cost_model=fresh)
        report = store.restore_engine(twin)
        assert report["restored"] == ["model-0"]
        assert any("pricing fingerprint changed" in note for note in report["partial"])
        managed = twin.get("model-0")
        assert managed.cost_model is fresh
        assert managed.cost_model.observations == 0

    def test_version_mismatch_is_fatal(self, tmp_path):
        engine = _build_engine(num_models=1)
        payload = engine_state_dict(engine)
        payload["version"] = STATE_VERSION + 1
        with pytest.raises(ProtectionError, match="version"):
            restore_engine_state(engine, payload)

    def test_lifecycle_state_round_trips_flagged(self, tmp_path):
        engine = _build_engine(num_models=1)
        engine.get("model-0").state = ProtectionState.FLAGGED
        store = StateStore(tmp_path)
        store.save_engine(engine)
        twin = _build_engine(num_models=1)
        store.restore_engine(twin)
        assert twin.state_of("model-0") is ProtectionState.FLAGGED

    def test_save_is_atomic_and_json(self, tmp_path):
        engine = _build_engine(num_models=1)
        store = StateStore(tmp_path)
        path = store.save_engine(engine)
        payload = json.loads(path.read_text())
        assert payload["version"] == STATE_VERSION
        assert "model-0" in payload["models"]
        assert not list(tmp_path.glob("*.tmp"))

    # The tentpole property: persist -> restore -> behaviourally identical.
    @settings(max_examples=15, deadline=None)
    @given(
        ticks=st.integers(min_value=0, max_value=9),
        num_flips=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_round_trip_is_behaviourally_identical(self, ticks, num_flips, seed):
        engine = _build_engine()
        RandomBitFlipAttack(
            RandomFlipConfig(num_flips=num_flips, msb_only=True, seed=seed)
        ).run(engine.get("model-1").model, "model-1")
        for _ in range(ticks):
            engine.tick()
        payload = json.loads(json.dumps(engine_state_dict(engine)))

        twin = _build_engine()
        restore_engine_state(twin, payload)
        for name in engine.names():
            saved, restored = engine.get(name), twin.get(name)
            assert restored.scheduler.plan() == saved.scheduler.plan()
            assert restored.cost_model.pass_cost_s(17) == saved.cost_model.pass_cost_s(17)
            assert restored.urgency() == saved.urgency()
            assert restored.state is saved.state
            saved_planner = saved.scheduler.planner
            if isinstance(saved_planner, PriorityExposurePlanner):
                for shard in range(saved.scheduler.num_shards):
                    assert restored.scheduler.planner.flip_rate(
                        shard
                    ) == saved_planner.flip_rate(shard)


class TestCalibrationEntries:
    def test_protect_scan_style_calibration_round_trip(self, tmp_path):
        config = RadarConfig(group_size=16)
        store = StateStore(tmp_path)
        cold = store.measured_cost_model("setup-a", config)
        assert cold.observations == 0
        cold.observe(200, 1e-3)
        cold.observe(200, 1e-3)
        store.save_calibration("setup-a", cold)

        warm = StateStore(tmp_path).measured_cost_model("setup-a", config)
        assert warm.observations == 2
        assert warm.seconds_per_group == cold.seconds_per_group
        # Unknown names stay on the analytic prior.
        other = store.measured_cost_model("setup-b", config)
        assert other.observations == 0

    def test_multiple_entries_coexist(self, tmp_path):
        config = RadarConfig(group_size=16)
        store = StateStore(tmp_path)
        a = store.measured_cost_model("a", config)
        a.observe(10, 1e-4)
        store.save_calibration("a", a)
        b = store.measured_cost_model("b", config)
        b.observe(10, 9e-4)
        store.save_calibration("b", b)
        assert store.load_calibration("a")["observations"] == 1
        assert store.load_calibration("b")["seconds_per_group"] == pytest.approx(
            b.seconds_per_group
        )

    def test_mismatched_pricing_fingerprint_is_not_restored(self, tmp_path):
        store = StateStore(tmp_path)
        coarse = RadarConfig(group_size=16)
        calibrated = store.measured_cost_model("setup", coarse)
        calibrated.observe(100, 1e-3)
        store.save_calibration("setup", calibrated, radar_config=coarse)
        # Same setup name, different grouping: the persisted per-group
        # price is meaningless here and must fall back to the analytic prior.
        fine = RadarConfig(group_size=64)
        cold = store.measured_cost_model("setup", fine)
        assert cold.observations == 0
        assert cold.seconds_per_group != calibrated.seconds_per_group
        # The matching config still restores warm.
        warm = store.measured_cost_model("setup", coarse)
        assert warm.observations == 1

    def test_calibration_version_check(self, tmp_path):
        store = StateStore(tmp_path)
        store.calibration_path.write_text(json.dumps({"version": 99, "entries": {}}))
        with pytest.raises(ProtectionError, match="version"):
            store.load_calibration("a")


class TestTelemetryStore:
    def _telemetry_with_detection(self, engine):
        from repro.telemetry import FleetTelemetry

        telemetry = FleetTelemetry().attach(engine)
        RandomBitFlipAttack(
            RandomFlipConfig(num_flips=5, msb_only=True, seed=3)
        ).run(engine.get("model-0").model, "model-0")
        telemetry.note_injection("model-0")
        for _ in range(5):
            engine.tick()
        return telemetry

    def test_cold_start_returns_false(self, tmp_path):
        from repro.telemetry import FleetTelemetry

        store = StateStore(tmp_path)
        assert store.restore_telemetry(FleetTelemetry()) is False

    def test_sla_percentiles_survive_restart(self, tmp_path):
        from repro.telemetry import FleetTelemetry

        store = StateStore(tmp_path)
        engine = _build_engine()
        telemetry = self._telemetry_with_detection(engine)
        before = {row["model"]: row for row in telemetry.sla_report()}
        assert np.isfinite(before["model-0"]["p99_detection_ticks"])
        store.save_telemetry(telemetry)
        telemetry.detach()

        # A fresh process: new engine, new monitor, empty registry.
        restarted = _build_engine()
        reborn = FleetTelemetry().attach(restarted)
        assert store.restore_telemetry(reborn) is True
        after = {row["model"]: row for row in reborn.sla_report()}
        assert after["model-0"]["p99_detection_ticks"] == (
            before["model-0"]["p99_detection_ticks"]
        )
        assert after["model-0"]["injections"] == before["model-0"]["injections"]

    def test_restore_merges_windows_across_runs(self, tmp_path):
        from repro.telemetry import FleetTelemetry

        store = StateStore(tmp_path)
        first = FleetTelemetry()
        for value in (1.0, 2.0):
            first.registry.histogram("detection_latency_ticks", model="m").observe(
                value
            )
        store.save_telemetry(first)

        second = FleetTelemetry()
        second.registry.histogram("detection_latency_ticks", model="m").observe(9.0)
        assert store.restore_telemetry(second) is True
        merged = second.registry.histogram("detection_latency_ticks", model="m")
        # Persisted samples precede this run's: the window spans both runs.
        assert merged.ordered_window().tolist() == [1.0, 2.0, 9.0]

    def test_telemetry_file_is_atomic_json_with_version(self, tmp_path):
        from repro.telemetry import FleetTelemetry

        store = StateStore(tmp_path)
        telemetry = FleetTelemetry()
        telemetry.registry.counter("ticks_total").inc(4)
        path = store.save_telemetry(telemetry)
        payload = json.loads(path.read_text())
        assert payload["version"] == STATE_VERSION
        assert payload["kind"] == "telemetry"
        assert not list(tmp_path.glob("*.tmp"))

    def test_telemetry_version_mismatch_is_fatal(self, tmp_path):
        from repro.telemetry import FleetTelemetry

        store = StateStore(tmp_path)
        store.telemetry_path.write_text(json.dumps({"version": 99, "metrics": {}}))
        with pytest.raises(ProtectionError, match="version"):
            store.restore_telemetry(FleetTelemetry())


class TestRuntimePersistence:
    """ProtectedInference calibration survives a restart."""

    def _runtime(self, seed: int = 0, group_size: int = 16) -> ProtectedInference:
        model = MLP(input_dim=64, num_classes=4, hidden_dims=(48, 24), seed=seed)
        quantize_model(model)
        return ProtectedInference(
            model, config=RadarConfig(group_size=group_size), budget_s=2e-4
        )

    def _calibrate(self, runtime: ProtectedInference, checks: int = 4) -> None:
        rng = np.random.default_rng(7)
        for _ in range(checks * runtime.check_every):
            runtime(rng.normal(size=(4, 64)))
        assert runtime.cost_model.observations > 0

    def test_state_roundtrip_restores_price_and_rederives_cadence(self):
        runtime = self._runtime()
        self._calibrate(runtime)
        state = json.loads(json.dumps(runtime.state_dict()))  # JSON-safe
        fresh = self._runtime(seed=1)
        fresh.load_state_dict(state)
        assert fresh.cost_model.seconds_per_group == pytest.approx(
            runtime.cost_model.seconds_per_group
        )
        assert fresh.cost_model.observations == runtime.cost_model.observations
        # Same budget + same restored price → the auto-cadence re-derives to
        # the same value (re-derived, not copied: see load_state_dict).
        assert fresh.check_every == runtime.check_every

    def test_state_store_roundtrip_and_fingerprint_guard(self, tmp_path):
        store = StateStore(tmp_path)
        runtime = self._runtime()
        self._calibrate(runtime)
        store.save_runtime(
            "demo", runtime, radar_config=runtime.protector.config
        )
        fresh = self._runtime(seed=1)
        assert store.restore_runtime(
            "demo", fresh, radar_config=fresh.protector.config
        )
        assert fresh.cost_model.seconds_per_group == pytest.approx(
            runtime.cost_model.seconds_per_group
        )
        # A snapshot learned under another grouping is refused (cold start).
        other = self._runtime(seed=2, group_size=8)
        assert not store.restore_runtime(
            "demo", other, radar_config=other.protector.config
        )
        # So is a name that was never persisted.
        assert not store.restore_runtime(
            "ghost", fresh, radar_config=fresh.protector.config
        )
