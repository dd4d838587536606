"""Tests for the amortized scan scheduler and the fused signature fast path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ModelProtector,
    ProtectedInference,
    RadarConfig,
    ScanPolicy,
    ScanScheduler,
    SignatureStore,
)
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers


def _flip_msb(model, layer_position: int, flat_index: int) -> str:
    """Flip the MSB of one weight; returns the layer name."""
    name, layer = quantized_layers(model)[layer_position]
    flat = layer.qweight.reshape(-1)
    flat[flat_index] = np.int8(int(flat[flat_index]) ^ -128)
    return name


def _reports_equal(left, right) -> bool:
    if set(left.flagged_groups) != set(right.flagged_groups):
        return False
    return all(
        np.array_equal(left.flagged_groups[name], right.flagged_groups[name])
        for name in left.flagged_groups
    )


@pytest.fixture()
def protected():
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=21)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=8))
    protector.protect(model)
    return model, protector


class TestFusedSignatures:
    def test_fused_scan_matches_legacy_scan_clean(self, protected):
        model, protector = protected
        assert _reports_equal(protector.scan(model), protector.scan_fused(model))

    def test_fused_scan_matches_legacy_scan_corrupted(self, protected):
        model, protector = protected
        _flip_msb(model, 0, 5)
        _flip_msb(model, 1, 12)
        legacy = protector.scan(model)
        fused = protector.scan_fused(model)
        assert fused.attack_detected
        assert _reports_equal(legacy, fused)

    def test_row_slices_cover_exactly_the_requested_groups(self, protected):
        model, protector = protected
        _flip_msb(model, 0, 5)
        fused = protector.store.fused()
        flagged = fused.mismatched_rows(model)
        assert flagged.size
        rows = np.array([0, int(flagged[0]), fused.total_groups - 1], dtype=np.int64)
        np.testing.assert_array_equal(
            fused.mismatched_rows(model, rows), rows[np.isin(rows, flagged)]
        )

    def test_layer_row_ranges_match_per_layer_checksums(self, protected):
        model, protector = protected
        from repro.core.checksum import compute_signatures

        _flip_msb(model, 1, 12)
        fused = protector.store.fused()
        for entry in protector.store:
            start, end = fused.row_range(entry.layer_name)
            layer = dict(quantized_layers(model))[entry.layer_name]
            current = compute_signatures(
                layer.qweight.reshape(-1),
                entry.layout,
                entry.key,
                protector.config.signature_bits,
            )
            rows = np.arange(start, end, dtype=np.int64)
            np.testing.assert_array_equal(
                fused.mismatched_rows(model, rows) - start,
                np.nonzero(current != entry.golden)[0],
            )

    def test_out_of_range_rows_rejected(self, protected):
        model, protector = protected
        fused = protector.store.fused()
        with pytest.raises(ProtectionError):
            fused.mismatched_rows(model, np.array([fused.total_groups]))

    def test_empty_store_rejected(self):
        from repro.core.signature import FusedSignatures

        with pytest.raises(ProtectionError):
            FusedSignatures(SignatureStore(RadarConfig(group_size=8)))


class TestScanSchedulerRotation:
    def test_rotation_union_matches_full_scan_exactly(self, protected):
        model, protector = protected
        _flip_msb(model, 0, 3)
        _flip_msb(model, 2, 7)
        reference = protector.scan(model)
        scheduler = protector.scheduler(num_shards=5)
        results = [scheduler.step(model) for _ in range(scheduler.worst_case_lag_passes)]
        assert results[-1].rotation_complete
        assert all(not result.rotation_complete for result in results[:-1])
        assert _reports_equal(results[-1].rotation_report, reference)

    def test_whole_model_verified_within_shard_count_passes(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=6)
        checked = sum(
            scheduler.step(model).groups_checked for _ in range(scheduler.num_shards)
        )
        assert checked == scheduler.total_groups
        assert scheduler.max_exposure_passes < scheduler.num_shards

    def test_flip_in_not_yet_scanned_shard_caught_within_one_rotation(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=4)
        first = scheduler.step(model)
        assert not first.attack_detected
        # Corrupt a weight in the *last* shard of the rotation (not yet scanned).
        last_rows = scheduler.shard_rows(scheduler.num_shards - 1)
        fused = protector.store.fused()
        target_layer = None
        for entry in protector.store:
            start, end = fused.row_range(entry.layer_name)
            if start <= last_rows[-1] < end:
                target_layer = entry
                local_group = int(last_rows[-1] - start)
                break
        member = int(target_layer.layout.members_of(local_group)[0])
        layer = dict(quantized_layers(model))[target_layer.layer_name]
        flat = layer.qweight.reshape(-1)
        flat[member] = np.int8(int(flat[member]) ^ -128)
        detected_pass = None
        for _ in range(scheduler.num_shards - 1):
            result = scheduler.step(model)
            if result.attack_detected:
                detected_pass = result.pass_index
        assert detected_pass is not None
        assert result.rotation_complete
        assert result.rotation_report.is_flagged(target_layer.layer_name, local_group)

    def test_merging_pass_reports_equals_rotation_report(self, protected):
        from repro.core import DetectionReport

        model, protector = protected
        _flip_msb(model, 0, 3)
        _flip_msb(model, 2, 7)
        scheduler = protector.scheduler(num_shards=5)
        accumulated = DetectionReport()
        for _ in range(scheduler.worst_case_lag_passes):
            result = scheduler.step(model)
            accumulated = accumulated.merge(result.report)
        assert _reports_equal(accumulated, result.rotation_report)
        assert _reports_equal(accumulated, protector.scan(model))

    def test_run_rotation_returns_union_report(self, protected):
        model, protector = protected
        _flip_msb(model, 1, 2)
        scheduler = protector.scheduler(num_shards=3)
        report = scheduler.run_rotation(model)
        assert _reports_equal(report, protector.scan(model))


class TestRestart:
    @pytest.mark.parametrize("policy", list(ScanPolicy))
    def test_restart_equals_a_new_scheduler(self, protected, policy):
        import copy

        model, protector = protected
        scheduler = ScanScheduler(
            protector.store, num_shards=5, policy=policy, shards_per_pass=2
        )
        _flip_msb(model, 0, 3)
        _flip_msb(model, 2, 7)
        for _ in range(3):
            scheduler.step(model)
        assert scheduler.passes == 3
        expected_planner = copy.deepcopy(scheduler.planner)
        expected_planner.reset()
        scheduler.restart()
        assert scheduler.planner.state_dict() == expected_planner.state_dict()
        fresh = ScanScheduler(
            protector.store, num_shards=5, policy=policy, shards_per_pass=2
        )
        fresh.planner.load_state_dict(scheduler.planner.state_dict())
        assert scheduler.state_dict() == fresh.state_dict()
        assert scheduler.shard_info() == fresh.shard_info()
        assert scheduler.passes == fresh.passes == 0
        assert scheduler.max_exposure_passes == fresh.max_exposure_passes
        assert scheduler.mean_exposure_passes == fresh.mean_exposure_passes
        assert scheduler.total_flagged_passes == fresh.total_flagged_passes
        # And both go on alike through two rotations.
        for _ in range(2 * scheduler.worst_case_lag_passes):
            ours, theirs = scheduler.step(model), fresh.step(model)
            assert ours.shard_indices == theirs.shard_indices
            assert _reports_equal(ours.report, theirs.report)
            assert ours.rotation_complete == theirs.rotation_complete
        assert scheduler.state_dict() == fresh.state_dict()
        assert scheduler.planner.state_dict() == fresh.planner.state_dict()


class TestScanSchedulerDegenerateCases:
    def test_single_shard_degenerates_to_full_scan(self, protected):
        model, protector = protected
        _flip_msb(model, 0, 9)
        scheduler = protector.scheduler(num_shards=1)
        result = scheduler.step(model)
        assert result.rotation_complete
        assert result.groups_checked == scheduler.total_groups
        assert _reports_equal(result.report, protector.scan(model))

    def test_slice_covering_all_shards_degenerates_to_full_scan(self, protected):
        model, protector = protected
        _flip_msb(model, 0, 9)
        scheduler = protector.scheduler(num_shards=4, shards_per_pass=4)
        assert scheduler.shards_per_pass == scheduler.num_shards
        result = scheduler.step(model)
        assert result.rotation_complete
        assert result.groups_checked == scheduler.total_groups
        assert _reports_equal(result.report, protector.scan(model))

    def test_slice_larger_than_shard_count_rejected(self, protected):
        """shards_per_pass > num_shards is a configuration error, not a clamp."""
        _, protector = protected
        with pytest.raises(ProtectionError, match=r"within \[1, num_shards\]"):
            protector.scheduler(num_shards=4, shards_per_pass=9)

    def test_more_shards_than_groups_is_clipped(self, protected):
        model, protector = protected
        total = protector.store.total_groups()
        scheduler = protector.scheduler(num_shards=total * 10)
        assert scheduler.num_shards == total
        assert all(scheduler.shard_rows(i).size == 1 for i in range(scheduler.num_shards))

    def test_invalid_shard_counts_rejected(self, protected):
        _, protector = protected
        with pytest.raises(ProtectionError):
            ScanScheduler(protector.store, num_shards=0)
        with pytest.raises(ProtectionError):
            ScanScheduler(protector.store, num_shards=4, shards_per_pass=0)


class TestScanPolicies:
    def test_full_policy_scans_everything_every_pass(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=4, policy=ScanPolicy.FULL)
        assert scheduler.worst_case_lag_passes == 1
        assert scheduler.shards_per_pass == scheduler.num_shards == 4
        assert scheduler.describe()["shards_per_pass"] == 4
        for _ in range(2):
            result = scheduler.step(model)
            assert result.groups_checked == scheduler.total_groups
            assert result.rotation_complete

    def test_round_robin_cycles_in_order(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=4)
        order = [scheduler.step(model).shard_indices[0] for _ in range(8)]
        assert order == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_priority_exposure_picks_longest_unscanned_shard(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=4, policy=ScanPolicy.PRIORITY_EXPOSURE)
        scanned = [scheduler.step(model).shard_indices[0] for _ in range(4)]
        # Every shard scanned exactly once within one rotation's worth of passes.
        assert sorted(scanned) == [0, 1, 2, 3]
        # The next pick is the shard that has now waited the longest.
        assert scheduler.plan() == [scanned[0]]

    def test_priority_exposure_prefers_previously_flagged_shard_on_ties(self, protected):
        model, protector = protected
        # shards_per_pass == num_shards keeps every exposure identical, so the
        # flag-history tie-break alone decides the planning order.
        scheduler = protector.scheduler(
            num_shards=4, policy=ScanPolicy.PRIORITY_EXPOSURE, shards_per_pass=4
        )
        # Corrupt a weight inside shard 2 so its flag history becomes non-zero.
        rows = scheduler.shard_rows(2)
        fused = protector.store.fused()
        groups_by_layer = fused.rows_to_layer_groups(rows[:1])
        layer_name = next(name for name, groups in groups_by_layer.items() if groups.size)
        entry = protector.store.layer(layer_name)
        member = int(entry.layout.members_of(int(groups_by_layer[layer_name][0]))[0])
        layer = dict(quantized_layers(model))[layer_name]
        flat = layer.qweight.reshape(-1)
        flat[member] = np.int8(int(flat[member]) ^ -128)
        scheduler.step(model)
        info = scheduler.shard_info()
        assert info[2].times_flagged == 1
        assert scheduler.plan()[0] == 2

    def test_shard_info_tracks_exposure(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=3)
        scheduler.step(model)
        info = {shard.index: shard for shard in scheduler.shard_info()}
        assert info[0].exposure_passes == 0 and info[0].times_scanned == 1
        assert info[1].exposure_passes == 1 and info[1].times_scanned == 0


class TestBudgetedScheduler:
    """Budget-driven shard sizing (ScanScheduler.from_budget and step overrides)."""

    def test_from_budget_prices_every_pass_within_budget(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config)
        budget_s = cost_model.pass_cost_s(50)  # affords 50 of the 264 groups
        scheduler = protector.scheduler_for_budget(budget_s, cost_model=cost_model)
        for _ in range(scheduler.worst_case_lag_passes):
            result = scheduler.step(model)
            assert result.planned_cost_s is not None
            assert result.planned_cost_s <= budget_s
            assert result.within_budget
        assert result.rotation_complete

    def test_budgeted_rotation_still_matches_full_scan(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        _flip_msb(model, 0, 3)
        _flip_msb(model, 2, 7)
        cost_model = ScanCostModel.from_radar_config(protector.config)
        scheduler = protector.scheduler_for_budget(
            cost_model.pass_cost_s(40), cost_model=cost_model
        )
        assert _reports_equal(scheduler.run_rotation(model), protector.scan(model))

    def test_generous_budget_degenerates_to_full_scan(self, protected):
        model, protector = protected
        scheduler = protector.scheduler_for_budget(10.0)  # 10 s: everything fits
        result = scheduler.step(model)
        assert result.rotation_complete
        assert result.groups_checked == scheduler.total_groups

    def test_infeasible_budget_rejected(self, protected):
        _, protector = protected
        with pytest.raises(ProtectionError, match="cannot cover a single group"):
            protector.scheduler_for_budget(1e-12)

    def test_structural_scheduler_with_too_small_budget_rejected(self, protected):
        from repro.core import ScanCostModel

        _, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config)
        # Largest shard of a 4-shard split holds 66 groups; a 10-group budget
        # cannot cover it, and the constructor must say so instead of
        # silently overrunning.
        with pytest.raises(ProtectionError, match="largest shard"):
            protector.scheduler(
                num_shards=4,
                budget_s=cost_model.pass_cost_s(10),
                cost_model=cost_model,
            )

    def test_per_call_budget_override_narrows_the_slice(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config)
        scheduler = protector.scheduler(
            num_shards=8, shards_per_pass=4, cost_model=cost_model
        )
        one_shard = scheduler.shard_rows(0).size
        # A budget that affords only one shard narrows the 4-shard slice.
        result = scheduler.step(model, budget_s=cost_model.pass_cost_s(one_shard))
        assert len(result.shard_indices) == 1
        assert result.within_budget

    def test_underfunded_pass_scans_nothing_but_keeps_exposure_growing(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config)
        scheduler = protector.scheduler(num_shards=4, cost_model=cost_model)
        before = scheduler.max_exposure_passes
        result = scheduler.step(model, budget_s=cost_model.seconds_per_group / 2)
        assert result.shard_indices == []
        assert result.groups_checked == 0
        assert not result.rotation_complete
        assert scheduler.max_exposure_passes == before + 1

    def test_measured_cost_model_learns_from_passes(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config, alpha=0.2)
        scheduler = protector.scheduler(num_shards=4, cost_model=cost_model)
        assert cost_model.observations == 0
        scheduler.step(model)
        scheduler.step(model)
        assert cost_model.observations == 2
        assert cost_model.seconds_per_group > 0


class TestAmortizedProtectedInference:
    def test_amortized_runtime_detects_within_one_rotation(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(
            model, RadarConfig(group_size=8), num_shards=4
        )
        images = test_set.images[:16]
        outcome = runtime(images)
        assert not outcome.attack_detected
        # Corrupt one weight, then serve at most one rotation of batches.
        name, layer = quantized_layers(model)[0]
        flat = layer.qweight.reshape(-1)
        flat[0] = np.int8(int(flat[0]) ^ -128)
        detected = False
        for _ in range(runtime.scheduler.worst_case_lag_passes):
            detected = detected or runtime(images).attack_detected
        assert detected
        assert runtime.log.detections >= 1

    def test_amortized_runtime_bounds_per_pass_groups(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=8), num_shards=8)
        assert runtime.scheduler is not None
        per_pass = runtime.scheduler.total_groups / runtime.scheduler.num_shards
        result = runtime.scheduler.plan()
        assert len(result) == 1
        assert runtime.scheduler.shard_rows(result[0]).size <= int(np.ceil(per_pass))

    def test_full_mode_unchanged_by_default(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=8))
        assert runtime.scheduler is None
        outcome = runtime(test_set.images[:8])
        assert not outcome.attack_detected

    def test_budgeted_runtime_sizes_shards_from_budget(self, trained_tiny):
        from repro.core import ScanCostModel

        model, _, test_set, _ = trained_tiny
        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8))
        budget_s = cost_model.pass_cost_s(10)
        runtime = ProtectedInference(
            model, RadarConfig(group_size=8), budget_s=budget_s, cost_model=cost_model
        )
        assert runtime.scheduler is not None
        assert runtime.budget_s == budget_s
        largest = max(
            runtime.scheduler.shard_rows(i).size
            for i in range(runtime.scheduler.num_shards)
        )
        assert cost_model.pass_cost_s(largest) <= budget_s
        outcome = runtime(test_set.images[:8])
        assert not outcome.attack_detected


class TestAutoCadence:
    """check_every=None: the cadence follows budget_s and the calibrated price."""

    def test_default_cadence_is_every_batch_without_budget(self, trained_tiny):
        model, _, _, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=8))
        assert runtime.check_every == 1
        assert not runtime.auto_cadence

    def test_explicit_check_every_disables_tuning(self, trained_tiny):
        from repro.core import ScanCostModel

        model, _, _, _ = trained_tiny
        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8))
        runtime = ProtectedInference(
            model,
            RadarConfig(group_size=8),
            budget_s=cost_model.pass_cost_s(10),
            check_every=3,
        )
        assert runtime.check_every == 3
        assert not runtime.auto_cadence

    def test_budgeted_runtime_defaults_to_a_measured_cost_model(self, trained_tiny):
        from repro.core import ScanCostModel

        model, _, test_set, _ = trained_tiny
        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8), alpha=0.2)
        runtime = ProtectedInference(
            model, RadarConfig(group_size=8), budget_s=cost_model.pass_cost_s(10)
        )
        assert runtime.cost_model.alpha > 0
        assert runtime.auto_cadence
        runtime(test_set.images[:8])
        # The check's wall-clock was folded back into the estimate.
        assert runtime.cost_model.observations >= 1
        assert runtime.log.checks == 1
        assert runtime.log.check_seconds > 0

    def test_feasible_budget_checks_every_batch(self, trained_tiny):
        from repro.core import ScanCostModel

        model, _, _, _ = trained_tiny
        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8))
        runtime = ProtectedInference(
            model,
            RadarConfig(group_size=8),
            budget_s=cost_model.pass_cost_s(10),
            cost_model=cost_model,
        )
        assert runtime.auto_cadence
        assert runtime.check_every == 1

    def test_sub_group_budget_stretches_the_cadence(self, trained_tiny):
        from repro.core import ScanCostModel

        model, _, test_set, _ = trained_tiny
        cost_model = ScanCostModel.from_radar_config(RadarConfig(group_size=8))
        # Half a group per batch: from_budget would refuse this outright.
        budget_s = cost_model.seconds_per_group / 2
        runtime = ProtectedInference(
            model, RadarConfig(group_size=8), budget_s=budget_s, cost_model=cost_model
        )
        assert runtime.scheduler is not None
        assert runtime.check_every == 2  # one 1-group shard per two batches
        # The amortized per-batch price stays within the budget.
        slice_cost = cost_model.pass_cost_s(runtime.scheduler.largest_shard_groups)
        assert slice_cost / runtime.check_every <= budget_s
        # Batches between checks run unchecked; the cadence batch checks.
        assert not runtime(test_set.images[:4]).attack_detected
        assert runtime.log.checks == 0
        runtime(test_set.images[:4])
        assert runtime.log.checks == 1

    def test_cadence_retunes_as_the_measured_price_drifts(self, trained_tiny):
        from repro.core import ScanCostModel

        model, _, test_set, _ = trained_tiny
        cost_model = ScanCostModel.from_radar_config(
            RadarConfig(group_size=8), alpha=1.0
        )
        runtime = ProtectedInference(
            model,
            RadarConfig(group_size=8),
            budget_s=cost_model.pass_cost_s(10),
            cost_model=cost_model,
        )
        assert runtime.check_every == 1
        # Pretend the host turned out 1000x slower than the analytic prior.
        cost_model.observe(100, 100 * cost_model.seconds_per_group * 1000)
        runtime(test_set.images[:4])
        assert runtime.check_every > 1
        assert any("cadence retuned" in event for event in runtime.log.events)

    def test_invalid_check_every_still_rejected(self, trained_tiny):
        model, _, _, _ = trained_tiny
        with pytest.raises(ProtectionError, match="check_every must be >= 1"):
            ProtectedInference(model, RadarConfig(group_size=8), check_every=0)


class TestFullPolicyUnderBudget:
    """FULL policy + budget must rotate through all shards, not rescan a prefix."""

    def test_budgeted_full_policy_completes_a_rotation(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config)
        # 4 shards of 66 groups; the budget affords exactly one shard per pass.
        scheduler = protector.scheduler(
            num_shards=4,
            policy=ScanPolicy.FULL,
            budget_s=cost_model.pass_cost_s(66),
            cost_model=cost_model,
        )
        assert scheduler.worst_case_lag_passes == 4
        seen = set()
        for _ in range(scheduler.worst_case_lag_passes):
            result = scheduler.step(model)
            seen.update(result.shard_indices)
        assert seen == set(range(scheduler.num_shards))
        assert result.rotation_complete

    def test_budgeted_full_policy_detects_flip_in_last_shard(self, protected):
        from repro.core import ScanCostModel

        model, protector = protected
        cost_model = ScanCostModel.from_radar_config(protector.config)
        scheduler = protector.scheduler(
            num_shards=4,
            policy=ScanPolicy.FULL,
            budget_s=cost_model.pass_cost_s(66),
            cost_model=cost_model,
        )
        last_rows = scheduler.shard_rows(scheduler.num_shards - 1)
        fused = protector.store.fused()
        groups_by_layer = fused.rows_to_layer_groups(last_rows[-1:])
        layer_name = next(name for name, groups in groups_by_layer.items() if groups.size)
        entry = protector.store.layer(layer_name)
        member = int(entry.layout.members_of(int(groups_by_layer[layer_name][0]))[0])
        flat = dict(quantized_layers(model))[layer_name].qweight.reshape(-1)
        flat[member] = np.int8(int(flat[member]) ^ -128)
        try:
            detected = False
            for _ in range(scheduler.worst_case_lag_passes):
                detected = detected or scheduler.step(model).attack_detected
            assert detected
        finally:
            flat[member] = np.int8(int(flat[member]) ^ -128)

    def test_unbudgeted_full_policy_still_scans_everything_at_lag_one(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=4, policy=ScanPolicy.FULL)
        assert scheduler.worst_case_lag_passes == 1
        result = scheduler.step(model)
        assert result.groups_checked == scheduler.total_groups
        assert result.rotation_complete
