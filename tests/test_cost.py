"""Tests for :mod:`repro.core.cost` (scan cost models and budget planning)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RadarConfig
from repro.core.cost import (
    AnalyticScanCostModel,
    MeasuredScanCostModel,
    ScanCostModel,
    plan_rotation,
)
from repro.errors import ProtectionError
from repro.memsim.timing import TimingConfig, TimingModel


class TestAnalyticScanCostModel:
    def test_price_matches_timing_model(self):
        radar = RadarConfig(group_size=8)
        model = AnalyticScanCostModel.from_radar_config(radar)
        timing = TimingModel()
        assert model.seconds_per_group == timing.scan_seconds_per_group(radar)
        assert model.pass_cost_s(100) == pytest.approx(
            100 * timing.scan_seconds_per_group(radar)
        )

    def test_interleave_is_pricier_than_contiguous(self):
        interleaved = AnalyticScanCostModel.from_radar_config(
            RadarConfig(group_size=64, use_interleave=True)
        )
        contiguous = AnalyticScanCostModel.from_radar_config(
            RadarConfig(group_size=64, use_interleave=False)
        )
        assert interleaved.seconds_per_group > contiguous.seconds_per_group

    def test_custom_timing_config_scales_price(self):
        radar = RadarConfig(group_size=8)
        slow = AnalyticScanCostModel.from_radar_config(
            radar, TimingConfig(frequency_hz=0.5e9)
        )
        fast = AnalyticScanCostModel.from_radar_config(radar)
        assert slow.seconds_per_group == pytest.approx(2 * fast.seconds_per_group)

    def test_groups_within_is_floor(self):
        model = AnalyticScanCostModel(1e-3)
        assert model.groups_within(2.5e-3) == 2
        assert model.groups_within(0.5e-3) == 0
        assert model.groups_within(0.0) == 0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ProtectionError):
            AnalyticScanCostModel(0.0)
        model = AnalyticScanCostModel(1e-6)
        with pytest.raises(ProtectionError):
            model.pass_cost_s(-1)
        with pytest.raises(ProtectionError):
            model.groups_within(-1.0)

    def test_satisfies_protocol(self):
        assert isinstance(AnalyticScanCostModel(1e-6), ScanCostModel)
        assert isinstance(MeasuredScanCostModel(1e-6), ScanCostModel)


class TestMeasuredScanCostModel:
    def test_ewma_converges_towards_observations(self):
        model = MeasuredScanCostModel(1e-6, alpha=0.5)
        for _ in range(20):
            model.observe(100, 100 * 4e-6)  # the host is 4x slower than the prior
        assert model.seconds_per_group == pytest.approx(4e-6, rel=1e-3)
        assert model.observations == 20

    def test_prior_comes_from_analytic_model(self):
        radar = RadarConfig(group_size=8)
        measured = MeasuredScanCostModel.from_radar_config(radar)
        analytic = AnalyticScanCostModel.from_radar_config(radar)
        assert measured.seconds_per_group == analytic.seconds_per_group

    def test_empty_pass_is_ignored(self):
        model = MeasuredScanCostModel(1e-6)
        model.observe(0, 1.0)
        assert model.seconds_per_group == 1e-6
        assert model.observations == 0

    @pytest.mark.parametrize("alpha", [1.0, 0.2])
    def test_zero_length_pass_keeps_the_price_usable(self, alpha):
        model = MeasuredScanCostModel(1e-6, alpha=alpha)
        for _ in range(50):
            model.observe(100, 0.0)
        assert model.seconds_per_group == 1e-6
        assert model.observations == 0
        assert model.groups_within(1e-3) == 1000
        assert plan_rotation(5000, 1e-3, model).groups_per_pass == 1000
        restored = MeasuredScanCostModel(1.0)
        restored.load_state_dict(model.state_dict())
        assert restored.seconds_per_group == model.seconds_per_group

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ProtectionError):
            MeasuredScanCostModel(1e-6, alpha=0.0)
        with pytest.raises(ProtectionError):
            MeasuredScanCostModel(-1.0)
        model = MeasuredScanCostModel(1e-6)
        with pytest.raises(ProtectionError):
            model.observe(5, -1.0)


class TestPlanRotation:
    """The acceptance property: planned passes never cost more than the budget."""

    @settings(max_examples=200, deadline=None)
    @given(
        total_groups=st.integers(min_value=1, max_value=50_000),
        seconds_per_group=st.floats(min_value=1e-9, max_value=1e-3),
        budget_groups=st.floats(min_value=1.0, max_value=1e5),
    )
    def test_per_pass_cost_never_exceeds_budget(
        self, total_groups, seconds_per_group, budget_groups
    ):
        cost_model = AnalyticScanCostModel(seconds_per_group)
        budget_s = budget_groups * seconds_per_group  # affords >= 1 group
        plan = plan_rotation(total_groups, budget_s, cost_model)
        assert plan.per_pass_cost_s <= budget_s
        assert 1 <= plan.groups_per_pass <= total_groups
        assert plan.num_shards * plan.groups_per_pass >= total_groups
        assert plan.rotation_passes == plan.num_shards

    @settings(max_examples=100, deadline=None)
    @given(
        total_groups=st.integers(min_value=1, max_value=50_000),
        group_size=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 512, 1024]),
        budget_groups=st.floats(min_value=1.0, max_value=1e5),
    )
    def test_property_holds_across_radar_group_sizes(
        self, total_groups, group_size, budget_groups
    ):
        cost_model = AnalyticScanCostModel.from_radar_config(
            RadarConfig(group_size=group_size)
        )
        budget_s = budget_groups * cost_model.seconds_per_group
        plan = plan_rotation(total_groups, budget_s, cost_model)
        assert plan.per_pass_cost_s <= budget_s

    def test_infeasible_budget_rejected(self):
        cost_model = AnalyticScanCostModel(1e-3)
        with pytest.raises(ProtectionError, match="cannot cover a single group"):
            plan_rotation(100, 0.5e-3, cost_model)

    def test_generous_budget_degenerates_to_full_scan(self):
        cost_model = AnalyticScanCostModel(1e-6)
        plan = plan_rotation(100, 1.0, cost_model)
        assert plan.num_shards == 1
        assert plan.groups_per_pass == 100

    def test_invalid_arguments_rejected(self):
        cost_model = AnalyticScanCostModel(1e-6)
        with pytest.raises(ProtectionError):
            plan_rotation(0, 1.0, cost_model)
        with pytest.raises(ProtectionError):
            plan_rotation(10, 0.0, cost_model)
