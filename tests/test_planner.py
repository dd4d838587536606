"""Tests for :mod:`repro.core.planner` (pluggable shard-selection planners).

The PRIORITY_EXPOSURE satellite properties live here: under injected flips a
flagged shard is revisited sooner than round-robin would revisit it, while no
shard's exposure ever exceeds the rotation bound (``worst_case_lag_passes``)
— the flip-rate bias is sub-integer, so it reorders exposure ties without
being able to starve a clean shard.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JitteredPlanner,
    ModelProtector,
    PriorityExposurePlanner,
    RadarConfig,
    RoundRobinPlanner,
    ScanPolicy,
    ShardView,
)
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers


def _views(exposures, flagged=None):
    flagged = flagged or [0] * len(exposures)
    return [
        ShardView(
            index=index,
            num_groups=4,
            exposure_passes=exposure,
            times_scanned=0,
            times_flagged=flags,
        )
        for index, (exposure, flags) in enumerate(zip(exposures, flagged))
    ]


@pytest.fixture()
def protected():
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=21)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=8))
    protector.protect(model)
    return model, protector


def _flip_weight_in_shard(model, protector, scheduler, shard_index):
    """Flip the MSB of one weight inside a given shard; returns an undo closure."""
    rows = scheduler.shard_rows(shard_index)
    fused = protector.store.fused()
    groups_by_layer = fused.rows_to_layer_groups(rows[:1])
    layer_name = next(name for name, groups in groups_by_layer.items() if groups.size)
    entry = protector.store.layer(layer_name)
    member = int(entry.layout.members_of(int(groups_by_layer[layer_name][0]))[0])
    flat = dict(quantized_layers(model))[layer_name].qweight.reshape(-1)
    flat[member] = np.int8(int(flat[member]) ^ -128)

    def undo():
        flat[member] = np.int8(int(flat[member]) ^ -128)

    return undo


class TestPlannerOrdering:
    def test_full_scan_planner_orders_everything(self, protected):
        """FULL is the round-robin planner with every shard in the slice."""
        _, protector = protected
        scheduler = protector.scheduler(num_shards=3, policy=ScanPolicy.FULL)
        assert type(scheduler.planner) is RoundRobinPlanner
        assert scheduler.plan() == [0, 1, 2]

    def test_round_robin_cycles_and_advances_on_commit(self):
        planner = RoundRobinPlanner()
        views = _views([0, 0, 0, 0])
        assert planner.order(views) == [0, 1, 2, 3]
        planner.committed([0], {0: 0})
        assert planner.order(views) == [1, 2, 3, 0]
        planner.committed([1, 2], {1: 0, 2: 0})
        assert planner.order(views) == [3, 0, 1, 2]

    def test_priority_exposure_orders_by_exposure_then_flags_then_index(self):
        planner = PriorityExposurePlanner()
        order = planner.order(_views([1, 3, 3, 0], flagged=[0, 0, 1, 0]))
        assert order == [2, 1, 0, 3]  # exposure 3 twice; flags break the tie

    def test_priority_exposure_bias_only_reorders_ties(self):
        planner = PriorityExposurePlanner()
        # A huge observed flip rate on shard 0...
        planner.committed([0], {0: 5})
        # ...still cannot beat a strictly larger exposure elsewhere.
        assert planner.order(_views([0, 1]))[0] == 1
        # But it wins any exposure tie.
        assert planner.order(_views([1, 1]))[0] == 0

    def test_flip_rate_decays_when_scans_come_back_clean(self):
        planner = PriorityExposurePlanner(ewma_alpha=0.5)
        planner.committed([0], {0: 3})
        hot = planner.flip_rate(0)
        planner.committed([0], {0: 0})
        assert 0 < planner.flip_rate(0) < hot

    def test_invalid_weights_rejected(self):
        with pytest.raises(ProtectionError):
            PriorityExposurePlanner(flip_bias_weight=1.0)
        with pytest.raises(ProtectionError):
            PriorityExposurePlanner(ewma_alpha=0.0)


class TestPriorityExposureUnderFlips:
    """The satellite properties, driven through a real scheduler."""

    def test_flagged_shard_revisited_sooner_than_round_robin(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(
            num_shards=5, policy=ScanPolicy.PRIORITY_EXPOSURE, shards_per_pass=2
        )
        undo = _flip_weight_in_shard(model, protector, scheduler, 1)
        try:
            first = scheduler.step(model)  # scans [0, 1] and flags shard 1
            assert first.shard_indices == [0, 1]
            assert first.attack_detected
            second = scheduler.step(model)  # scans [2, 3]
            assert second.shard_indices == [2, 3]
        finally:
            undo()
        # Third pass: shard 4 is the most exposed either way, but the spare
        # slot goes back to the *flagged* shard 1 — cyclic round-robin order
        # would hand it to shard 0 first.
        assert scheduler.plan()[:2] == [4, 1]

    def test_exposure_never_exceeds_rotation_bound_under_flips(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(
            num_shards=5, policy=ScanPolicy.PRIORITY_EXPOSURE, shards_per_pass=2
        )
        bound = scheduler.worst_case_lag_passes
        rng = np.random.default_rng(11)
        undo = None
        for _ in range(10 * bound):
            # Keep re-flipping random shards so flip-rate biases churn.
            if undo is not None:
                undo()
            undo = _flip_weight_in_shard(
                model, protector, scheduler, int(rng.integers(scheduler.num_shards))
            )
            scheduler.step(model)
            assert scheduler.max_exposure_passes <= bound
        if undo is not None:
            undo()

    @settings(max_examples=50, deadline=None)
    @given(
        num_shards=st.integers(min_value=1, max_value=12),
        flag_pattern=st.lists(
            st.integers(min_value=0, max_value=11), min_size=0, max_size=20
        ),
    )
    def test_starvation_bound_property(self, num_shards, flag_pattern):
        """Pure planner-level property: whatever flags are observed, selecting
        the planner's top choice every pass keeps exposure within the bound."""
        planner = PriorityExposurePlanner()
        exposures = [0] * num_shards
        flags = [0] * num_shards
        for step in range(4 * num_shards + len(flag_pattern)):
            views = [
                ShardView(
                    index=i,
                    num_groups=4,
                    exposure_passes=exposures[i],
                    times_scanned=step,
                    times_flagged=flags[i],
                )
                for i in range(num_shards)
            ]
            chosen = planner.order(views)[0]
            flagged_now = (
                1 if step < len(flag_pattern) and flag_pattern[step] % num_shards == chosen else 0
            )
            flags[chosen] += flagged_now
            planner.committed([chosen], {chosen: flagged_now})
            exposures = [e + 1 for e in exposures]
            exposures[chosen] = 0
            assert max(exposures) <= num_shards


def _drive_jittered(planner, num_shards, shards_per_pass, passes):
    """Simulate a scheduler driving ``planner``: scan the top slice each
    pass; return per-shard first/last scan passes and all inter-scan gaps."""
    views = _views([0] * num_shards)
    first, last, gaps = {}, {}, []
    for tick in range(passes):
        picks = planner.order(views)[:shards_per_pass]
        planner.committed(picks, {shard: 0 for shard in picks})
        for shard in picks:
            first.setdefault(shard, tick)
            if shard in last:
                gaps.append(tick - last[shard])
            last[shard] = tick
    return first, gaps


class TestJitteredPlanner:
    """The randomized-rotation defense: unpredictable, yet provably bounded."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_shards=st.integers(min_value=1, max_value=10),
        shards_per_pass=st.integers(min_value=1, max_value=3),
    )
    def test_starvation_bound_holds_for_any_seed(
        self, seed, num_shards, shards_per_pass
    ):
        """For ANY RNG seed, every shard is scanned within the planner's
        declared bound — ``rotation_lag_multiplier`` rotations — both at
        first coverage and between consecutive scans, forever after."""
        shards_per_pass = min(shards_per_pass, num_shards)
        rotation = -(-num_shards // shards_per_pass)
        bound = JitteredPlanner.rotation_lag_multiplier * rotation
        planner = JitteredPlanner(seed=seed)
        first, gaps = _drive_jittered(
            planner, num_shards, shards_per_pass, passes=6 * bound
        )
        assert set(first) == set(range(num_shards)), "a shard was never scanned"
        assert max(first.values()) <= bound - 1
        if gaps:
            assert max(gaps) <= bound

    def test_schedule_is_seed_dependent_but_reproducible(self):
        orders = set()
        for seed in range(8):
            planner = JitteredPlanner(seed=seed)
            order = tuple(planner.order(_views([0] * 6))[:6])
            assert tuple(sorted(order)) == tuple(range(6))
            orders.add(order)
            again = tuple(JitteredPlanner(seed=seed).order(_views([0] * 6))[:6])
            assert order == again, "same seed must replay the same schedule"
        assert len(orders) > 1, "the rotation must actually vary across seeds"

    #: Each seed's first three epoch permutations at 4 and 6 shards, as
    #: drawn by ``default_rng([seed, epoch])``.  Literal, so any change to
    #: the draw (a bias, a different key formula) shows here.
    EPOCHS = {
        (4, 0): [[0, 1, 2, 3], [3, 0, 2, 1], [2, 1, 3, 0]],
        (4, 1): [[1, 3, 0, 2], [1, 2, 0, 3], [0, 1, 2, 3]],
        (4, 2): [[2, 1, 0, 3], [3, 0, 1, 2], [0, 1, 3, 2]],
        (4, 3): [[2, 3, 1, 0], [3, 1, 2, 0], [2, 1, 3, 0]],
        (6, 0): [[5, 4, 0, 1, 2, 3], [3, 0, 2, 1, 5, 4], [2, 1, 5, 3, 4, 0]],
        (6, 1): [[1, 3, 0, 5, 4, 2], [4, 1, 2, 0, 3, 5], [4, 0, 1, 2, 3, 5]],
        (6, 2): [[2, 5, 4, 1, 0, 3], [3, 0, 1, 5, 2, 4], [0, 1, 4, 3, 5, 2]],
        (6, 3): [[2, 3, 5, 1, 4, 0], [5, 4, 3, 1, 2, 0], [2, 1, 3, 5, 0, 4]],
    }

    @pytest.mark.parametrize("num_shards,seed", sorted(EPOCHS))
    def test_epoch_permutations_are_pinned(self, num_shards, seed):
        planner = JitteredPlanner(seed)
        views = _views([0] * num_shards)
        epochs = []
        for _ in range(3):
            order = planner.order(views)
            epochs.append(order)
            # Flagged shards change nothing: the draw is uniform.
            planner.committed(order, {shard: 1 for shard in order})
        assert epochs == self.EPOCHS[(num_shards, seed)]

    def test_older_snapshot_with_bias_fields_replays_its_schedule(self):
        """Snapshots written before the planner dropped its flip-rate EWMA
        carry ``hot_bias`` and ``flip_rate``; they restore and replay the
        schedule those versions served (pinned literally)."""
        payload = {
            "seed": 13,
            "epoch": 1,
            "remaining": [0, 3],
            "carryover": [],
            "hot_bias": 0.0,
            "flip_rate": {"0": 0.0, "1": 0.0, "2": 0.25, "3": 0.0, "4": 0.0},
        }
        planner = JitteredPlanner()
        planner.load_state_dict(payload)
        views = _views([0] * 5)
        picks = []
        for _ in range(6):
            pick = planner.order(views)[:2]
            planner.committed(pick, {shard: 0 for shard in pick})
            picks.append(pick)
        assert picks == [[0, 3], [0, 1], [4, 3], [2, 0], [2, 3], [4, 1]]
        assert "hot_bias" not in planner.state_dict()

    def test_reset_advances_the_epoch(self):
        planner = JitteredPlanner(seed=3)
        planner.order(_views([0] * 4))
        planner.committed([0, 1], {0: 3, 1: 0})
        epoch_before = planner.state_dict()["epoch"]
        planner.reset()
        assert planner.state_dict()["epoch"] > epoch_before, (
            "reset must advance the epoch so an observed permutation never replays"
        )

    def test_state_round_trip_resumes_identical_schedule(self):
        views = _views([0] * 5)
        planner = JitteredPlanner(seed=9)
        picks = planner.order(views)[:2]
        planner.committed(picks, {shard: 1 for shard in picks})
        resumed = JitteredPlanner()
        resumed.load_state_dict(planner.state_dict())
        for _ in range(12):
            expected = planner.order(views)[:2]
            assert resumed.order(views)[:2] == expected
            planner.committed(expected, {shard: 0 for shard in expected})
            resumed.committed(expected, {shard: 0 for shard in expected})
        assert resumed.state_dict() == planner.state_dict()

    def test_scheduler_declares_doubled_lag_and_respects_it(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(
            num_shards=5, policy=ScanPolicy.JITTERED, shards_per_pass=2
        )
        fixed = protector.scheduler(
            num_shards=5, policy=ScanPolicy.ROUND_ROBIN, shards_per_pass=2
        )
        bound = scheduler.worst_case_lag_passes
        assert bound == 2 * fixed.worst_case_lag_passes
        for _ in range(4 * bound):
            scheduler.step(model)
            assert scheduler.max_exposure_passes <= bound

    def test_jittered_scheduler_still_detects_flips(self, protected):
        model, protector = protected
        scheduler = protector.scheduler(num_shards=5, policy=ScanPolicy.JITTERED)
        undo = _flip_weight_in_shard(model, protector, scheduler, 2)
        try:
            detected_at = None
            for tick in range(scheduler.worst_case_lag_passes):
                if scheduler.step(model).attack_detected:
                    detected_at = tick
                    break
            assert detected_at is not None, (
                "a flip must be caught within the declared worst-case lag"
            )
        finally:
            undo()
