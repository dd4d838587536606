"""Tests for :mod:`repro.attacks.adaptive` (schedule-aware adversaries).

The adversarial regression satellites live here: the exploit the rotation
tracker mounts against a fixed round-robin rotation is pinned as a test
invariant (strictly worse detection latency than a schedule-blind random
attacker, p99 saturating the scheduler's declared worst-case bound), and
so is the counter-move (the jittered planner keeps the tracker's p99
strictly inside its declared bound, including in the matched-bound dense
configuration).  If a refactor of the planner or scheduler ever makes the
fixed rotation unexploitable — or the jittered rotation exploitable —
these tests fail before the committed matrix artifact does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import apply_bit_flips, flips_into_shard
from repro.attacks.adaptive import (
    AdaptiveAdversary,
    BudgetAwareAttacker,
    OracleAttacker,
    RotationTracker,
)
from repro.attacks.scripted import AttackCadence
from repro.core import ModelProtector, RadarConfig
from repro.core.fleet import FleetEvent, FleetEventType, VerificationEngine
from repro.core.recovery import RecoveryPolicy
from repro.core.scheduler import ScanPolicy
from repro.errors import AttackError
from repro.experiments.campaign import (
    DefenseConfig,
    MatrixCell,
    run_cell,
)
from repro.models.small import MLP
from repro.quant.layers import quantize_model


def _protected_model(seed=5):
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(32, 16), seed=seed)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=8))
    protector.protect(model)
    return model, protector


@pytest.fixture(scope="module")
def attack_images():
    rng = np.random.default_rng(31)
    images = rng.normal(size=(16, 48)).astype(np.float32)
    labels = rng.integers(0, 4, size=16)
    return images, labels


def _cell_latencies(adversary, defense, images, labels):
    cadence = AttackCadence.trickle(start_tick=3, interval=6, salvos=4)
    cell = MatrixCell(adversary=adversary, cadence=cadence, defense=defense)
    (row,) = run_cell(cell, images, labels, num_models=1, seed=0)
    return row


class TestFlipsIntoShard:
    def test_flips_land_inside_the_requested_shard(self):
        """Round-robin scans shards in order, so flips aimed at shard k must
        stay invisible for exactly k passes and be flagged on pass k + 1."""
        for target in range(4):
            model, protector = _protected_model()
            scheduler = protector.scheduler(
                num_shards=4, policy=ScanPolicy.ROUND_ROBIN
            )
            flips = flips_into_shard(
                model, scheduler, target, num_flips=2, rng=np.random.default_rng(1)
            )
            assert len(flips) == 2
            apply_bit_flips(model, flips)
            for clean_pass in range(target):
                assert not scheduler.step(model).attack_detected, (
                    f"shard {target}: pass {clean_pass} flagged a flip aimed "
                    "elsewhere"
                )
            assert scheduler.step(model).attack_detected, (
                f"shard {target}: the targeted pass missed the flips"
            )

    def test_rejects_invalid_flip_counts(self):
        model, protector = _protected_model()
        scheduler = protector.scheduler(num_shards=4)
        with pytest.raises(AttackError):
            flips_into_shard(
                model, scheduler, 0, num_flips=0, rng=np.random.default_rng(0)
            )


class TestAdaptiveBinding:
    def test_unbound_adversary_cannot_target(self):
        tracker = RotationTracker(AttackCadence.burst(0))
        with pytest.raises(AttackError):
            tracker.managed
        model, _ = _protected_model()
        with pytest.raises(AttackError):
            tracker.maybe_attack(model, 0, "victim")

    def test_constructor_validation(self):
        with pytest.raises(AttackError):
            RotationTracker(AttackCadence.burst(0), num_flips=0)
        with pytest.raises(AttackError):
            BudgetAwareAttacker(AttackCadence.burst(0), patience=-1)


class TestRotationTracker:
    def test_targets_the_stalest_shard_of_an_observed_rotation(self):
        """After watching one full round-robin rotation the tracker predicts
        the just-scanned shard has the longest time until its next scan."""
        model, protector = _protected_model()
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            recovery_policy=RecoveryPolicy.RELOAD,
        )
        managed = engine.register("victim", model, keep_golden_weights=True)
        tracker = RotationTracker(AttackCadence.burst(4)).bind(managed)
        for tick, shard in enumerate([0, 1, 2, 3]):
            tracker.observe_scan(tick, [shard])
        assert tracker._stalest_shard() == 3


class TestBudgetAwareAttacker:
    def _bound(self):
        model, _ = _protected_model()
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            recovery_policy=RecoveryPolicy.RELOAD,
        )
        managed = engine.register("victim", model, keep_golden_weights=True)
        return model, managed

    def test_fires_on_budget_exhaustion(self):
        model, managed = self._bound()
        attacker = BudgetAwareAttacker(
            AttackCadence.burst(2), num_flips=1, patience=10
        ).bind(managed)
        assert attacker.maybe_attack(model, 2, "victim") is None  # armed, waiting
        attacker.observe_event(
            FleetEvent(FleetEventType.BUDGET_EXHAUSTED, "victim", tick=3)
        )
        assert attacker.maybe_attack(model, 3, "victim") is not None

    def test_ignores_other_models_starvation(self):
        model, managed = self._bound()
        attacker = BudgetAwareAttacker(
            AttackCadence.burst(2), num_flips=1, patience=10
        ).bind(managed)
        attacker.observe_event(
            FleetEvent(FleetEventType.BUDGET_EXHAUSTED, "bystander", tick=3)
        )
        assert attacker.maybe_attack(model, 3, "victim") is None

    def test_patience_fallback_fires_against_a_well_funded_defense(self):
        model, managed = self._bound()
        attacker = BudgetAwareAttacker(
            AttackCadence.burst(2), num_flips=1, patience=3
        ).bind(managed)
        fired_at = None
        for tick in range(2, 12):
            if attacker.maybe_attack(model, tick, "victim") is not None:
                fired_at = tick
                break
        assert fired_at == 5  # armed at 2, patience 3
        assert attacker.max_fire_delay_ticks >= attacker.patience


class TestAdaptiveExploitInvariants:
    """The pinned exploit and its counter-move, as engine-level invariants."""

    def test_tracker_degrades_fixed_rotation_and_jitter_restores_slack(
        self, attack_images
    ):
        images, labels = attack_images
        fixed = DefenseConfig(name="fixed-rr", policy=ScanPolicy.ROUND_ROBIN)
        jittered = DefenseConfig(name="jittered", policy=ScanPolicy.JITTERED)
        dense = DefenseConfig(
            name="jittered-dense", policy=ScanPolicy.JITTERED, num_shards=2
        )

        random_fixed = _cell_latencies("random", fixed, images, labels)
        tracker_fixed = _cell_latencies("rotation", fixed, images, labels)
        tracker_jittered = _cell_latencies("rotation", jittered, images, labels)
        tracker_dense = _cell_latencies("rotation", dense, images, labels)

        # The exploit: strictly worse mean latency than a blind attacker,
        # p99 pinned to the scheduler's declared worst-case bound.
        assert (
            tracker_fixed["mean_detection_ticks"]
            > random_fixed["mean_detection_ticks"]
        )
        assert (
            tracker_fixed["p99_detection_ticks"] == tracker_fixed["p99_bound_ticks"]
        )

        # The counter-move: under jitter the tracker can no longer reach the
        # declared bound — it keeps strictly less of the worst case than the
        # fixed rotation forfeits (which is all of it).
        assert (
            tracker_jittered["p99_detection_ticks"]
            < tracker_jittered["p99_bound_ticks"]
        )
        assert (
            tracker_jittered["p99_detection_ticks"]
            / tracker_jittered["p99_bound_ticks"]
            < tracker_fixed["p99_detection_ticks"] / tracker_fixed["p99_bound_ticks"]
        )
        # Matched-bound deployment: same declared bound, no saturation.
        assert tracker_dense["p99_bound_ticks"] == tracker_fixed["p99_bound_ticks"]
        assert (
            tracker_dense["p99_detection_ticks"] < tracker_dense["p99_bound_ticks"]
        )
        # Nothing slips through anywhere.
        for row in (random_fixed, tracker_fixed, tracker_jittered, tracker_dense):
            assert row["missed"] == 0

    def test_oracle_upper_bound_respects_the_declared_bounds(self, attack_images):
        images, labels = attack_images
        for defense in (
            DefenseConfig(name="fixed-rr", policy=ScanPolicy.ROUND_ROBIN),
            DefenseConfig(name="jittered", policy=ScanPolicy.JITTERED),
        ):
            row = _cell_latencies("oracle", defense, images, labels)
            assert row["missed"] == 0
            assert row["p99_detection_ticks"] <= row["p99_bound_ticks"]
