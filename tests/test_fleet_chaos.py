"""Deterministic chaos harness for the supervised scan pool (PR 9).

The acceptance property: under **any** seeded :class:`FaultPlan` — worker
kills, scan delays, dropped and malformed results, poison tasks — every
engine tick's verdicts are bit-identical to a fault-free sequential twin
and to the per-layer checksum oracle, and the pool self-heals without the
engine degrading.  Faults may cost retries and respawns; they may never
cost correctness.

Also covers the plan itself: seeded determinism (same seed, same faults —
what makes a chaos failure reproducible from one integer), pickling (the
plan ships to workers at spawn), key uniqueness, and the campaign wrapper
(:func:`repro.experiments.fleet.fleet_chaos_campaign`) that produces the
committed ``results/fleet_chaos.json`` artifact.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FaultInjection,
    FaultKind,
    FaultPlan,
    RadarConfig,
    RecoveryPolicy,
    VerificationEngine,
    shared_memory_available,
)
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory is unavailable on this platform",
)

#: Snappy supervision for chaos runs: short leases so DROP faults
#: redispatch quickly; injected delays stay well under the lease.
CHAOS_POOL_OPTIONS = {
    "timeout_s": 10.0,
    "lease_timeout_s": 0.3,
    "retry_backoff_s": 0.01,
}

PROCESSES = 2
TICKS = 4


def _small_model(seed: int) -> MLP:
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(24,), seed=seed)
    quantize_model(model)
    return model


def _flip_weight(model, weight_index: int) -> None:
    _, layer = quantized_layers(model)[0]
    flat = layer.qweight.reshape(-1)
    flat[weight_index] = np.int8(int(flat[weight_index]) ^ -128)


def _assert_flags_equal(observed, expected) -> None:
    empty = np.empty(0, dtype=np.int64)
    for layer in set(observed) | set(expected):
        np.testing.assert_array_equal(
            observed.get(layer, empty), expected.get(layer, empty)
        )


def _mirrored_engines(plan: FaultPlan, num_models: int = 3):
    """A chaos engine under ``plan`` and its fault-free sequential twin."""
    config = RadarConfig(group_size=8)
    chaos = VerificationEngine(
        config,
        num_shards=4,
        processes=PROCESSES,
        fault_plan=plan,
        pool_options=dict(CHAOS_POOL_OPTIONS),
    )
    oracle = VerificationEngine(config, num_shards=4)
    for engine in (chaos, oracle):
        for index in range(num_models):
            engine.register(f"m{index}", _small_model(300 + index))
    return chaos, oracle


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        kwargs = dict(
            num_tasks=32,
            kill_rate=0.2,
            delay_rate=0.2,
            drop_rate=0.1,
            malform_rate=0.1,
            poison_rate=0.05,
        )
        first = FaultPlan.seeded(42, **kwargs)
        second = FaultPlan.seeded(42, **kwargs)
        assert first.injections == second.injections
        assert len(first) > 0
        # A different seed draws a different fault sequence.
        assert first.injections != FaultPlan.seeded(43, **kwargs).injections

    def test_seeded_poison_kills_consecutive_attempts(self):
        plan = FaultPlan.seeded(7, num_tasks=64, poison_rate=0.2, poison_kills=3)
        assert len(plan) > 0
        poisoned = {injection.task_id for injection in plan.injections}
        for task_id in poisoned:
            attempts = sorted(
                injection.attempt
                for injection in plan.injections
                if injection.task_id == task_id
            )
            assert attempts == [0, 1, 2]
            assert all(
                injection.kind is FaultKind.KILL
                for injection in plan.injections
                if injection.task_id == task_id
            )

    def test_lookup_is_keyed_by_task_and_attempt(self):
        plan = FaultPlan(
            [
                FaultInjection(4, FaultKind.KILL),
                FaultInjection(4, FaultKind.DELAY, attempt=1, delay_s=0.5),
            ]
        )
        assert plan.lookup(4, 0).kind is FaultKind.KILL
        assert plan.lookup(4, 1).kind is FaultKind.DELAY
        assert plan.lookup(4, 2) is None
        assert plan.lookup(5, 0) is None

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ProtectionError, match="duplicate"):
            FaultPlan(
                [
                    FaultInjection(1, FaultKind.KILL),
                    FaultInjection(1, FaultKind.DROP),
                ]
            )

    def test_plan_pickles_for_worker_spawn(self):
        plan = FaultPlan.seeded(11, num_tasks=16, kill_rate=0.3, delay_rate=0.3)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.injections == plan.injections
        for injection in plan.injections:
            assert clone.lookup(injection.task_id, injection.attempt) == injection


class TestChaosVerdictParity:
    """The tentpole property: faults never change a verdict."""

    def _run_mirrored(self, plan: FaultPlan, flip_index=None):
        chaos, oracle = _mirrored_engines(plan)
        try:
            for tick_index in range(TICKS):
                if flip_index is not None and tick_index == 1:
                    _flip_weight(chaos.get("m0").model, flip_index)
                    _flip_weight(oracle.get("m0").model, flip_index)
                outcomes = chaos.tick(recovery_policy=RecoveryPolicy.NONE)
                expected = oracle.tick(recovery_policy=RecoveryPolicy.NONE)
                for name in oracle.names():
                    assert (
                        outcomes[name].scan.shard_indices
                        == expected[name].scan.shard_indices
                    )
                    _assert_flags_equal(
                        outcomes[name].scan.report.flagged_groups,
                        expected[name].scan.report.flagged_groups,
                    )
                    # And to the per-layer checksum oracle over the same rows.
                    managed = chaos.get(name)
                    rows = managed.scheduler.slice_rows(
                        list(outcomes[name].scan.shard_indices)
                    )
                    _assert_flags_equal(
                        outcomes[name].scan.report.flagged_groups,
                        managed.scheduler.fused.rows_to_layer_groups(
                            managed.protector.store.mismatched_rows(managed.model, rows)
                        ),
                    )
            assert not chaos.degraded
            return chaos.fault_stats()
        finally:
            chaos.close()
            oracle.close()

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        flip_index=st.one_of(
            st.none(), st.integers(min_value=0, max_value=255)
        ),
    )
    def test_verdicts_bit_identical_under_seeded_faults(self, seed, flip_index):
        plan = FaultPlan.seeded(
            seed,
            num_tasks=TICKS * (PROCESSES + 2),  # covers every tick's tasks
            kill_rate=0.2,
            delay_rate=0.25,
            drop_rate=0.15,
            malform_rate=0.1,
            max_delay_s=0.02,
        )
        stats = self._run_mirrored(plan, flip_index)
        assert stats["faults_injected"] <= len(plan)
        assert stats["degraded"] is False

    def test_poison_storm_resolves_through_quarantine(self):
        # Every early task is poison: each kills workers until quarantine
        # runs it inline.  Verdicts must still match the oracle exactly.
        plan = FaultPlan(
            [
                FaultInjection(task_id, FaultKind.KILL, attempt)
                for task_id in range(2)
                for attempt in range(3)
            ]
        )
        stats = self._run_mirrored(plan, flip_index=9)
        assert stats["tasks_quarantined"] == 2
        assert stats["worker_restarts"] >= 6

    def test_full_plan_coverage_on_homogeneous_fleet(self):
        # A homogeneous fleet coalesces into one batch per tick that the
        # engine splits into exactly PROCESSES tasks, so a plan sized
        # ticks * processes is injected in full — the property the
        # campaign gate (faults_injected == faults_planned) relies on.
        plan = FaultPlan.seeded(
            5,
            num_tasks=TICKS * PROCESSES,
            kill_rate=0.3,
            drop_rate=0.2,
            malform_rate=0.2,
        )
        assert len(plan) > 0
        stats = self._run_mirrored(plan)
        assert stats["faults_injected"] == len(plan)


class TestChaosCampaign:
    """The experiment behind the committed ``results/fleet_chaos.json``."""

    def test_campaign_rows_hold_the_acceptance_bar(self):
        from repro.experiments.fleet import fleet_chaos_campaign

        rows = fleet_chaos_campaign(
            scenarios=[("kill-storm", {"kill_rate": 0.4})],
            ticks=4,
            attack_tick=1,
            seed=3,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["oracle_match"] is True
        assert row["pool_recovered"] is True
        assert row["missed"] == 0
        assert row["faults_planned"] >= 1
        assert row["faults_injected"] == row["faults_planned"]
        assert row["degraded_ticks"] == 0
        assert row["kind"] == "chaos"
