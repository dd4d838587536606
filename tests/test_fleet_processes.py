"""Tests for the fleet engine's multi-process scanning mode (PR 7).

Covers the shared-memory publish/attach protocol (:mod:`repro.core.signature`),
the process pool plumbing (:mod:`repro.core.procpool`), the engine's process
execution lane (:mod:`repro.core.fleet`), worker telemetry, the
:class:`~repro.core.runtime.ProtectedInference` calibration round-trip, and
the CLI surface (``--processes`` / ``--workers`` validation, ``infer-demo``).

The load-bearing property: ``processes=N`` is an *execution lane*, not an
approximation — every tick's scan results must be bit-identical to the
sequential in-process engine and to the per-layer checksum oracle
(:meth:`~repro.core.signature.SignatureStore.mismatched_rows`), for any
fleet composition and any process count.
"""

from __future__ import annotations

import json
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AttachedModelPlane,
    FLEET_SCOPE,
    FaultInjection,
    FaultKind,
    FaultPlan,
    FleetEventType,
    ProtectedInference,
    ProtectionState,
    RadarConfig,
    RecoveryPolicy,
    VerificationEngine,
    shared_memory_available,
)
from repro.core.procpool import (
    ProcessScanPool,
    ScanTask,
    ScanTaskItem,
    materialize_rows,
)
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers
from repro.telemetry.monitor import FleetTelemetry
from repro.telemetry.store import StateStore

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory is unavailable on this platform",
)

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


def _assert_flags_equal(observed, expected) -> None:
    empty = np.empty(0, dtype=np.int64)
    for layer in set(observed) | set(expected):
        np.testing.assert_array_equal(
            observed.get(layer, empty), expected.get(layer, empty)
        )


def _assert_oracle_verdict(managed, outcome) -> None:
    """An engine outcome flags exactly what the checksum oracle finds."""
    rows = managed.scheduler.slice_rows(list(outcome.scan.shard_indices))
    _assert_flags_equal(
        outcome.scan.report.flagged_groups,
        managed.scheduler.fused.rows_to_layer_groups(
            managed.protector.store.mismatched_rows(managed.model, rows)
        ),
    )


def _build_mirrored_engines(structures, processes, **kwargs):
    """A process-pooled engine and its sequential twin (same models)."""
    config = RadarConfig(group_size=8)
    pooled = VerificationEngine(
        config, num_shards=4, processes=processes, **kwargs
    )
    sequential = VerificationEngine(config, num_shards=4, **kwargs)
    for engine in (pooled, sequential):
        for index, structure in enumerate(structures):
            hidden, input_dim = STRUCTURES[structure]
            engine.register(
                f"m{index}", _small_model(100 + index, hidden, input_dim)
            )
    return pooled, sequential


class TestProcessOracleEquivalence:
    """Satellite 3: process-pooled scans equal the sequential reference oracle."""

    @settings(max_examples=5, deadline=None)
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
        processes=st.integers(min_value=2, max_value=3),
    )
    def test_process_ticks_match_sequential_and_reference_oracle(
        self, structures, flips, processes
    ):
        pooled, sequential = _build_mirrored_engines(structures, processes)
        try:
            for engine in (pooled, sequential):
                for model_index, weight_index in flips:
                    name = f"m{model_index % len(structures)}"
                    _flip_weight(engine.get(name).model, 0, weight_index)
            lag = max(
                pooled.get(name).scheduler.worst_case_lag_passes
                for name in pooled.names()
            )
            for _ in range(lag):
                outcomes = pooled.tick(recovery_policy=RecoveryPolicy.NONE)
                expected = sequential.tick(recovery_policy=RecoveryPolicy.NONE)
                for name in sequential.names():
                    ours, theirs = outcomes[name], expected[name]
                    # Identical plan, identical verdict, identical lifecycle.
                    assert ours.scan.shard_indices == theirs.scan.shard_indices
                    assert ours.scan.groups_checked == theirs.scan.groups_checked
                    assert ours.state is theirs.state
                    assert ours.transitions == theirs.transitions
                    _assert_flags_equal(
                        ours.scan.report.flagged_groups,
                        theirs.scan.report.flagged_groups,
                    )
                    # And bit-identical to the per-layer checksum oracle
                    # over the scanned rows.
                    _assert_oracle_verdict(pooled.get(name), ours)
            # Same events, in the same order, for the same models.
            assert [
                (event.type, event.model) for event in pooled.bus.events()
            ] == [
                (event.type, event.model) for event in sequential.bus.events()
            ]
        finally:
            pooled.close()
            sequential.close()

    def test_lifecycle_parity_under_processes(self):
        """A flip drives the identical detect→recover→reprotect cycle."""
        pooled, sequential = _build_mirrored_engines([0, 1, 0], processes=2)
        try:
            for engine in (pooled, sequential):
                _flip_weight(engine.get("m1").model, 0, 9)
            lag = pooled.get("m1").scheduler.worst_case_lag_passes
            for _ in range(lag):
                outcomes = pooled.tick()
                expected = sequential.tick()
                for name in sequential.names():
                    assert outcomes[name].transitions == expected[name].transitions
                    assert outcomes[name].state is expected[name].state
            assert pooled.state_of("m1") is ProtectionState.PROTECTED
            assert [
                (event.type, event.model) for event in pooled.bus.events()
            ] == [
                (event.type, event.model) for event in sequential.bus.events()
            ]
            # The re-signed fleet verifies clean under continued process ticks.
            for _ in range(lag):
                outcomes = pooled.tick()
                assert not any(
                    outcome.attack_detected for outcome in outcomes.values()
                )
        finally:
            pooled.close()
            sequential.close()


class TestGenerationProtocol:
    """Re-sign republishes at a bumped generation and unlinks the old names."""

    def test_resign_bumps_generation_and_unlinks_old_segments(self):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, processes=2
        )
        try:
            for index in range(3):
                engine.register(f"m{index}", _small_model(index))
            engine.tick()  # publishes every model's plane at generation 1
            managed = engine.get("m1")
            old_spec = managed.plane_spec
            assert old_spec is not None
            assert old_spec.generation == 1
            _flip_weight(managed.model, 0, 5)
            for _ in range(managed.scheduler.worst_case_lag_passes):
                if engine.tick()["m1"].reprotected:
                    break
            assert engine.state_of("m1") is ProtectionState.PROTECTED
            new_spec = engine.get("m1").plane_spec
            assert new_spec is not None
            assert new_spec.generation == old_spec.generation + 1
            assert new_spec.plane.name != old_spec.plane.name
            # The old names are gone: a stale worker that lost its cached
            # attachment cannot accidentally re-attach the dead generation.
            for segment in (
                old_spec.plane, old_spec.indices, old_spec.signs, old_spec.golden
            ):
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=segment.name)
            with pytest.raises(FileNotFoundError):
                AttachedModelPlane(old_spec)
            # The new generation attaches read-only and carries its stamp.
            attachment = AttachedModelPlane(new_spec)
            try:
                assert attachment.generation == new_spec.generation
                for array in (
                    attachment.plane,
                    attachment.indices,
                    attachment.signs,
                    attachment.golden,
                ):
                    assert not array.flags.writeable
            finally:
                attachment.close()
            # And continued process ticks over the republished plane are clean.
            for _ in range(engine.get("m1").scheduler.worst_case_lag_passes):
                outcomes = engine.tick()
                assert not any(
                    outcome.attack_detected for outcome in outcomes.values()
                )
        finally:
            engine.close()


class TestResourceHygiene:
    """Satellite 2: close() tears everything down and the engine stays usable."""

    def test_close_unlinks_segments_and_keeps_models_scannable(self):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, processes=2
        )
        for index in range(2):
            engine.register(f"m{index}", _small_model(index))
        engine.tick(recovery_policy=RecoveryPolicy.NONE)
        specs = {name: engine.get(name).plane_spec for name in engine.names()}
        assert all(spec is not None for spec in specs.values())
        engine.close()
        for spec in specs.values():
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=spec.plane.name)
        assert all(engine.get(name).plane_spec is None for name in engine.names())
        # unshare() copied each plane back to private memory: the models are
        # fully scannable in-process after the teardown.
        for name in engine.names():
            managed = engine.get(name)
            assert not managed.protector.scan_fused(managed.model).attack_detected
        engine.close()  # idempotent
        # The engine resumes: the next process tick republishes at a bumped
        # generation with a fresh pool.
        outcomes = engine.tick(recovery_policy=RecoveryPolicy.NONE)
        try:
            assert set(outcomes) == set(engine.names())
            assert all(
                engine.get(name).plane_spec.generation == 2
                for name in engine.names()
            )
        finally:
            engine.close()

    def test_context_manager_closes_on_exit(self):
        with VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, processes=2
        ) as engine:
            engine.register("m", _small_model(1))
            engine.tick(recovery_policy=RecoveryPolicy.NONE)
            spec = engine.get("m").plane_spec
            assert spec is not None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.plane.name)

    def test_unregister_unshares_the_plane(self):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, processes=2
        )
        try:
            engine.register("keep", _small_model(1))
            engine.register("drop", _small_model(2))
            engine.tick(recovery_policy=RecoveryPolicy.NONE)
            spec = engine.get("drop").plane_spec
            engine.unregister("drop")
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=spec.plane.name)
        finally:
            engine.close()

    def test_inline_mode_never_publishes_shared_memory(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        try:
            for index in range(2):
                engine.register(f"m{index}", _small_model(index))
            engine.tick(recovery_policy=RecoveryPolicy.NONE)
            for name in engine.names():
                managed = engine.get(name)
                assert managed.plane_spec is None
                assert managed.scheduler.fused.shared_spec is None
        finally:
            engine.close()


class TestValidation:
    """Satellite 6 (engine side): the two pools are mutually exclusive."""

    def test_workers_and_processes_mutually_exclusive(self):
        with pytest.raises(ProtectionError, match="mutually exclusive"):
            VerificationEngine(RadarConfig(group_size=8), workers=2, processes=2)

    def test_processes_must_be_positive(self):
        with pytest.raises(ProtectionError, match="processes must be >= 1"):
            VerificationEngine(RadarConfig(group_size=8), processes=0)


class TestSliceDescriptors:
    """Row ranges round-trip exactly through the task wire format."""

    def test_slice_descriptor_round_trips_rows(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("m", _small_model(1, hidden=(32, 16), input_dim=64))
        scheduler = engine.get("m").scheduler
        for indices in ([0], [2], [1, 2], list(range(scheduler.num_shards))):
            descriptor = scheduler.slice_descriptor(indices)
            expected = scheduler.slice_rows(indices)
            np.testing.assert_array_equal(descriptor.rows(), expected)
            np.testing.assert_array_equal(
                materialize_rows(descriptor.row_ranges), expected
            )
            assert descriptor.num_rows == expected.size
        assert materialize_rows(()).size == 0


class TestWorkerTelemetry:
    def test_process_lanes_labelled_in_outcomes_and_report(self):
        telemetry = FleetTelemetry()
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, processes=2
        )
        telemetry.attach(engine)
        try:
            for index in range(4):
                engine.register(f"m{index}", _small_model(index))
            for _ in range(2):
                outcomes = engine.tick(recovery_policy=RecoveryPolicy.NONE)
                assert all(
                    outcome.worker is not None
                    and outcome.worker.startswith("process-")
                    for outcome in outcomes.values()
                )
            rows = telemetry.worker_report()
            assert rows
            assert all(row["worker"].startswith("process-") for row in rows)
            assert sum(row["groups_share"] for row in rows) == pytest.approx(1.0)
            assert all(row["passes"] > 0 for row in rows)
        finally:
            telemetry.detach()
            engine.close()

    def test_thread_lanes_labelled_with_pool_thread_names(self):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, workers=2
        )
        try:
            # Two structures → two kernel buckets → the thread pool runs them.
            engine.register("a", _small_model(1))
            engine.register("b", _small_model(2, hidden=(32, 16), input_dim=64))
            outcomes = engine.tick(recovery_policy=RecoveryPolicy.NONE)
            assert all(
                outcome.worker is not None and "repro-fleet" in outcome.worker
                for outcome in outcomes.values()
            )
        finally:
            engine.close()


class TestRuntimePersistence:
    """Satellite 1: ProtectedInference calibration survives a restart."""

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


#: Snappy supervision settings for fault tests: short leases so dropped
#: results redispatch fast, small backoff, generous overall deadline.
FAULT_POOL_OPTIONS = {
    "timeout_s": 10.0,
    "lease_timeout_s": 0.3,
    "retry_backoff_s": 0.01,
}


def _full_scan_tasks(engine) -> list:
    """One full-scan ScanTask per registered model, as the engine builds them."""
    tasks = []
    for task_id, name in enumerate(engine.names()):
        managed = engine.get(name)
        descriptor = managed.scheduler.slice_descriptor(
            list(range(managed.scheduler.num_shards))
        )
        tasks.append(
            ScanTask(
                task_id,
                (ScanTaskItem(name, managed.plane_spec, descriptor.row_ranges),),
                True,
            )
        )
    return tasks


class TestSupervisedPool:
    """Tentpole: the pool self-heals around dying, wedged and lying workers."""

    def _published_engine(self, num_models: int = 2):
        engine = VerificationEngine(
            RadarConfig(group_size=8), num_shards=4, processes=2
        )
        for index in range(num_models):
            engine.register(f"m{index}", _small_model(index))
        engine.tick(recovery_policy=RecoveryPolicy.NONE)  # publish planes
        return engine

    def test_worker_crash_mid_tick_heals_and_matches_oracle(self):
        # Kill faults on the first ticks' tasks: workers die mid-scan, the
        # supervisor respawns them and retries the leased tasks — and every
        # verdict still matches the fault-free sequential twin.
        plan = FaultPlan(
            [FaultInjection(task_id, FaultKind.KILL) for task_id in range(3)]
        )
        pooled, sequential = _build_mirrored_engines(
            [0, 0, 1], processes=2
        )
        pooled.fault_plan = plan
        pooled.pool_options = dict(FAULT_POOL_OPTIONS)
        try:
            for engine in (pooled, sequential):
                _flip_weight(engine.get("m1").model, 0, 7)
            for _ in range(4):
                outcomes = pooled.tick(recovery_policy=RecoveryPolicy.NONE)
                expected = sequential.tick(recovery_policy=RecoveryPolicy.NONE)
                for name in sequential.names():
                    _assert_flags_equal(
                        outcomes[name].scan.report.flagged_groups,
                        expected[name].scan.report.flagged_groups,
                    )
            stats = pooled.fault_stats()
            assert stats["faults_injected"] == len(plan)
            assert stats["worker_restarts"] >= 3
            assert stats["task_retries"] >= 3
            assert not pooled.degraded
            assert pooled._proc_pool.alive_workers() == 2
        finally:
            pooled.close()
            sequential.close()

    def test_externally_killed_worker_is_respawned(self):
        import os
        import signal

        engine = self._published_engine()
        try:
            reference = {
                name: engine.get(name).protector.scan(
                    engine.get(name).model
                ).flagged_groups
                for name in engine.names()
            }
            pool = engine._proc_pool
            assert pool is not None and pool.alive_workers() == 2
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            pool._workers[0].join(timeout=5.0)
            # The next tick detects the death, respawns in place, and the
            # verdicts stay bit-identical to the per-layer oracle.
            outcomes = engine.tick(recovery_policy=RecoveryPolicy.NONE)
            for name in engine.names():
                _assert_flags_equal(
                    outcomes[name].scan.report.flagged_groups, reference[name]
                )
            assert pool.alive_workers() == 2
            assert pool.fault_stats()["worker_restarts"] >= 1
        finally:
            engine.close()

    def test_poison_task_is_quarantined_inline(self):
        # A task that kills every worker it meets: after max_task_retries
        # deliveries the coordinator runs it inline (worker == -1) through
        # the identical kernel, so the verdict still lands.
        plan = FaultPlan(
            [FaultInjection(0, FaultKind.KILL, attempt) for attempt in range(5)]
        )
        engine = self._published_engine(num_models=1)
        pool = ProcessScanPool(
            2, max_task_retries=2, fault_plan=plan, **FAULT_POOL_OPTIONS
        )
        try:
            managed = engine.get("m0")
            _flip_weight(managed.model, 0, 7)
            reference = managed.protector.scan(managed.model)
            assert reference.attack_detected
            results = pool.run(_full_scan_tasks(engine))
            assert set(results) == {0}
            assert results[0].worker == -1  # coordinator quarantine
            fused = managed.scheduler.fused
            _assert_flags_equal(
                fused.rows_to_layer_groups(results[0].flagged[0]),
                reference.flagged_groups,
            )
            stats = pool.fault_stats()
            assert stats["tasks_quarantined"] == 1
            assert stats["worker_restarts"] == 3  # kills at attempts 0, 1, 2
            assert stats["task_retries"] == 2
        finally:
            pool.close()
            engine.close()

    def test_deadline_scales_with_task_count_and_is_surfaced(self):
        # Per-task timeout with a floor: one wedged task against a tiny
        # scaled deadline must raise, and the error must name the
        # effective deadline so operators can see what was enforced.
        plan = FaultPlan([FaultInjection(0, FaultKind.DELAY, delay_s=2.0)])
        engine = self._published_engine(num_models=1)
        pool = ProcessScanPool(
            2,
            timeout_s=0.1,
            min_timeout_s=0.2,
            lease_timeout_s=30.0,  # lease never expires: only the deadline can
            fault_plan=plan,
        )
        try:
            with pytest.raises(ProtectionError, match="deadline expired") as info:
                pool.run(_full_scan_tasks(engine))
            message = str(info.value)
            assert "per task, floor" in message
            assert "0 of 1 task(s)" in message
        finally:
            pool.close()
            engine.close()

    def test_dropped_results_redispatch_and_stale_results_drain(self):
        # A worker whose result never arrives (DROP) holds its lease until
        # expiry, then the task redispatches; a *delayed* result that
        # arrives after its retry already won is drained as stale.
        plan = FaultPlan(
            [
                FaultInjection(0, FaultKind.DROP),
                FaultInjection(1, FaultKind.DELAY, delay_s=1.0),
            ]
        )
        engine = self._published_engine(num_models=1)
        pool = ProcessScanPool(
            2, lease_timeout_s=0.1, retry_backoff_s=0.01, fault_plan=plan
        )
        try:
            managed = engine.get("m0")
            reference = managed.protector.scan(managed.model)
            fused = managed.scheduler.fused
            for _ in range(2):  # internal ids 0 then 1: DROP then DELAY
                results = pool.run(_full_scan_tasks(engine))
                _assert_flags_equal(
                    fused.rows_to_layer_groups(results[0].flagged[0]),
                    reference.flagged_groups,
                )
            assert pool.fault_stats()["task_retries"] >= 2
            # Let the delayed duplicate land, then drain it on the next run.
            import time

            time.sleep(1.2)
            results = pool.run(_full_scan_tasks(engine))
            _assert_flags_equal(
                fused.rows_to_layer_groups(results[0].flagged[0]),
                reference.flagged_groups,
            )
            assert pool.fault_stats()["stale_results_dropped"] >= 1
        finally:
            pool.close()
            engine.close()

    def test_malformed_result_is_retried(self):
        plan = FaultPlan([FaultInjection(0, FaultKind.MALFORM)])
        engine = self._published_engine(num_models=1)
        pool = ProcessScanPool(2, fault_plan=plan, **FAULT_POOL_OPTIONS)
        try:
            managed = engine.get("m0")
            reference = managed.protector.scan(managed.model)
            results = pool.run(_full_scan_tasks(engine))
            fused = managed.scheduler.fused
            _assert_flags_equal(
                fused.rows_to_layer_groups(results[0].flagged[0]),
                reference.flagged_groups,
            )
            stats = pool.fault_stats()
            assert stats["malformed_results"] == 1
            assert stats["task_retries"] == 1
        finally:
            pool.close()
            engine.close()

    def test_close_after_worker_crash_is_clean(self):
        import os
        import signal

        engine = self._published_engine(num_models=1)
        pool = ProcessScanPool(2)
        try:
            pool.run(_full_scan_tasks(engine))
            os.kill(pool._workers[1].pid, signal.SIGKILL)
            pool._workers[1].join(timeout=5.0)
        finally:
            pool.close()  # must not raise against the dead worker's queue
            engine.close()
        assert pool.alive_workers() == 0
        with pytest.raises(ProtectionError, match="closed"):
            pool.run([])


class TestDegradeRestore:
    """Repeated pool failures degrade to inline scanning, then restore."""

    def test_degrade_and_restore_roundtrip(self, monkeypatch):
        calls = {"count": 0}
        original = ProcessScanPool.run

        def flaky(self, tasks):
            calls["count"] += 1
            if calls["count"] <= 2:
                raise ProtectionError("synthetic pool failure")
            return original(self, tasks)

        monkeypatch.setattr(ProcessScanPool, "run", flaky)
        pooled, sequential = _build_mirrored_engines([0, 1], processes=2)
        pooled.degrade_after = 2
        pooled.restore_after_ticks = 2
        try:
            for engine in (pooled, sequential):
                _flip_weight(engine.get("m0").model, 0, 11)
            # Ticks 1-2 fail the pool (inline fallback), tripping DEGRADED;
            # tick 3 serves degraded; tick 4 completes the healthy window,
            # fires RESTORED and re-probes a fresh pool successfully.
            for _ in range(4):
                outcomes = pooled.tick(recovery_policy=RecoveryPolicy.NONE)
                expected = sequential.tick(recovery_policy=RecoveryPolicy.NONE)
                for name in sequential.names():
                    _assert_flags_equal(
                        outcomes[name].scan.report.flagged_groups,
                        expected[name].scan.report.flagged_groups,
                    )
                    _assert_oracle_verdict(pooled.get(name), outcomes[name])
            fleet_events = [
                event for event in pooled.bus.events()
                if event.model == FLEET_SCOPE
            ]
            assert [event.type for event in fleet_events] == [
                FleetEventType.DEGRADED,
                FleetEventType.RESTORED,
            ]
            degraded = fleet_events[0]
            assert degraded.detail["consecutive_failures"] == 2
            assert "synthetic pool failure" in degraded.detail["error"]
            assert not pooled.degraded
            stats = pooled.fault_stats()
            assert stats["pool_failures"] == 2
            assert stats["degraded_ticks"] == 2
            assert stats["degraded"] is False
            # The restored pool really ran: call 3 reached the original.
            assert calls["count"] == 3
        finally:
            pooled.close()
            sequential.close()

    def test_degraded_engine_keeps_serving_detections(self, monkeypatch):
        monkeypatch.setattr(
            ProcessScanPool,
            "run",
            lambda self, tasks: (_ for _ in ()).throw(
                ProtectionError("pool always fails")
            ),
        )
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            processes=2,
            degrade_after=1,
            restore_after_ticks=10_000,
        )
        try:
            engine.register("m", _small_model(3))
            engine.tick()
            assert engine.degraded
            _flip_weight(engine.get("m").model, 0, 5)
            detected = False
            for _ in range(engine.get("m").scheduler.worst_case_lag_passes):
                managed = engine.get("m")
                shards = managed.scheduler.plan()
                expected = managed.scheduler.fused.rows_to_layer_groups(
                    managed.protector.store.mismatched_rows(
                        managed.model, managed.scheduler.slice_rows(shards)
                    )
                )
                outcomes = engine.tick()
                _assert_flags_equal(outcomes["m"].scan.report.flagged_groups, expected)
                detected = detected or outcomes["m"].attack_detected
            assert detected  # degraded mode still detects and serves
            assert engine.fault_stats()["degraded"] is True
        finally:
            engine.close()

    def test_constructor_validation(self):
        with pytest.raises(ProtectionError, match="degrade_after"):
            VerificationEngine(
                RadarConfig(group_size=8), processes=2, degrade_after=0
            )
        with pytest.raises(ProtectionError, match="restore_after_ticks"):
            VerificationEngine(
                RadarConfig(group_size=8), processes=2, restore_after_ticks=0
            )


def _record_from_child(path, model, names) -> None:
    from repro.telemetry.store import SegmentRegistry

    SegmentRegistry(path).record(model, 1, names)


def _die_holding_segments(path, model, size) -> None:
    """A coordinator that publishes segments and dies without cleanup."""
    import os

    from repro.telemetry.store import SegmentRegistry

    segments = [
        shared_memory.SharedMemory(create=True, size=size) for _ in range(2)
    ]
    SegmentRegistry(path).record(
        model, 1, [segment.name for segment in segments]
    )
    os._exit(1)  # simulated kill: no unlink, no ledger discard


class TestSegmentReaper:
    """Satellite: restart reaps shm segments leaked by a dead coordinator."""

    def _untrack(self, *names) -> None:
        # The parent's resource tracker learned these names via fork; after
        # the reaper unlinks them, de-register to keep shutdown quiet.
        from multiprocessing import resource_tracker

        for name in names:
            try:
                resource_tracker.unregister("/" + name, "shared_memory")
            except Exception:
                pass

    def test_reap_unlinks_only_dead_pid_entries_idempotently(self, tmp_path):
        import multiprocessing

        store = StateStore(tmp_path)
        registry = store.segment_registry()
        live = shared_memory.SharedMemory(create=True, size=32)
        orphan = shared_memory.SharedMemory(create=True, size=32)
        try:
            registry.record("live-model", 1, [live.name])
            # A child records the orphan (plus a name the OS already forgot)
            # and exits: its pid is dead by the time the parent reaps.
            child = multiprocessing.Process(
                target=_record_from_child,
                args=(store.segments_path, "dead-model", [orphan.name, "ghost"]),
            )
            child.start()
            child.join()
            assert child.exitcode == 0
            reaped = store.reap_orphan_segments()
            assert reaped == [orphan.name]  # ghost dropped silently
            self._untrack(orphan.name)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=orphan.name)
            # The live entry survived, and the reap is idempotent.
            assert set(registry.entries()) == {"live-model"}
            shared_memory.SharedMemory(name=live.name).close()
            assert store.reap_orphan_segments() == []
        finally:
            live.close()
            try:
                live.unlink()
            except FileNotFoundError:
                pass

    def test_restart_reaps_after_simulated_coordinator_kill(self, tmp_path):
        import multiprocessing

        store = StateStore(tmp_path)
        child = multiprocessing.Process(
            target=_die_holding_segments,
            args=(store.segments_path, "killed", 64),
        )
        child.start()
        child.join()
        assert child.exitcode == 1
        entry = store.segment_registry().entries()["killed"]
        assert entry["pid"] == child.pid
        names = entry["segments"]
        reaped = store.reap_orphan_segments()
        assert sorted(reaped) == sorted(names)
        self._untrack(*names)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert store.segment_registry().entries() == {}
        assert store.reap_orphan_segments() == []

    def test_engine_records_and_discards_through_the_registry(self, tmp_path):
        store = StateStore(tmp_path)
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            processes=2,
            segment_registry=store.segment_registry(),
        )
        try:
            engine.register("m", _small_model(1))
            engine.tick(recovery_policy=RecoveryPolicy.NONE)
            entries = store.segment_registry().entries()
            assert set(entries) == {"m"}
            assert entries["m"]["generation"] == 1
            assert len(entries["m"]["segments"]) == 4
            # Re-sign bumps the recorded generation, not just the segments.
            _flip_weight(engine.get("m").model, 0, 5)
            for _ in range(engine.get("m").scheduler.worst_case_lag_passes):
                if engine.tick()["m"].reprotected:
                    break
            entries = store.segment_registry().entries()
            assert entries["m"]["generation"] == 2
        finally:
            engine.close()
        # Graceful close discarded everything: nothing left to reap.
        assert store.segment_registry().entries() == {}
        assert store.reap_orphan_segments() == []


class TestFaultTelemetry:
    """Fault counters mirror into FleetTelemetry under the fleet scope."""

    def test_fault_stats_mirrored_and_fleet_scope_hidden(self):
        plan = FaultPlan(
            [FaultInjection(task_id, FaultKind.KILL) for task_id in range(2)]
        )
        telemetry = FleetTelemetry()
        engine = VerificationEngine(
            RadarConfig(group_size=8),
            num_shards=4,
            processes=2,
            fault_plan=plan,
            pool_options=dict(FAULT_POOL_OPTIONS),
        )
        telemetry.attach(engine)
        try:
            for index in range(2):
                engine.register(f"m{index}", _small_model(index))
            for _ in range(2):
                engine.tick(recovery_policy=RecoveryPolicy.NONE)
            report = telemetry.fault_report()
            assert report["faults_injected"] == len(plan)
            assert report["worker_restarts"] >= 2
            assert report["task_retries"] >= 2
            assert report["degraded"] is False
            # The fleet pseudo-model never shows up as a model.
            assert FLEET_SCOPE not in telemetry.models()
        finally:
            telemetry.detach()
            engine.close()


class TestProcessCLI:
    """Satellite 6 (CLI side) and the infer-demo state round-trip."""

    def test_workers_and_processes_flags_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        code = main(
            ["serve-demo", "--workers", "2", "--processes", "2", "--passes", "1"]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_demo_runs_with_processes(self, capsys, tmp_path):
        from repro.cli import main

        output = tmp_path / "serve.json"
        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--passes", "5",
                "--processes", "2",
                "--num-flips", "2",
                "--output", str(output),
            ]
        )
        assert code == 0
        rows = json.loads(output.read_text())["rows"]
        assert rows
        capsys.readouterr()

    def test_serve_demo_chaos_seed_injects_and_reports(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--passes", "5",
                "--processes", "2",
                "--chaos-seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seeded fault plan" in out
        assert "scan pool resilience:" in out
        # The attacked model is still detected and repaired under chaos.
        assert "detected and repaired" in out

    def test_serve_demo_chaos_seed_requires_processes(self, capsys):
        from repro.cli import main

        code = main(
            ["serve-demo", "--models", "1", "--passes", "2", "--chaos-seed", "1"]
        )
        assert code == 0
        assert "ignored without --processes" in capsys.readouterr().err

    def test_serve_demo_state_dir_reaps_orphans(self, capsys, tmp_path):
        import multiprocessing

        from repro.cli import main
        from repro.telemetry.store import StateStore

        state_dir = tmp_path / "state"
        store = StateStore(state_dir)
        child = multiprocessing.Process(
            target=_die_holding_segments,
            args=(store.segments_path, "killed", 64),
        )
        child.start()
        child.join()
        code = main(
            [
                "serve-demo",
                "--models", "1",
                "--passes", "2",
                "--processes", "2",
                "--state-dir", str(state_dir),
            ]
        )
        assert code == 0
        assert "reaped 2 orphaned shared-memory segment(s)" in (
            capsys.readouterr().out
        )
        # This run's graceful close left nothing behind either.
        assert store.segment_registry().entries() == {}

    def test_infer_demo_state_roundtrip(self, capsys, tmp_path):
        from repro.cli import main

        state_dir = tmp_path / "state"
        args = [
            "infer-demo",
            "--batches", "8",
            "--batch-size", "4",
            "--state-dir", str(state_dir),
        ]
        assert main(args) == 0
        assert "cold start" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed calibration" in out
