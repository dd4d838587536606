"""Layer-streamed full checks of :class:`ProtectedInference`.

In full-check mode the runtime verifies each layer on a helper thread
while the forward runs, and each layer's first weight read waits for its
own verdict.  These tests pin that the streamed call is indistinguishable
from the sequential order it replaces (``scan_fused`` -> ``recover`` ->
``model(images)``): same verdicts, same recovery counts, bit-identical
logits and weights.  They also cover its failure paths and the helper
thread's lifetime.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelProtector, ProtectedInference, RadarConfig
from repro.core.interleave import PAD_INDEX
from repro.core.recovery import RecoveryPolicy
from repro.core.signature import FusedSignatures
from repro.errors import ProtectionError
from repro.models.small import MLP, LeNet5
from repro.quant.layers import quantize_model, quantized_layers

CONFIG = RadarConfig(group_size=16)


def _model(kind: str, seed: int):
    if kind == "conv":
        return quantize_model(LeNet5(num_classes=4, seed=seed))
    return quantize_model(MLP(input_dim=48, num_classes=4, hidden_dims=(37, 24), seed=seed))


def _images(kind: str, seed: int) -> np.ndarray:
    shape = (2, 3, 32, 32) if kind == "conv" else (2, 48)
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def _flip(model, layer_name: str, flat_index: int) -> None:
    """Flip the MSB of one weight in place (the adopted plane sees it)."""
    flat = dict(quantized_layers(model))[layer_name].qweight.reshape(-1)
    flat[flat_index] = np.int8(int(flat[flat_index]) ^ -128)


def _flip_sites(store, placement: str, rng: np.random.Generator):
    """``(layer, flat index)`` flips for one placement scenario."""
    names = store.layer_names()

    def in_group(name: str, row: int):
        members = store.layer(name).layout.groups[row]
        return name, int(rng.choice(members[members != PAD_INDEX]))

    def groups_of(name: str, count: int):
        num_groups = store.layer(name).layout.num_groups
        rows = rng.choice(num_groups, size=min(count, num_groups), replace=False)
        return [in_group(name, int(row)) for row in rows]

    if placement == "first":
        return groups_of(names[0], 1)
    if placement == "last":
        return groups_of(names[-1], 1)
    if placement == "several":
        return groups_of(names[int(rng.integers(len(names)))], 3)
    # "padded": a group holding padding slots, in whichever layer has one.
    padded = [
        (name, row)
        for name in names
        for row in np.flatnonzero((store.layer(name).layout.groups == PAD_INDEX).any(axis=1))
    ]
    assert padded, "the test models must have a layer with padded groups"
    name, row = padded[int(rng.integers(len(padded)))]
    return [in_group(name, int(row))]


def _runtime_and_reference(kind: str, seed: int, policy: RecoveryPolicy):
    """A streamed runtime and a sequential reference over identical models."""
    streamed_model, reference_model = _model(kind, seed), _model(kind, seed)
    runtime = ProtectedInference(streamed_model, CONFIG, policy=policy)
    reference = ModelProtector(CONFIG)
    keep_golden = policy is RecoveryPolicy.RELOAD
    reference.protect(reference_model, keep_golden_weights=keep_golden)
    if keep_golden:
        # The runtime keeps no golden snapshot of its own; re-protecting
        # with one is the public way to make RELOAD available to it.
        runtime.protector.protect(streamed_model, keep_golden_weights=True)
        runtime.protector.store.fused().adopt(dict(quantized_layers(streamed_model)))
    return runtime, reference, reference_model


def _assert_same_weights(model, other) -> None:
    for (name, layer), (_, other_layer) in zip(quantized_layers(model), quantized_layers(other)):
        np.testing.assert_array_equal(layer.qweight, other_layer.qweight, err_msg=name)


class TestStreamedMatchesSequential:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["conv", "mlp"]),
        placement=st.sampled_from(["first", "last", "several", "padded"]),
        policy=st.sampled_from(list(RecoveryPolicy)),
        seed=st.integers(0, 2**16),
    )
    def test_verdicts_recovery_logits_and_weights(self, kind, placement, policy, seed):
        runtime, reference, reference_model = _runtime_and_reference(kind, seed, policy)
        images = _images(kind, seed)
        sites = _flip_sites(reference.store, placement, np.random.default_rng(seed))
        for name, index in sites:
            _flip(runtime.model, name, index)
            _flip(reference_model, name, index)
        # Two calls: the second re-flags whatever the first left flagged
        # (a zeroed group may still differ from its golden signature).
        outcomes = []
        for _ in range(2):
            outcome = runtime(images)
            outcomes.append(outcome)
            detection = reference.scan_fused(reference_model)
            recovery = reference.recover(reference_model, detection, policy=policy)
            reference_model.eval()
            logits = reference_model(images)
            assert outcome.attack_detected == detection.attack_detected
            assert outcome.flagged_groups == detection.num_flagged_groups
            assert outcome.recovered_weights == (
                recovery.zeroed_weights + recovery.reloaded_weights
            )
            assert outcome.logits.dtype == logits.dtype
            assert outcome.logits.tobytes() == logits.tobytes()
            _assert_same_weights(runtime.model, reference_model)
        assert outcomes[0].attack_detected
        assert all(layer.weight_source is None for _, layer in quantized_layers(runtime.model))

    def test_reload_without_golden_weights_is_refused_as_before(self):
        model = _model("mlp", 0)
        runtime = ProtectedInference(model, CONFIG, policy=RecoveryPolicy.RELOAD)
        with pytest.raises(ProtectionError, match="golden weights"):
            runtime(_images("mlp", 0))
        assert runtime.log.checks == 0

    def test_flip_between_calls_reaches_the_next_call(self):
        """No float weights outlive a call: the next call sees a new flip."""
        model = _model("conv", 3)
        runtime = ProtectedInference(model, CONFIG, policy=RecoveryPolicy.NONE)
        images = _images("conv", 3)
        first = runtime(images)
        assert not first.attack_detected
        name, layer = quantized_layers(model)[1]
        _flip(model, name, 5)
        second = runtime(images)
        assert second.attack_detected
        model.eval()
        plain = model(images)
        assert second.logits.tobytes() == plain.tobytes()
        assert second.logits.tobytes() != first.logits.tobytes()


class TestStreamedFailures:
    def test_verifier_error_is_raised_from_forward(self, monkeypatch):
        model = _model("conv", 1)
        runtime = ProtectedInference(model, CONFIG)
        images = _images("conv", 1)
        expected = runtime(images).logits
        last_start, _ = runtime.protector.store.fused().row_range(
            runtime.protector.store.layer_names()[-1]
        )
        original = FusedSignatures.verify_rows

        def failing(self, plane, rows, scratch=None):
            if rows.size and rows[0] == last_start:
                raise RuntimeError("kernel fault on the helper thread")
            return original(self, plane, rows, scratch)

        monkeypatch.setattr(FusedSignatures, "verify_rows", failing)
        with pytest.raises(RuntimeError, match="kernel fault"):
            runtime(images)
        assert all(layer.weight_source is None for _, layer in quantized_layers(model))
        monkeypatch.undo()
        outcome = runtime(images)
        assert not outcome.attack_detected
        assert outcome.logits.tobytes() == expected.tobytes()

    def test_bad_input_joins_the_verifier_and_clears_gates(self):
        model = _model("conv", 2)
        runtime = ProtectedInference(model, CONFIG)
        images = _images("conv", 2)
        name, layer = quantized_layers(model)[-1]
        _flip(model, name, 0)
        with pytest.raises(Exception):
            runtime(np.zeros((1, 5, 7, 7), dtype=np.float32))
        assert all(layer.weight_source is None for _, layer in quantized_layers(model))
        # The call settled every layer before raising: the last layer's
        # flagged group was zeroed, as the check-first order left it.
        group = runtime.protector.store.layer(name).layout.group_of(0)
        members = runtime.protector.store.layer(name).layout.member_indices(
            np.array([group])
        )
        assert not layer.qweight.reshape(-1)[members].any()
        assert runtime.log.checks == 1
        outcome = runtime(images)
        assert runtime.log.checks == 2
        model.eval()
        assert outcome.logits.tobytes() == model(images).tobytes()


def _verifier_threads():
    return [thread for thread in threading.enumerate() if thread.name == "radar-verifier"]


class TestHelperThread:
    def test_one_thread_per_runtime_exits_when_collected(self):
        before = set(_verifier_threads())
        model = _model("mlp", 4)
        runtime = ProtectedInference(model, CONFIG)
        assert set(_verifier_threads()) == before  # created on the first check
        for _ in range(3):
            runtime(_images("mlp", 4))
        started = [thread for thread in _verifier_threads() if thread not in before]
        assert len(started) == 1
        assert runtime.log.check_seconds > 0
        assert runtime.log.check_wait_seconds >= 0
        del runtime
        gc.collect()
        started[0].join(timeout=5)
        assert not started[0].is_alive()

    def test_scheduler_path_starts_no_thread(self):
        before = set(_verifier_threads())
        model = _model("mlp", 5)
        runtime = ProtectedInference(model, CONFIG, num_shards=2)
        for _ in range(3):
            runtime(_images("mlp", 5))
        assert set(_verifier_threads()) == before
        assert runtime.log.check_wait_seconds == 0


def test_streamed_calls_under_aggressive_thread_switching():
    """Several runtimes at once (more threads than cores), switching every µs.

    A lost verdict or a weight read before its verdict would change a
    call's logits or flagged count against the sequential reference.
    """
    cases = []
    for seed in range(3):
        runtime, reference, reference_model = _runtime_and_reference(
            "conv", seed, RecoveryPolicy.ZERO
        )
        for name, index in _flip_sites(reference.store, "several", np.random.default_rng(seed)):
            _flip(runtime.model, name, index)
            _flip(reference_model, name, index)
        detection = reference.scan_fused(reference_model)
        reference.recover(reference_model, detection)
        reference_model.eval()
        images = _images("conv", seed)
        # After one recovery the reference is at its fixed point: every
        # later call flags what the recovered weights still flag, with the
        # same logits.
        followup = reference.scan_fused(reference_model)
        wanted = (followup.num_flagged_groups, reference_model(images).tobytes())
        cases.append((runtime, images, detection, wanted))
    failures = []

    def drive(runtime, images, detection, wanted):
        first = runtime(images)
        if first.flagged_groups != detection.num_flagged_groups:
            failures.append("first call verdict")
        for _ in range(15):
            outcome = runtime(images)
            if (outcome.flagged_groups, outcome.logits.tobytes()) != wanted:
                failures.append("steady-state call")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=case) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
