"""Tests for :mod:`repro.core.protector` and :mod:`repro.core.runtime`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import PbfaConfig, ProgressiveBitFlipAttack, apply_bit_flips
from repro.attacks.bitflip import make_bit_flip
from repro.core import ModelProtector, RadarConfig
from repro.core.detector import RadarDetector
from repro.core.recovery import RecoveryPolicy
from repro.core.runtime import ProtectedInference
from repro.errors import ProtectionError
from repro.models.training import evaluate_accuracy
from repro.quant.bitops import MSB_POSITION
from repro.quant.layers import quantized_layers


def _flip_one_msb(model, flat_index=0):
    name, layer = quantized_layers(model)[0]
    flip = make_bit_flip(name, layer.qweight, flat_index, MSB_POSITION)
    apply_bit_flips(model, [flip])
    return flip


class TestModelProtector:
    def test_requires_protect_before_scan(self, trained_tiny):
        model, _, _, _ = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        assert not protector.is_protected
        with pytest.raises(ProtectionError):
            protector.scan(model)
        with pytest.raises(ProtectionError):
            protector.storage_overhead_kb()

    def test_protect_then_clean_scan(self, trained_tiny):
        model, _, _, _ = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        store = protector.protect(model)
        assert protector.is_protected
        assert protector.store is store
        assert not protector.scan(model).attack_detected

    def test_default_config_used_when_none_given(self, trained_tiny):
        model, _, _, _ = trained_tiny
        protector = ModelProtector()
        assert protector.config.group_size == 512
        protector.protect(model)
        assert not protector.scan(model).attack_detected

    def test_scan_and_recover_roundtrip(self, trained_tiny):
        model, _, test_set, clean_accuracy = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model)
        flip = _flip_one_msb(model, flat_index=10)
        summary = protector.scan_and_recover(model)
        assert summary.attack_detected
        assert summary.detection.num_flagged_groups == 1
        assert summary.recovery.zeroed_weights > 0
        # The corrupted weight is gone.
        layer = dict(quantized_layers(model))[flip.layer_name]
        assert layer.qweight.reshape(-1)[10] == 0
        # Accuracy stays close to clean (a single zeroed group barely matters).
        assert evaluate_accuracy(model, test_set) >= clean_accuracy - 0.1

    def test_scan_and_recover_runs_the_kernel(self, trained_tiny, monkeypatch):
        model, _, _, _ = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model)
        _flip_one_msb(model, flat_index=10)
        oracle = protector.scan(model)

        def no_oracle(self, model):
            raise AssertionError("scan_and_recover ran the per-layer oracle")

        monkeypatch.setattr(RadarDetector, "scan", no_oracle)
        summary = protector.scan_and_recover(model)
        assert set(summary.detection.flagged_groups) == set(oracle.flagged_groups)
        for name, groups in oracle.flagged_groups.items():
            np.testing.assert_array_equal(summary.detection.flagged_groups[name], groups)
        assert summary.recovery.zeroed_weights > 0

    def test_reload_policy_needs_golden_snapshot(self, trained_tiny):
        model, _, _, _ = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model, keep_golden_weights=False)
        _flip_one_msb(model)
        report = protector.scan(model)
        with pytest.raises(ProtectionError):
            protector.recover(model, report, policy=RecoveryPolicy.RELOAD)

    def test_reload_policy_with_golden_restores_exactly(self, trained_tiny):
        model, _, _, _ = trained_tiny
        name, layer = quantized_layers(model)[0]
        original = layer.qweight.copy()
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model, keep_golden_weights=True)
        _flip_one_msb(model, flat_index=4)
        summary = protector.scan_and_recover(model, policy=RecoveryPolicy.RELOAD)
        assert summary.recovery.reloaded_weights > 0
        np.testing.assert_array_equal(layer.qweight, original)

    def test_storage_overhead_matches_store(self, trained_tiny):
        model, _, _, _ = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=8))
        protector.protect(model)
        assert protector.storage_overhead_kb() == pytest.approx(
            protector.store.storage_kilobytes()
        )

    def test_detects_real_pbfa_attack(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model)
        attack = ProgressiveBitFlipAttack(PbfaConfig(num_flips=3, seed=11))
        attack.run(model, test_set.images, test_set.labels)
        summary = protector.scan_and_recover(model)
        assert summary.attack_detected


class TestProtectedInference:
    def test_clean_inference_matches_unprotected(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        images = test_set.images[:16]
        expected = model(images).argmax(axis=1)
        runtime = ProtectedInference(model, RadarConfig(group_size=16))
        outcome = runtime(images)
        assert not outcome.attack_detected
        np.testing.assert_array_equal(outcome.predictions, expected)
        assert runtime.log.batches == 1
        assert runtime.log.detections == 0

    def test_detects_and_recovers_midstream(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=16))
        runtime(test_set.images[:8])
        _flip_one_msb(model, flat_index=6)
        outcome = runtime(test_set.images[:8])
        assert outcome.attack_detected
        assert outcome.flagged_groups == 1
        assert outcome.recovered_weights > 0
        assert runtime.log.detections == 1
        assert len(runtime.log.events) == 1
        # The zeroed group's signature still differs from the golden one (the
        # golden signatures describe the *clean* weights, not the zeroed
        # substitute), so later scans keep flagging it — re-zeroing is
        # idempotent and the predictions stay stable.
        followup = runtime(test_set.images[:8])
        assert followup.flagged_groups == 1
        np.testing.assert_array_equal(followup.predictions, outcome.predictions)

    def test_check_every_skips_batches(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=16), check_every=3)
        _flip_one_msb(model)
        first = runtime(test_set.images[:4])
        second = runtime(test_set.images[:4])
        third = runtime(test_set.images[:4])
        assert not first.attack_detected
        assert not second.attack_detected
        assert third.attack_detected

    def test_invalid_check_every(self, trained_tiny):
        model, _, _, _ = trained_tiny
        with pytest.raises(ProtectionError):
            ProtectedInference(model, RadarConfig(group_size=16), check_every=0)

    def test_storage_overhead_exposed(self, trained_tiny):
        model, _, _, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=16))
        assert runtime.storage_overhead_kb() > 0
