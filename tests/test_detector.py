"""Tests for :mod:`repro.core.detector` (run-time signature comparison)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import apply_bit_flips
from repro.attacks.bitflip import make_bit_flip
from repro.attacks.profiles import AttackProfile
from repro.core import RadarConfig, RadarDetector, SignatureStore, count_detected_flips
from repro.core.detector import DetectionReport, detection_ratio
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.bitops import MSB_POSITION
from repro.quant.layers import quantize_model, quantized_layers


@pytest.fixture()
def protected_mlp():
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(32,), seed=4)
    quantize_model(model)
    store = SignatureStore(RadarConfig(group_size=16)).build(model)
    return model, store


def _flip_msb(model, layer_index=0, flat_index=0):
    name, layer = quantized_layers(model)[layer_index]
    flip = make_bit_flip(name, layer.qweight, flat_index, MSB_POSITION)
    apply_bit_flips(model, [flip])
    return flip


class TestDetectionReport:
    def test_empty_report(self):
        report = DetectionReport()
        assert report.num_flagged_groups == 0
        assert not report.attack_detected
        assert report.flagged_layers() == []
        assert not report.is_flagged("layer", 0)
        assert report.summary() == {"flagged_groups": 0, "flagged_layers": 0}

    def test_counts_and_queries(self):
        report = DetectionReport(
            flagged_groups={
                "a": np.array([1, 3], dtype=np.int64),
                "b": np.empty(0, dtype=np.int64),
            }
        )
        assert report.num_flagged_groups == 2
        assert report.attack_detected
        assert report.flagged_layers() == ["a"]
        assert report.is_flagged("a", 3)
        assert not report.is_flagged("a", 2)
        assert not report.is_flagged("b", 0)


class TestRadarDetector:
    def test_empty_store_rejected(self):
        with pytest.raises(ProtectionError):
            RadarDetector(SignatureStore(RadarConfig(group_size=16)))

    def test_clean_model_not_flagged(self, protected_mlp):
        model, store = protected_mlp
        report = RadarDetector(store).scan(model)
        assert not report.attack_detected

    def test_single_msb_flip_flags_exactly_one_group(self, protected_mlp):
        model, store = protected_mlp
        flip = _flip_msb(model, layer_index=0, flat_index=7)
        report = RadarDetector(store).scan(model)
        assert report.num_flagged_groups == 1
        expected_group = store.layer(flip.layer_name).layout.group_of(flip.flat_index)
        assert report.is_flagged(flip.layer_name, expected_group)

    def test_flips_in_two_layers_flag_two_groups(self, protected_mlp):
        model, store = protected_mlp
        _flip_msb(model, layer_index=0, flat_index=3)
        _flip_msb(model, layer_index=1, flat_index=11)
        report = RadarDetector(store).scan(model)
        assert report.num_flagged_groups == 2
        assert len(report.flagged_layers()) == 2


class TestCountDetectedFlips:
    def test_counts_flips_in_flagged_groups(self, protected_mlp):
        model, store = protected_mlp
        flips = [
            _flip_msb(model, layer_index=0, flat_index=index) for index in (0, 40, 95)
        ]
        profile = AttackProfile(flips=flips)
        report = RadarDetector(store).scan(model)
        assert count_detected_flips(profile, report, store) == 3

    def test_flip_in_unprotected_layer_is_not_counted(self, protected_mlp):
        model, store = protected_mlp
        name, layer = quantized_layers(model)[0]
        flip = make_bit_flip("ghost.layer", layer.qweight, 0, MSB_POSITION)
        profile = AttackProfile(flips=[flip])
        report = RadarDetector(store).scan(model)
        assert count_detected_flips(profile, report, store) == 0

    def test_undetected_flip_not_counted(self, protected_mlp):
        """A low-order bit flip that does not move the signature counts as missed."""
        model, store = protected_mlp
        name, layer = quantized_layers(model)[0]
        flip = make_bit_flip(name, layer.qweight, 2, 0)  # LSB flip: +-1 on the sum
        apply_bit_flips(model, [flip])
        report = RadarDetector(store).scan(model)
        profile = AttackProfile(flips=[flip])
        detected = count_detected_flips(profile, report, store)
        assert detected in (0, 1)  # depends on whether the sum crossed a 128 boundary
        assert detected == report.num_flagged_groups

    def test_detection_ratio_aggregates(self, protected_mlp):
        model, store = protected_mlp
        flip = _flip_msb(model, layer_index=0, flat_index=1)
        report = RadarDetector(store).scan(model)
        profile = AttackProfile(flips=[flip])
        ratio = detection_ratio([profile, profile], [report, report], store)
        assert ratio == 1.0

    def test_detection_ratio_empty(self, protected_mlp):
        _, store = protected_mlp
        assert detection_ratio([], [], store) == 0.0
