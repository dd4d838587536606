"""End-to-end integration tests across the whole pipeline.

Each test walks the paper's full story on a tiny model: train -> quantize ->
store in DRAM -> attack (software PBFA + hardware rowhammer) -> detect ->
recover -> verify accuracy, exercising the interfaces between every
subpackage rather than any single module.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

from repro.attacks import (
    PbfaConfig,
    ProgressiveBitFlipAttack,
    RandomBitFlipAttack,
    RandomFlipConfig,
)
from repro.baselines.protectors import CrcProtector
from repro.core import ModelProtector, RadarConfig, count_detected_flips
from repro.core.recovery import RecoveryPolicy
from repro.core.runtime import ProtectedInference
from repro.memsim.dram import DramModule
from repro.memsim.rowhammer import RowhammerAttacker
from repro.models.training import evaluate_accuracy
from repro.quant.layers import quantized_layers


class TestFullPipeline:
    def test_attack_detect_recover_restores_accuracy(self, trained_tiny):
        model, _, test_set, clean_accuracy = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model)

        attack = ProgressiveBitFlipAttack(PbfaConfig(num_flips=6, seed=42))
        result = attack.run(model, test_set.images, test_set.labels)
        attacked_accuracy = evaluate_accuracy(model, test_set)
        assert attacked_accuracy < clean_accuracy

        summary = protector.scan_and_recover(model)
        recovered_accuracy = evaluate_accuracy(model, test_set)
        detected = count_detected_flips(result.profile, summary.detection, protector.store)

        assert summary.attack_detected
        assert detected >= result.num_flips - 1
        assert recovered_accuracy >= attacked_accuracy
        assert recovered_accuracy >= clean_accuracy - 0.25

    def test_dram_rowhammer_path_equivalent_to_direct_flips(self, trained_tiny):
        """Flipping bits through the DRAM image gives the same weights as direct flips."""
        model, _, test_set, _ = trained_tiny
        direct_model = copy.deepcopy(model)

        attack = ProgressiveBitFlipAttack(PbfaConfig(num_flips=4, seed=43))
        result = attack.run(direct_model, test_set.images, test_set.labels)

        dram = DramModule()
        dram.load_model_weights(model)  # clean weights into DRAM
        RowhammerAttacker(dram).mount(result.profile)
        dram.write_back_to_model(model)

        for (name, direct_layer), (_, hammered_layer) in zip(
            quantized_layers(direct_model), quantized_layers(model)
        ):
            np.testing.assert_array_equal(direct_layer.qweight, hammered_layer.qweight)

    def test_protected_runtime_detects_rowhammer_attack(self, trained_tiny):
        model, _, test_set, clean_accuracy = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=16))
        dram = DramModule()
        dram.load_model_weights(model)

        attacker_view = copy.deepcopy(model)
        attack = ProgressiveBitFlipAttack(PbfaConfig(num_flips=5, seed=44))
        result = attack.run(attacker_view, test_set.images, test_set.labels)
        RowhammerAttacker(dram).mount(result.profile)
        dram.write_back_to_model(model)

        store = runtime.protector.store
        flips_per_group = Counter(
            (flip.layer_name, store.layer(flip.layer_name).layout.group_of(flip.flat_index))
            for flip in result.profile
        )
        oracle = store.fused().rows_to_layer_groups(store.mismatched_rows(model))
        flagged = {(name, int(group)) for name, groups in oracle.items() for group in groups}
        # Every group holding one mounted flip is flagged and nothing else
        # is; two flips in one group may cancel in its sum (this profile
        # puts a +128 and a -128 in one group), the scheme's known miss.
        single = {group for group, count in flips_per_group.items() if count == 1}
        assert single <= flagged <= set(flips_per_group)

        outcome = runtime(test_set.images[:32])
        assert outcome.attack_detected
        assert outcome.flagged_groups == len(flagged)
        # ZERO recovery zeroed exactly the flagged groups...
        layer_map = dict(quantized_layers(model))
        zeroed = 0
        for name, group in flagged:
            members = store.layer(name).layout.members_of(group)
            assert not layer_map[name].qweight.reshape(-1)[members].any()
            zeroed += members.size
        assert outcome.recovered_weights == zeroed
        # ...in the fetched weights only: the DRAM image keeps the flipped bits.
        for flip in result.profile:
            assert int(dram.read_layer(flip.layer_name)[flip.flat_index]) == flip.value_after
        assert evaluate_accuracy(model, test_set) >= clean_accuracy - 0.3

    def test_reload_policy_fully_restores_clean_accuracy(self, trained_tiny):
        model, _, test_set, clean_accuracy = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model, keep_golden_weights=True)
        ProgressiveBitFlipAttack(PbfaConfig(num_flips=5, seed=45)).run(
            model, test_set.images, test_set.labels
        )
        protector.scan_and_recover(model, policy=RecoveryPolicy.RELOAD)
        assert evaluate_accuracy(model, test_set) == pytest.approx(clean_accuracy, abs=1e-6)

    def test_zero_recovery_beats_detection_only(self, trained_tiny):
        model_zero, _, test_set, _ = trained_tiny
        model_none = copy.deepcopy(model_zero)
        for model, policy in ((model_zero, RecoveryPolicy.ZERO), (model_none, RecoveryPolicy.NONE)):
            protector = ModelProtector(RadarConfig(group_size=16))
            protector.protect(model)
            ProgressiveBitFlipAttack(PbfaConfig(num_flips=6, seed=46)).run(
                model, test_set.images, test_set.labels
            )
            protector.scan_and_recover(model, policy=policy)
        zero_accuracy = evaluate_accuracy(model_zero, test_set)
        none_accuracy = evaluate_accuracy(model_none, test_set)
        assert zero_accuracy >= none_accuracy

    def test_radar_and_crc_agree_on_single_flip_detection(self, trained_tiny):
        """Both schemes flag an attacked model; RADAR uses far less storage."""
        model, _, test_set, _ = trained_tiny
        radar = ModelProtector(RadarConfig(group_size=16, use_interleave=False))
        radar.protect(model)
        crc = CrcProtector(group_size=16).protect(model)

        RandomBitFlipAttack(RandomFlipConfig(num_flips=3, msb_only=True, seed=47)).run(model)

        radar_report = radar.scan(model)
        crc_report = crc.scan(model)
        assert radar_report.attack_detected
        assert crc_report.attack_detected
        assert radar.storage_overhead_kb() < crc.storage_kilobytes()

    def test_interleaving_and_masking_do_not_change_clean_behavior(self, trained_tiny):
        """Protection is transparent: logits of the clean model are identical."""
        model, _, test_set, _ = trained_tiny
        reference = model(test_set.images[:16]).copy()
        for use_interleave in (False, True):
            for use_masking in (False, True):
                protector = ModelProtector(
                    RadarConfig(group_size=16, use_interleave=use_interleave, use_masking=use_masking)
                )
                protector.protect(model)
                summary = protector.scan_and_recover(model)
                assert not summary.attack_detected
        np.testing.assert_array_equal(model(test_set.images[:16]), reference)

    def test_repeated_attack_recover_cycles_stay_stable(self, trained_tiny):
        """Several attack/recover rounds never crash and keep accuracy above the attacked level."""
        model, _, test_set, clean_accuracy = trained_tiny
        protector = ModelProtector(RadarConfig(group_size=16))
        protector.protect(model)
        accuracies = []
        for round_index in range(3):
            ProgressiveBitFlipAttack(PbfaConfig(num_flips=2, seed=100 + round_index)).run(
                model, test_set.images, test_set.labels
            )
            protector.scan_and_recover(model)
            accuracies.append(evaluate_accuracy(model, test_set))
        assert all(accuracy >= clean_accuracy - 0.4 for accuracy in accuracies)


class TestRuntimeAdoption:
    """ProtectedInference adopts its model into the fused kernel plane."""

    def test_wrapper_adopts_model_and_preserves_outputs(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        model.eval()
        logits_before = model(test_set.images[:16])
        runtime = ProtectedInference(model, RadarConfig(group_size=16))
        fused = runtime.protector.store.fused()
        assert fused.adopted
        # Every quantized layer's buffer is now a view of the weight plane.
        for _, layer in quantized_layers(model):
            assert layer.qweight.base is not None
        outcome = runtime(test_set.images[:16])
        np.testing.assert_array_equal(outcome.logits, logits_before)
        assert not outcome.attack_detected

    def test_full_mode_inline_check_detects_on_the_plane(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(model, RadarConfig(group_size=16))
        # Mutate a plane-backed buffer in place, as an attack would.
        _, layer = quantized_layers(model)[0]
        flat = layer.qweight.reshape(-1)
        flat[11] = np.int8(int(flat[11]) ^ -128)
        outcome = runtime(test_set.images[:8])
        assert outcome.attack_detected
        assert outcome.recovered_weights > 0

    def test_amortized_mode_shares_the_adopted_plane(self, trained_tiny):
        model, _, test_set, _ = trained_tiny
        runtime = ProtectedInference(
            model, RadarConfig(group_size=16), num_shards=4
        )
        assert runtime.scheduler is not None
        # The scheduler's fused view is the adopted one - slices scan the
        # same plane the attacks mutate, with no per-check weight copies.
        assert runtime.scheduler.fused is runtime.protector.store.fused()
        assert runtime.scheduler.fused.adopted
        _, layer = quantized_layers(model)[0]
        flat = layer.qweight.reshape(-1)
        flat[3] = np.int8(int(flat[3]) ^ -128)
        detected = False
        for _ in range(runtime.scheduler.worst_case_lag_passes):
            detected = detected or runtime(test_set.images[:8]).attack_detected
        assert detected
