"""Tests for :mod:`repro.core.signature` (golden signature storage)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LayerSignatures, RadarConfig, SignatureStore
from repro.core.signature import flip_group_index
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers


@pytest.fixture()
def quantized_mlp():
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(32,), seed=1)
    quantize_model(model)
    return model


class TestBuild:
    def test_build_covers_all_quantized_layers(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        expected = [name for name, _ in quantized_layers(quantized_mlp)]
        assert sorted(store.layer_names()) == sorted(expected)
        assert len(store) == len(expected)

    def test_build_requires_quantized_model(self):
        model = MLP(input_dim=8, num_classes=2, hidden_dims=(4,), seed=0)
        with pytest.raises(ProtectionError):
            SignatureStore(RadarConfig(group_size=4)).build(model)

    def test_rebuild_replaces_previous_state(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16))
        store.build(quantized_mlp)
        first = store.total_groups()
        store.build(quantized_mlp)
        assert store.total_groups() == first

    def test_entries_have_expected_shape(self, quantized_mlp):
        config = RadarConfig(group_size=16)
        store = SignatureStore(config).build(quantized_mlp)
        for entry in store:
            assert isinstance(entry, LayerSignatures)
            assert entry.golden.dtype == np.uint8
            assert entry.golden.shape == (entry.layout.num_groups,)
            assert entry.num_groups == entry.layout.num_groups
            assert entry.key is not None and entry.key.num_bits == config.key_bits

    def test_masking_disabled_means_no_keys(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16, use_masking=False)).build(quantized_mlp)
        assert all(entry.key is None for entry in store)

    def test_keys_differ_across_layers(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        keys = [entry.key.bits for entry in store]
        assert len(set(keys)) > 1

    def test_contains_and_layer_access(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        name = store.layer_names()[0]
        assert name in store
        assert store.layer(name).layer_name == name
        assert "not-a-layer" not in store
        with pytest.raises(ProtectionError):
            store.layer("not-a-layer")


class TestCurrentSignatures:
    def test_clean_model_matches_golden(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        current = store.current_signatures(quantized_mlp)
        for entry in store:
            np.testing.assert_array_equal(current[entry.layer_name], entry.golden)

    def test_corrupted_model_differs(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        name, layer = quantized_layers(quantized_mlp)[0]
        flat = layer.qweight.reshape(-1)
        flat[0] = np.int8(int(flat[0]) ^ -128)  # flip the MSB of weight 0
        current = store.current_signatures(quantized_mlp)
        assert (current[name] != store.layer(name).golden).sum() == 1

    def test_missing_layer_raises(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        other = MLP(input_dim=48, num_classes=4, hidden_dims=(16,), seed=2)
        quantize_model(other)
        with pytest.raises(ProtectionError):
            store.current_signatures(other)


class TestResign:
    def test_goldens_are_views_of_one_buffer_the_fused_view_shares(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        assert store.golden.dtype == np.uint8
        assert store.golden.size == store.total_groups()
        starts = store.row_starts()
        for position, entry in enumerate(store):
            assert entry.golden.base is store.golden
            np.testing.assert_array_equal(
                entry.golden, store.golden[starts[position] : starts[position + 1]]
            )
        assert store.fused().golden is store.golden

    def test_listed_groups_only_are_rewritten(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        layers = quantized_layers(quantized_mlp)
        for _, layer in layers:
            layer.qweight.reshape(-1)[:] = 0
        first, second = (name for name, _ in layers)
        before = store.golden.copy()
        zeroed = store.current_signatures(quantized_mlp)
        assert store.resign(dict(layers), {first: np.array([1, 3]), second: []}) == 2
        changed = np.flatnonzero(store.golden != before)
        assert set(changed) <= {1, 3}
        np.testing.assert_array_equal(store.layer(first).golden[[1, 3]], zeroed[first][[1, 3]])

    def test_resign_of_every_group_equals_a_fresh_build(self, quantized_mlp):
        config = RadarConfig(group_size=16)
        store = SignatureStore(config).build(quantized_mlp)
        buffer, keys = store.golden, [entry.key for entry in store]
        for _, layer in quantized_layers(quantized_mlp):
            flat = layer.qweight.reshape(-1)
            flat[::3] = flat[::3] ^ np.int8(-128)
        resigned = store.resign(dict(quantized_layers(quantized_mlp)))
        assert resigned == store.total_groups()
        np.testing.assert_array_equal(
            store.golden, SignatureStore(config).build(quantized_mlp).golden
        )
        # In place, with the keys the build derived.
        assert store.golden is buffer
        assert all(entry.key is key for entry, key in zip(store, keys))

    def test_resign_rejects_missing_or_reshaped_layers(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        with pytest.raises(ProtectionError, match="missing from model"):
            store.resign({})
        layer_map = dict(quantized_layers(quantized_mlp))
        name = store.layer_names()[0]
        layer_map[name].qweight = layer_map[name].qweight.reshape(-1)[:-1].copy()
        with pytest.raises(ProtectionError, match="weights, expected"):
            store.resign(layer_map)


class TestStorageAccounting:
    def test_storage_bits_formula(self, quantized_mlp):
        config = RadarConfig(group_size=16, signature_bits=2)
        store = SignatureStore(config).build(quantized_mlp)
        expected_groups = sum(
            int(np.ceil(layer.qweight.size / config.group_size))
            for _, layer in quantized_layers(quantized_mlp)
        )
        assert store.total_groups() == expected_groups
        assert store.storage_bits() == expected_groups * 2
        assert store.storage_bytes() == pytest.approx(expected_groups * 2 / 8)
        assert store.storage_kilobytes() == pytest.approx(expected_groups * 2 / 8 / 1024)

    def test_storage_with_keys_adds_key_bits(self, quantized_mlp):
        config = RadarConfig(group_size=16, key_bits=16)
        store = SignatureStore(config).build(quantized_mlp)
        base = store.storage_bits(include_keys=False)
        with_keys = store.storage_bits(include_keys=True)
        assert with_keys == base + 16 * len(store)

    def test_storage_without_masking_ignores_keys(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16, use_masking=False)).build(quantized_mlp)
        assert store.storage_bits(include_keys=True) == store.storage_bits(include_keys=False)

    def test_three_bit_signature_costs_more(self, quantized_mlp):
        two = SignatureStore(RadarConfig(group_size=16, signature_bits=2)).build(quantized_mlp)
        three = SignatureStore(RadarConfig(group_size=16, signature_bits=3)).build(quantized_mlp)
        assert three.storage_bits() == pytest.approx(two.storage_bits() * 1.5)

    def test_larger_groups_cost_less(self, quantized_mlp):
        small = SignatureStore(RadarConfig(group_size=8)).build(quantized_mlp)
        large = SignatureStore(RadarConfig(group_size=32)).build(quantized_mlp)
        assert large.storage_bits() < small.storage_bits()

    def test_describe(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        description = store.describe()
        assert description["layers"] == len(store)
        assert description["groups"] == store.total_groups()
        assert description["storage_kb"] == pytest.approx(store.storage_kilobytes())


class TestFlipGroupIndex:
    def test_matches_layout(self, quantized_mlp):
        store = SignatureStore(RadarConfig(group_size=16)).build(quantized_mlp)
        name = store.layer_names()[0]
        layer_name, group = flip_group_index(store, name, 5)
        assert layer_name == name
        assert group == store.layer(name).layout.group_of(5)
