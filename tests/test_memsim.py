"""Tests for :mod:`repro.memsim` (DRAM, rowhammer, cache and timing models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import AttackProfile
from repro.attacks.bitflip import make_bit_flip
from repro.core import RadarConfig
from repro.errors import SimulationError
from repro.memsim.cache import CacheConfig, CacheHierarchy
from repro.memsim.dram import AddressMap, DramConfig, DramModule
from repro.memsim.rowhammer import RowhammerAttacker
from repro.memsim.system import SystemConfig, SystemSim
from repro.memsim.timing import (
    TimingConfig,
    TimingModel,
    count_model_ops,
    total_groups,
    total_macs,
    total_weights,
)
from repro.models.small import MLP, LeNet5
from repro.nn import no_grad
from repro.quant.bitops import MSB_POSITION
from repro.quant.layers import quantize_model, quantized_layers


@pytest.fixture()
def model():
    mlp = MLP(input_dim=48, num_classes=4, hidden_dims=(32,), seed=31)
    quantize_model(mlp)
    return mlp


class TestDramConfig:
    def test_defaults_consistent(self):
        config = DramConfig()
        assert config.rows_per_bank * config.row_size_bytes * config.num_banks == config.capacity_bytes

    def test_invalid_geometry(self):
        with pytest.raises(SimulationError):
            DramConfig(row_size_bytes=0)
        with pytest.raises(SimulationError):
            DramConfig(capacity_bytes=8192 * 8 + 1)


class TestAddressMap:
    def test_locate(self):
        address_map = AddressMap()
        address_map.add("a", 0, 100)
        address_map.add("b", 100, 50)
        assert address_map.locate("a", 10) == 10
        assert address_map.locate("b", 10) == 110
        assert address_map.total_bytes() == 150

    def test_locate_errors(self):
        address_map = AddressMap()
        address_map.add("a", 0, 10)
        with pytest.raises(SimulationError):
            address_map.locate("ghost", 0)
        with pytest.raises(SimulationError):
            address_map.locate("a", 10)


class TestDramModule:
    def test_requires_load_before_use(self):
        dram = DramModule()
        assert not dram.is_loaded
        with pytest.raises(SimulationError):
            _ = dram.image
        with pytest.raises(SimulationError):
            dram.flip_bit(0, 0)

    def test_load_and_read_back(self, model):
        dram = DramModule()
        address_map = dram.load_model_weights(model)
        for name, layer in quantized_layers(model):
            stored = dram.read_layer(name)
            np.testing.assert_array_equal(stored, layer.qweight.reshape(-1))
            assert address_map.ranges[name][1] == layer.qweight.size

    def test_unquantized_model_rejected(self):
        dram = DramModule()
        with pytest.raises(SimulationError):
            dram.load_model_weights(MLP(input_dim=8, num_classes=2, seed=0))

    def test_capacity_enforced(self, model):
        tiny = DramConfig(row_size_bytes=64, num_banks=2, capacity_bytes=128)
        with pytest.raises(SimulationError):
            DramModule(tiny).load_model_weights(model)

    def test_flip_bit_and_write_back(self, model):
        from repro.quant.bitops import flip_bit_scalar

        dram = DramModule()
        dram.load_model_weights(model)
        name, layer = quantized_layers(model)[0]
        original = int(layer.qweight.reshape(-1)[0])
        address = dram.address_map.locate(name, 0)
        dram.flip_bit(address, MSB_POSITION)
        dram.write_back_to_model(model)
        corrupted = int(layer.qweight.reshape(-1)[0])
        assert corrupted == flip_bit_scalar(original, MSB_POSITION)

    def test_flip_bit_validation(self, model):
        dram = DramModule()
        dram.load_model_weights(model)
        with pytest.raises(SimulationError):
            dram.flip_bit(dram.image.size + 5, 0)
        with pytest.raises(SimulationError):
            dram.flip_bit(0, 8)

    def test_physical_location_roundtrip(self, model):
        dram = DramModule()
        dram.load_model_weights(model)
        config = dram.config
        for address in (0, 17, config.row_size_bytes, config.row_size_bytes * config.num_banks + 3):
            bank, row, column = dram.physical_location(address)
            assert 0 <= bank < config.num_banks
            assert 0 <= column < config.row_size_bytes
            reconstructed = (
                row * config.row_size_bytes * config.num_banks
                + bank * config.row_size_bytes
                + column
            )
            assert reconstructed == address

    def test_neighbours_of_row(self, model):
        dram = DramModule()
        dram.load_model_weights(model)
        assert dram.neighbours_of_row(0, 0) == (1,)
        last = dram.config.rows_per_bank - 1
        assert dram.neighbours_of_row(0, last) == (last - 1,)
        assert dram.neighbours_of_row(0, 5) == (4, 6)


class TestRowhammer:
    def test_mount_flips_the_right_bits(self, model):
        dram = DramModule()
        dram.load_model_weights(model)
        name, layer = quantized_layers(model)[0]
        flips = [make_bit_flip(name, layer.qweight, i, MSB_POSITION) for i in (0, 7, 31)]
        profile = AttackProfile(flips=flips)

        attacker = RowhammerAttacker(dram, activations_per_flip=1000)
        report = attacker.mount(profile)
        assert report.flips_mounted == 3
        assert report.rows_touched >= 1
        assert report.aggressor_activations >= 3 * 1000

        dram.write_back_to_model(model)
        flat = layer.qweight.reshape(-1)
        for flip in flips:
            assert flat[flip.flat_index] == flip.value_after

    def test_cost_summary(self, model):
        dram = DramModule()
        dram.load_model_weights(model)
        attacker = RowhammerAttacker(dram)
        summary = attacker.hammer_cost_summary(attacker.mount(AttackProfile(flips=[])))
        assert summary == {"flips_mounted": 0, "victim_rows": 0, "aggressor_activations": 0}

    def test_invalid_activations(self, model):
        dram = DramModule()
        dram.load_model_weights(model)
        with pytest.raises(SimulationError):
            RowhammerAttacker(dram, activations_per_flip=0)


class TestCacheHierarchy:
    def test_weight_traffic_is_streamed_once(self):
        cache = CacheHierarchy()
        assert cache.weight_traffic_bytes(10_000_000) == 10_000_000

    def test_activation_traffic_only_spills(self):
        cache = CacheHierarchy(CacheConfig(l2_bytes=64 * 1024))
        assert cache.activation_traffic_bytes(1024) == 0
        assert cache.activation_traffic_bytes(80 * 1024) == 80 * 1024 - 64 * 1024

    def test_stream_time_monotonic(self):
        cache = CacheHierarchy()
        assert cache.stream_time_s(0) == 0.0
        assert cache.stream_time_s(2_000_000) > cache.stream_time_s(1_000_000) > 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CacheConfig(l1_bytes=0)

    def test_stream_time_is_affine_in_bytes(self):
        config = CacheConfig()
        cache = CacheHierarchy(config)
        one = cache.stream_time_s(64)
        two = cache.stream_time_s(128)
        # One stream-open latency plus bandwidth-limited transfer.
        assert one == pytest.approx(
            64 / config.dram_bandwidth_bytes_per_s + config.dram_latency_s
        )
        assert two - one == pytest.approx(64 / config.dram_bandwidth_bytes_per_s)


class TestTimingModel:
    @pytest.fixture()
    def ops(self):
        model = LeNet5(num_classes=4, seed=5)
        quantize_model(model)
        example = np.zeros((1, 3, 32, 32), dtype=np.float32)
        return count_model_ops(model, example)

    def test_count_model_ops_positive(self, ops):
        assert len(ops) == 5  # 2 conv + 3 linear layers in LeNet-5
        assert total_macs(ops) > total_weights(ops) > 0
        conv_ops = [op for op in ops if op.kind == "QuantConv2d"]
        # Convolutions reuse each weight across output positions.
        assert all(op.macs > op.weight_count for op in conv_ops)

    def test_conv_macs_follow_from_output_shapes_not_caches(self, ops):
        model = LeNet5(num_classes=4, seed=5)
        quantize_model(model)
        example = np.zeros((1, 3, 32, 32), dtype=np.float32)
        with no_grad():
            counted = count_model_ops(model, example)
        assert counted == ops
        # 6x3x5x5 weights over 32x32 outputs; 16x6x5x5 over 12x12.
        assert [op.macs for op in counted[:2]] == [450 * 32 * 32, 2400 * 12 * 12]
        assert all("forward" not in vars(layer) for _, layer in quantized_layers(model))

    def test_count_model_ops_requires_single_sample(self):
        model = LeNet5(num_classes=4, seed=5)
        quantize_model(model)
        with pytest.raises(SimulationError):
            count_model_ops(model, np.zeros((2, 3, 32, 32), dtype=np.float32))

    def test_baseline_scales_with_batch(self, ops):
        timing = TimingModel()
        single = timing.baseline_inference_s(ops, batch_size=1)
        assert timing.baseline_inference_s(ops, batch_size=4) == pytest.approx(4 * single)
        with pytest.raises(SimulationError):
            timing.baseline_inference_s(ops, batch_size=0)

    def test_radar_overhead_below_baseline(self, ops):
        """The checksum pass is cheaper than the inference itself.

        (The paper's <1-2 % figure holds for the ResNet targets, where the
        MAC-per-weight ratio is large; that relationship is checked by the
        Table IV experiment tests.  LeNet-5 is small, so here we only assert
        the ordering.)
        """
        timing = TimingModel()
        baseline = timing.baseline_inference_s(ops)
        overhead = timing.radar_overhead_s(ops, RadarConfig(group_size=8))
        assert 0 < overhead < baseline

    def test_interleaved_costs_more_than_contiguous(self, ops):
        timing = TimingModel()
        contiguous = timing.radar_overhead_s(ops, RadarConfig(group_size=8, use_interleave=False))
        interleaved = timing.radar_overhead_s(ops, RadarConfig(group_size=8, use_interleave=True))
        assert interleaved > contiguous

    def test_crc_costs_more_than_radar(self, ops):
        """Table V's key relationship: the CRC check is several times slower."""
        timing = TimingModel()
        radar = timing.radar_overhead_s(ops, RadarConfig(group_size=8))
        crc = timing.crc_overhead_s(ops, group_size=8)
        hamming = timing.hamming_overhead_s(ops, group_size=8)
        assert crc > 2 * radar
        assert hamming > radar

    def test_invalid_timing_config(self):
        with pytest.raises(SimulationError):
            TimingConfig(num_cores=0)

    def test_overhead_percent(self, ops):
        timing = TimingModel()
        assert timing.overhead_percent(2.0, 0.1) == pytest.approx(5.0)
        with pytest.raises(SimulationError):
            timing.overhead_percent(0.0, 0.1)


class TestSystemSim:
    @pytest.fixture()
    def sim(self):
        model = LeNet5(num_classes=4, seed=5)
        quantize_model(model)
        example = np.zeros((1, 3, 32, 32), dtype=np.float32)
        return SystemSim.from_model(model, example, model_label="lenet"), model

    def test_empty_ops_rejected(self):
        with pytest.raises(SimulationError):
            SystemSim([])

    def test_radar_report_fields(self, sim):
        system, _ = sim
        report = system.radar_report(RadarConfig(group_size=8))
        assert report.total_s == pytest.approx(report.baseline_s + report.overhead_s)
        assert report.overhead_percent == pytest.approx(100 * report.overhead_s / report.baseline_s)
        assert report.storage_kb > 0
        assert "radar" in report.scheme
        row = report.as_row()
        assert set(row) == {
            "scheme", "baseline_s", "total_s", "overhead_s", "overhead_percent", "storage_kb",
        }

    def test_crc_report_dominates_radar(self, sim):
        system, _ = sim
        radar = system.radar_report(RadarConfig(group_size=8))
        crc = system.crc_report(group_size=8, crc_bits=7)
        hamming = system.hamming_report(group_size=8, parity_bits=8)
        assert crc.overhead_s > radar.overhead_s
        assert crc.storage_kb > radar.storage_kb
        assert hamming.storage_kb > radar.storage_kb

    def test_build_dram_holds_all_weights(self, sim):
        system, model = sim
        dram = system.build_dram(model)
        assert dram.address_map.total_bytes() == system.num_weights()


class TestAmortizedOverhead:
    """Per-pass pricing of sharded checking (the Table IV re-pricing)."""

    @pytest.fixture(scope="class")
    def ops(self):
        model = LeNet5(num_classes=4, seed=5)
        quantize_model(model)
        return count_model_ops(model, np.zeros((1, 3, 32, 32), dtype=np.float32))

    def test_full_rotation_bounds_radar_overhead_from_above(self, ops):
        """The pre-kernel (narrow=False) price keeps the historical bound."""
        timing = TimingModel()
        radar = RadarConfig(group_size=8)
        amortized_full = timing.amortized_overhead_s(
            ops, radar, num_shards=1, narrow=False
        )
        assert amortized_full >= timing.radar_overhead_s(ops, radar)

    def test_narrow_kernel_discounts_the_per_weight_term_only(self, ops):
        timing = TimingModel()
        radar = RadarConfig(group_size=8)
        config = timing.config
        wide = timing.scan_cycles_per_group(radar, narrow=False)
        narrow = timing.scan_cycles_per_group(radar)
        per_weight = config.checksum_cycles_per_weight_interleaved
        expected = (
            radar.group_size * per_weight / config.narrow_accumulation_speedup
            + config.checksum_cycles_per_group
        )
        assert narrow == pytest.approx(expected)
        assert narrow < wide
        # The per-group binarize/compare term is not discounted.
        assert wide - narrow == pytest.approx(
            radar.group_size
            * per_weight
            * (1 - 1 / config.narrow_accumulation_speedup)
        )

    def test_narrow_speedup_below_one_rejected(self, ops):
        with pytest.raises(SimulationError):
            TimingConfig(narrow_accumulation_speedup=0.5)

    def test_per_pass_cost_shrinks_with_shard_count(self, ops):
        timing = TimingModel()
        radar = RadarConfig(group_size=8)
        costs = [
            timing.amortized_overhead_s(ops, radar, num_shards=n) for n in (1, 4, 8, 16)
        ]
        assert all(earlier > later for earlier, later in zip(costs, costs[1:]))

    def test_slice_price_is_proportional_to_groups(self, ops):
        timing = TimingModel()
        radar = RadarConfig(group_size=8)
        ten = timing.amortized_overhead_s(ops, radar, groups_per_pass=10)
        twenty = timing.amortized_overhead_s(ops, radar, groups_per_pass=20)
        assert twenty == pytest.approx(2 * ten)
        assert ten == pytest.approx(10 * timing.scan_seconds_per_group(radar))

    def test_slice_is_clamped_to_the_model(self, ops):
        timing = TimingModel()
        radar = RadarConfig(group_size=8)
        everything = timing.amortized_overhead_s(ops, radar, num_shards=1)
        oversized = timing.amortized_overhead_s(ops, radar, groups_per_pass=10**9)
        assert oversized == pytest.approx(everything)

    def test_interleave_raises_the_per_group_price(self, ops):
        timing = TimingModel()
        interleaved = timing.scan_seconds_per_group(RadarConfig(group_size=8))
        contiguous = timing.scan_seconds_per_group(
            RadarConfig(group_size=8, use_interleave=False)
        )
        assert interleaved > contiguous

    def test_argument_validation(self, ops):
        timing = TimingModel()
        radar = RadarConfig(group_size=8)
        with pytest.raises(SimulationError):
            timing.amortized_overhead_s(ops, radar)
        with pytest.raises(SimulationError):
            timing.amortized_overhead_s(ops, radar, groups_per_pass=1, num_shards=2)
        with pytest.raises(SimulationError):
            timing.amortized_overhead_s(ops, radar, num_shards=0)
        with pytest.raises(SimulationError):
            timing.amortized_overhead_s(ops, radar, groups_per_pass=-1)
        with pytest.raises(SimulationError):
            total_groups(ops, 0)
