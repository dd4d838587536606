"""Operation-count timing model calibrated to the paper's gem5 system.

The paper's platform is eight Arm Cortex-M4F cores at 1 GHz with a
32 KB L1 / 64 KB L2 hierarchy (Section VII.A).  gem5 itself cannot be run
here, so the model below reproduces its *reported* behaviour from
operation counts:

* baseline inference time — MAC count of the quantized layers divided by
  the effective MAC throughput of the 8-core cluster
  (``cycles_per_mac`` is calibrated so ResNet-20 at 32x32 costs ~66 ms and
  ResNet-18 at 224x224 costs ~3 s, the paper's Table IV baselines);
* RADAR overhead — a per-weight cost for the masked addition (larger when
  the interleaved gather breaks unit-stride access) plus a per-group cost
  for signature binarization and comparison, calibrated to Table IV/V
  (3.5 ms for ResNet-20 at G=8, 60 ms for ResNet-18 at G=512);
* CRC overhead — a per-byte cost for the bit-serial CRC update plus a
  per-group init/finalize cost, calibrated to Table V.

The calibration constants are exposed in :class:`TimingConfig` so the
sensitivity of the conclusions to them can be explored; the *relative*
conclusions (RADAR ≈ 1–5 % overhead, CRC ≈ 5–10x more expensive than
RADAR) follow from the operation counts and hold for any reasonable
constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import RadarConfig
from repro.errors import SimulationError
from repro.nn.module import Module
from repro.quant.layers import QuantConv2d, QuantLinear, quantized_layers


@dataclass(frozen=True)
class TimingConfig:
    """Calibration constants of the analytic timing model."""

    num_cores: int = 8
    frequency_hz: float = 1.0e9
    cycles_per_mac: float = 12.9
    # RADAR checksum costs (serial cycles, not parallelized across cores).
    checksum_cycles_per_weight_contiguous: float = 1.5
    checksum_cycles_per_weight_interleaved: float = 5.1
    checksum_cycles_per_group: float = 60.0
    # Zero-copy scan kernel: the fused gather plane accumulates int8 weights
    # into 32-bit partials, packing four additions per ALU word where the
    # per-layer path promoted every weight to int64 — calibrated
    # conservatively to the measured >= 2x kernel speedup on full and sliced
    # scans (results/scan_kernel.json).  Applied to the per-weight checksum
    # term only; the per-group binarize/compare cost is unchanged.
    narrow_accumulation_speedup: float = 2.0
    # CRC costs.
    crc_cycles_per_byte: float = 27.0
    crc_cycles_per_group: float = 310.0
    # Hamming SEC-DED costs (per byte XOR-tree update + per group syndrome).
    hamming_cycles_per_byte: float = 18.0
    hamming_cycles_per_group: float = 120.0

    def __post_init__(self) -> None:
        if self.num_cores <= 0 or self.frequency_hz <= 0 or self.cycles_per_mac <= 0:
            raise SimulationError("Timing constants must be positive")
        if self.narrow_accumulation_speedup < 1.0:
            raise SimulationError(
                "narrow_accumulation_speedup must be >= 1 (1 disables the discount)"
            )


@dataclass(frozen=True)
class LayerOps:
    """Operation counts of one quantized layer for one input sample."""

    name: str
    kind: str
    macs: int
    weight_count: int
    output_elements: int

    @property
    def weight_bytes(self) -> int:
        return self.weight_count  # int8: one byte per weight


def count_model_ops(model: Module, example_input: np.ndarray) -> List[LayerOps]:
    """Per-layer MAC and weight counts, measured with a tracing forward pass.

    ``example_input`` should be a single-sample batch shaped like the real
    deployment input (e.g. ``(1, 3, 224, 224)`` for ImageNet ResNet-18);
    the returned counts are per sample.  A conv's MACs follow from the
    shape of the output it returns in the tracing pass, so the counts do
    not depend on whether the forward keeps backward caches.
    """
    example_input = np.asarray(example_input)
    if example_input.ndim != 4 or example_input.shape[0] != 1:
        raise SimulationError(
            f"example_input must be a single-sample NCHW batch, got shape {example_input.shape}"
        )
    layers = quantized_layers(model)
    output_shapes: Dict[str, tuple] = {}

    def traced(name: str, forward, inputs: np.ndarray) -> np.ndarray:
        output = forward(inputs)
        output_shapes[name] = output.shape
        return output

    for name, layer in layers:
        layer.forward = functools.partial(traced, name, layer.forward)
    try:
        model.eval()
        model(example_input)
    finally:
        for _, layer in layers:
            del layer.forward

    ops: List[LayerOps] = []
    for name, layer in layers:
        if isinstance(layer, QuantConv2d):
            if name not in output_shapes:
                raise SimulationError(f"Layer {name!r} was not exercised by the forward pass")
            out_positions = int(np.prod(output_shapes[name][2:]))  # out_h * out_w
            macs = out_positions * layer.weight.size
            output_elements = out_positions * layer.out_channels
        elif isinstance(layer, QuantLinear):
            macs = layer.in_features * layer.out_features
            output_elements = layer.out_features
        else:  # pragma: no cover - registry only contains the two kinds
            continue
        ops.append(
            LayerOps(
                name=name,
                kind=type(layer).__name__,
                macs=int(macs),
                weight_count=int(layer.weight.size),
                output_elements=int(output_elements),
            )
        )
    return ops


def total_macs(ops: Sequence[LayerOps]) -> int:
    return int(sum(layer.macs for layer in ops))


def total_weights(ops: Sequence[LayerOps]) -> int:
    return int(sum(layer.weight_count for layer in ops))


def total_groups(ops: Sequence[LayerOps], group_size: int) -> int:
    """Signature groups a RADAR config with ``group_size`` induces over ``ops``."""
    if group_size < 1:
        raise SimulationError(f"group_size must be >= 1, got {group_size}")
    return int(sum(math.ceil(layer.weight_count / group_size) for layer in ops))


class TimingModel:
    """Converts operation counts into seconds for the modelled platform."""

    def __init__(self, config: Optional[TimingConfig] = None) -> None:
        self.config = config or TimingConfig()

    # -- baseline ---------------------------------------------------------------
    def baseline_inference_s(self, ops: Sequence[LayerOps], batch_size: int = 1) -> float:
        """Unprotected inference latency for ``batch_size`` samples."""
        if batch_size <= 0:
            raise SimulationError("batch_size must be positive")
        cycles = total_macs(ops) * batch_size * self.config.cycles_per_mac / self.config.num_cores
        return cycles / self.config.frequency_hz

    # -- RADAR -------------------------------------------------------------------
    def radar_overhead_s(
        self, ops: Sequence[LayerOps], radar_config: RadarConfig, batches_checked: int = 1
    ) -> float:
        """Time spent computing and comparing signatures for one pass over the weights.

        In a multi-batch setting each chunk of weights is loaded once and
        reused, so the cost amortizes over the batch (``batches_checked``
        re-checks are modelled by multiplying).
        """
        config = self.config
        per_weight = (
            config.checksum_cycles_per_weight_interleaved
            if radar_config.use_interleave
            else config.checksum_cycles_per_weight_contiguous
        )
        cycles = 0.0
        for layer in ops:
            groups = math.ceil(layer.weight_count / radar_config.group_size)
            cycles += layer.weight_count * per_weight + groups * config.checksum_cycles_per_group
        return batches_checked * cycles / config.frequency_hz

    def scan_cycles_per_group(
        self, radar_config: RadarConfig, narrow: bool = True
    ) -> float:
        """Serial cycles to recompute and compare one group's signature.

        ``group_size`` masked additions (pricier when the interleaved gather
        breaks unit-stride access) plus the per-group binarize/compare cost.
        This is the per-group price the amortized scheduler's analytic
        :class:`~repro.core.cost.AnalyticScanCostModel` is built on.

        ``narrow`` (the default) prices the zero-copy scan kernel's int8
        gather + int32 accumulation — the per-weight term divided by
        ``narrow_accumulation_speedup``.  ``narrow=False`` prices the
        retained per-layer reference path (the pre-kernel cost, kept for
        comparisons and re-pricing studies).
        """
        config = self.config
        per_weight = (
            config.checksum_cycles_per_weight_interleaved
            if radar_config.use_interleave
            else config.checksum_cycles_per_weight_contiguous
        )
        if narrow:
            per_weight /= config.narrow_accumulation_speedup
        return radar_config.group_size * per_weight + config.checksum_cycles_per_group

    def scan_seconds_per_group(
        self, radar_config: RadarConfig, narrow: bool = True
    ) -> float:
        """:meth:`scan_cycles_per_group` on the modelled platform, in seconds."""
        return (
            self.scan_cycles_per_group(radar_config, narrow=narrow)
            / self.config.frequency_hz
        )

    def amortized_overhead_s(
        self,
        ops: Sequence[LayerOps],
        radar_config: RadarConfig,
        groups_per_pass: Optional[int] = None,
        num_shards: Optional[int] = None,
        narrow: bool = True,
    ) -> float:
        """Per-pass checking time when each pass verifies only a shard slice.

        Give exactly one of ``groups_per_pass`` (the slice size directly) or
        ``num_shards`` (the slice a :class:`~repro.core.scheduler.ScanScheduler`
        rotation of that many shards scans per pass, i.e. the largest shard).
        The price is conservative within its own path: padded tail groups
        are billed at the full ``group_size``, so ``num_shards=1,
        narrow=False`` bounds :meth:`radar_overhead_s` from above.  The
        default ``narrow=True`` prices the zero-copy kernel the scheduler
        actually runs (per-weight term discounted by
        ``narrow_accumulation_speedup``), which *undercuts* the serial
        inline check of :meth:`radar_overhead_s` — the background scan got
        cheaper than the modelled in-stream check, not just amortized.
        """
        if (groups_per_pass is None) == (num_shards is None):
            raise SimulationError(
                "give exactly one of groups_per_pass or num_shards"
            )
        model_groups = total_groups(ops, radar_config.group_size)
        if num_shards is not None:
            if num_shards < 1:
                raise SimulationError(f"num_shards must be >= 1, got {num_shards}")
            groups_per_pass = math.ceil(model_groups / min(num_shards, model_groups))
        if groups_per_pass < 0:
            raise SimulationError(
                f"groups_per_pass must be >= 0, got {groups_per_pass}"
            )
        groups_per_pass = min(groups_per_pass, model_groups)
        return groups_per_pass * self.scan_seconds_per_group(radar_config, narrow=narrow)

    # -- baseline codes -------------------------------------------------------------
    def crc_overhead_s(
        self, ops: Sequence[LayerOps], group_size: int, batches_checked: int = 1
    ) -> float:
        """Time to CRC every weight group once."""
        config = self.config
        cycles = 0.0
        for layer in ops:
            groups = math.ceil(layer.weight_count / group_size)
            cycles += (
                layer.weight_bytes * config.crc_cycles_per_byte
                + groups * config.crc_cycles_per_group
            )
        return batches_checked * cycles / config.frequency_hz

    def hamming_overhead_s(
        self, ops: Sequence[LayerOps], group_size: int, batches_checked: int = 1
    ) -> float:
        """Time to recompute SEC-DED parity for every weight group once."""
        config = self.config
        cycles = 0.0
        for layer in ops:
            groups = math.ceil(layer.weight_count / group_size)
            cycles += (
                layer.weight_bytes * config.hamming_cycles_per_byte
                + groups * config.hamming_cycles_per_group
            )
        return batches_checked * cycles / config.frequency_hz

    # -- combined -----------------------------------------------------------------
    def protected_inference_s(
        self,
        ops: Sequence[LayerOps],
        radar_config: RadarConfig,
        batch_size: int = 1,
    ) -> float:
        """Inference latency with RADAR checking embedded (batch loads weights once)."""
        return self.baseline_inference_s(ops, batch_size) + self.radar_overhead_s(ops, radar_config)

    def overhead_percent(self, baseline_s: float, overhead_s: float) -> float:
        if baseline_s <= 0:
            raise SimulationError("baseline time must be positive")
        return 100.0 * overhead_s / baseline_s
