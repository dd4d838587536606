"""EXP-KERNEL — zero-copy scan kernel vs the per-layer checksum oracle.

Not a paper artifact: this is the performance baseline for the scan
kernel (:func:`~repro.core.signature.stacked_mismatched_rows`, run as a
stack of one by :class:`~repro.core.signature.FusedSignatures`: int16
einsums over strided views of a global weight plane where the layout is
structured, one int8 gather + one einsum elsewhere, adopted models scanned
with zero weight copies).  It measures verified-groups/s against the
bit-identity oracle
(:meth:`~repro.core.signature.SignatureStore.mismatched_rows`, the paper's
check computed layer by layer) — on a ResNet-20 full scan and scheduler
shard slice, and on a ResNet-18 ``G = 512`` full check (the paper's
headline configuration) — and asserts the acceptance bar: the kernel is
at least 4× the oracle on a structured full scan and 5× on the sliced
scan.  Timing takes
the best of ``ATTEMPTS`` full study reruns per mode: one noisy block on a
loaded CI host should not fail the floor.  ``results/scan_kernel.json`` is the committed
baseline the CI perf gate (``scripts/check_perf_regression.py --kind
kernel``) compares fresh runs against.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core import ModelProtector, RadarConfig
from repro.experiments.kernel import scan_kernel_throughput
from repro.models.resnet_cifar import resnet20
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers


#: Floors asserted per mode when the plane is structured (the ResNet-20
#: and ResNet-18 workloads always are); an unstructured plane would ride
#: the general gather and only owes the pre-structure 2x bar.
STRUCTURED_FLOORS = {"full": 4.0, "slice": 5.0, "full-r18": 4.0}
UNSTRUCTURED_FLOOR = 2.0
#: Best-of-N study attempts, mirroring test_bench_fleet_throughput: each
#: attempt already interleaves oracle/kernel blocks, so a handful of
#: attempts suffices to shake off scheduler noise.
ATTEMPTS = 3


def _best_rows() -> list:
    """Best-speedup row per mode across ``ATTEMPTS`` study runs."""
    best = {}
    for _ in range(ATTEMPTS):
        for row in scan_kernel_throughput():
            incumbent = best.get(row["mode"])
            if incumbent is None or row["speedup"] > incumbent["speedup"]:
                best[row["mode"]] = row
    return [best[mode] for mode in STRUCTURED_FLOORS]


@pytest.mark.benchmark(group="scan-kernel")
def test_kernel_beats_the_oracle(benchmark):
    rows = _best_rows()
    emit(
        "Scan kernel — fused gather plane + narrow accumulation vs the "
        "per-layer checksum oracle (verified groups/s; full scan and one "
        "scheduler shard slice of ResNet-20 at G=8; full check of ResNet-18 "
        "at G=512)",
        rows,
        filename="scan_kernel.json",
    )
    # Register the kernel full scan with pytest-benchmark for trend tracking.
    model = resnet20(seed=7)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=8))
    protector.protect(model)
    fused = protector.store.fused()
    fused.adopt(dict(quantized_layers(model)))
    benchmark.pedantic(lambda: fused.mismatched_rows(model), rounds=5, iterations=3)

    # The acceptance bar: on a structured plane the band path owes >= 4x
    # verified-groups/s on full scans and >= 5x on the scheduler slice; an
    # unstructured plane keeps the original 2x kernel-vs-oracle bar.
    by_mode = {row["mode"]: row for row in rows}
    assert set(by_mode) == set(STRUCTURED_FLOORS)
    for mode, row in by_mode.items():
        floor = (
            STRUCTURED_FLOORS[mode] if row["structured"] else UNSTRUCTURED_FLOOR
        )
        assert row["speedup"] >= floor, (
            f"kernel only reached {row['speedup']:.2f}x on the {mode} scan "
            f"(floor {floor}x, structured={row['structured']})"
        )


@pytest.mark.benchmark(group="scan-kernel")
def test_kernel_is_bit_exact_against_oracle():
    """The kernel is an optimization, not an approximation."""
    model = MLP(input_dim=128, num_classes=8, hidden_dims=(96, 48), seed=3)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=16))
    protector.protect(model)
    fused = protector.store.fused()
    rng = np.random.default_rng(11)
    for _, layer in quantized_layers(model):
        flat = layer.qweight.reshape(-1)
        index = int(rng.integers(flat.size))
        flat[index] = np.int8(int(flat[index]) ^ -128)
    for rows in (
        None,
        np.empty(0, dtype=np.int64),
        np.arange(fused.total_groups, dtype=np.int64),
        rng.choice(fused.total_groups, size=fused.total_groups // 3, replace=False),
    ):
        np.testing.assert_array_equal(
            fused.mismatched_rows(model, rows),
            protector.store.mismatched_rows(model, rows),
        )
