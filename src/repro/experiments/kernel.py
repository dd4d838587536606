"""Zero-copy scan kernel throughput: fused plane vs the per-layer oracle.

Not a paper artifact: this is the performance study behind the scan kernel
(:func:`~repro.core.signature.stacked_mismatched_rows`, reached here as a
stack of one through :class:`~repro.core.signature.FusedSignatures`).  The
baseline is the bit-identity oracle,
:meth:`~repro.core.signature.SignatureStore.mismatched_rows`: the paper's
check computed layer by layer by
:func:`~repro.core.checksum.compute_signatures`, re-deriving each layer's
gather and routing sliced scans per layer, with no fusion and no structure
detection.  The kernel replaces that with one int8 gather out of a fused
weight plane (block slice copies where fuse-time detection proved a
rotated-arange structure) plus one narrow-accumulation ``einsum``, with
every workspace reused across passes and — for adopted models — zero
weight copies.  Each result row records whether the measured plane was
fully ``structured`` plus the host's ``available_cpus``, so the CI floor
can be structure- and environment-aware.

This experiment measures verified-groups-per-second of both paths over the
same protected model, for a stop-the-world **full** scan and for a
scheduler-planned shard **slice** (the amortized hot path), and reports
the speedup.  ``results/scan_kernel.json`` is the committed baseline;
``benchmarks/test_bench_scan_kernel.py`` asserts the acceptance bar
(kernel ≥ 4× the oracle full-scan, ≥ 5× sliced, on structured layouts)
and ``scripts/check_perf_regression.py --kind kernel`` gates CI on it.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

from repro.core.config import RadarConfig
from repro.core.protector import ModelProtector
from repro.models.resnet_cifar import resnet20
from repro.quant.layers import quantize_model, quantized_layers

TIMING_REPEATS = 5
TIMING_ITERATIONS = 3


def _best_of_pair(
    first, second, repeats: int = TIMING_REPEATS, iterations: int = TIMING_ITERATIONS
) -> Tuple[float, float]:
    """Minimum per-call seconds of two workloads, timed in alternating blocks.

    Interleaving the blocks (instead of timing one workload to completion
    and then the other) keeps clock-frequency drift and background load
    from landing entirely on one side of the resulting ratio.
    """
    first()  # warm-up: grows scratch buffers, primes caches
    second()
    bests = [float("inf"), float("inf")]
    for _ in range(repeats):
        for position, fn in enumerate((first, second)):
            start = time.perf_counter()
            for _ in range(iterations):
                fn()
            bests[position] = min(
                bests[position], (time.perf_counter() - start) / iterations
            )
    return bests[0], bests[1]


def scan_kernel_throughput(
    group_size: int = 8,
    num_shards: int = 8,
    repeats: int = TIMING_REPEATS,
    iterations: int = TIMING_ITERATIONS,
    seed: int = 7,
) -> List[Dict]:
    """Rows of the scan-kernel study (→ ``results/scan_kernel.json``).

    The workload is a quantized ResNet-20 at the paper's CIFAR group size
    (``G = 8``): ~271k weights across 22 quantized layers, the regime where
    the per-layer oracle pays its gather dispatch 22 times per scan.
    Weights are freshly initialized (scan cost is content-independent, so
    no pretrained zoo is needed).  The kernel is measured in the fleet
    engine's steady state (model adopted into the weight plane, scratch
    warm) against the per-layer oracle, on a full scan and on the
    slice a ``num_shards``-shard
    :class:`~repro.core.scheduler.ScanScheduler` plans per pass.
    """
    model = resnet20(seed=seed)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=group_size))
    protector.protect(model)
    fused = protector.store.fused()
    fused.adopt(dict(quantized_layers(model)))
    scheduler = protector.scheduler(num_shards=num_shards)
    slice_rows = scheduler.slice_rows(scheduler.plan())
    try:
        available_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        available_cpus = os.cpu_count() or 1

    rows: List[Dict] = []
    for mode, rows_arg in (("full", None), ("slice", slice_rows)):
        checked = fused.total_groups if rows_arg is None else int(rows_arg.size)
        reference_s, kernel_s = _best_of_pair(
            lambda: protector.store.mismatched_rows(model, rows_arg),
            lambda: fused.mismatched_rows(model, rows_arg),
            repeats,
            iterations,
        )
        rows.append(
            {
                "mode": mode,
                "groups": int(fused.total_groups),
                "rows_per_pass": checked,
                "num_shards": int(num_shards) if mode == "slice" else 1,
                "structured": bool(fused.structured),
                "available_cpus": int(available_cpus),
                "reference_ms": reference_s * 1e3,
                "kernel_ms": kernel_s * 1e3,
                "reference_groups_per_s": checked / reference_s,
                "kernel_groups_per_s": checked / kernel_s,
                "speedup": reference_s / kernel_s,
            }
        )
    return rows
