"""EXP-SCHED — amortized scan scheduler: per-pass latency vs detection lag.

Not a paper artifact: this is the repo's first performance baseline for the
run-time subsystem.  It measures the cost of the stop-the-world full scan
(legacy per-layer path and the fused vectorized path) against the amortized
:class:`~repro.core.scheduler.ScanScheduler` per-pass cost for several shard
counts, together with the detection-lag (exposure window) each shard count
implies, and verifies that one full rotation detects exactly what a full
scan does.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from benchmarks.conftest import emit, save
from repro.core import ModelProtector, RadarConfig
from repro.experiments.reporting import pair_ratio, paired_timings
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers

SHARD_COUNTS = (4, 8, 16)
#: Alternating timing rounds over both full scans and every shard count.
TIMING_ROUNDS = 15
TIMING_ITERATIONS = 3


@pytest.fixture(scope="module")
def protected_model():
    """A quantized MLP big enough (~500k weights) for stable scan timings."""
    model = MLP(input_dim=784, num_classes=10, hidden_dims=(512, 256), seed=99)
    quantize_model(model)
    protector = ModelProtector(RadarConfig(group_size=32))
    protector.protect(model)
    return model, protector


@pytest.mark.benchmark(group="scan-scheduler")
def test_amortized_pass_is_cheaper_than_full_scan(protected_model, benchmark):
    model, protector = protected_model
    schedulers = [
        protector.scheduler(num_shards=num_shards) for num_shards in SHARD_COUNTS
    ]
    full, fused, *passes = paired_timings(
        partial(protector.scan, model),
        partial(protector.scan_fused, model),
        *[partial(scheduler.step, model) for scheduler in schedulers],
        rounds=TIMING_ROUNDS,
        iterations=TIMING_ITERATIONS,
    )

    rows = []
    for num_shards, scheduler, pass_s in zip(SHARD_COUNTS, schedulers, passes):
        speedup_vs_full, speedup_vs_full_iqr = pair_ratio(full, pass_s)
        speedup_vs_fused, speedup_vs_fused_iqr = pair_ratio(fused, pass_s)
        rows.append(
            {
                "num_shards": num_shards,
                "groups": scheduler.total_groups,
                "groups_per_pass": scheduler.total_groups // num_shards,
                "full_scan_ms": float(np.median(full)) * 1e3,
                "fused_scan_ms": float(np.median(fused)) * 1e3,
                "per_pass_ms": float(np.median(pass_s)) * 1e3,
                "speedup_vs_full": speedup_vs_full,
                "speedup_vs_full_iqr": speedup_vs_full_iqr,
                "speedup_vs_fused": speedup_vs_fused,
                "speedup_vs_fused_iqr": speedup_vs_fused_iqr,
                "pairs": TIMING_ROUNDS,
                "worst_case_lag_passes": scheduler.worst_case_lag_passes,
            }
        )

    # Register the amortized step with pytest-benchmark for trend tracking.
    scheduler = protector.scheduler(num_shards=8)
    benchmark.pedantic(lambda: scheduler.step(model), rounds=5, iterations=3)

    emit(
        "Scan scheduler — full-scan vs amortized per-pass latency "
        "(per-pass cost must amortize; detection lag = one rotation)",
        rows,
    )
    by_shards = {row["num_shards"]: row for row in rows}
    # The acceptance bar: with >= 8 shards one amortized pass costs at least
    # 3x less than a stop-the-world scan (either full-scan implementation).
    assert by_shards[8]["speedup_vs_full"] >= 3.0
    assert by_shards[16]["speedup_vs_fused"] >= 3.0
    # More shards => cheaper passes (allowing generous timing noise).
    assert by_shards[16]["per_pass_ms"] <= by_shards[4]["per_pass_ms"] * 1.5
    save(rows, "scan_scheduler.json")


@pytest.mark.benchmark(group="scan-scheduler")
def test_rotation_detection_matches_full_scan(protected_model):
    model, protector = protected_model
    # Corrupt a handful of weights spread across layers.
    rng = np.random.default_rng(7)
    for name, layer in quantized_layers(model):
        flat = layer.qweight.reshape(-1)
        index = int(rng.integers(flat.size))
        flat[index] = np.int8(int(flat[index]) ^ -128)
    try:
        reference = protector.scan(model)
        assert reference.attack_detected
        for num_shards in SHARD_COUNTS:
            scheduler = protector.scheduler(num_shards=num_shards)
            rotation = scheduler.run_rotation(model)
            assert set(rotation.flagged_groups) == set(reference.flagged_groups)
            for layer_name, expected in reference.flagged_groups.items():
                np.testing.assert_array_equal(
                    rotation.flagged_groups[layer_name], expected
                )
    finally:
        # Undo the flips (module-scoped fixture; keep the model clean).
        rng = np.random.default_rng(7)
        for name, layer in quantized_layers(model):
            flat = layer.qweight.reshape(-1)
            index = int(rng.integers(flat.size))
            flat[index] = np.int8(int(flat[index]) ^ -128)


@pytest.mark.benchmark(group="scan-scheduler")
def test_detection_lag_tradeoff(protected_model):
    """Exposure window: a flip in the worst-placed shard waits one rotation."""
    model, protector = protected_model
    rows = []
    for num_shards in SHARD_COUNTS:
        scheduler = protector.scheduler(num_shards=num_shards)
        # Flip a weight inside the shard scanned *last* in the rotation.
        last_rows = scheduler.shard_rows(num_shards - 1)
        fused = protector.store.fused()
        groups_by_layer = fused.rows_to_layer_groups(last_rows[-1:])
        layer_name = next(name for name, groups in groups_by_layer.items() if groups.size)
        entry = protector.store.layer(layer_name)
        member = int(entry.layout.members_of(int(groups_by_layer[layer_name][0]))[0])
        flat = dict(quantized_layers(model))[layer_name].qweight.reshape(-1)
        flat[member] = np.int8(int(flat[member]) ^ -128)
        try:
            lag = None
            for attempt in range(scheduler.worst_case_lag_passes):
                if scheduler.step(model).attack_detected:
                    lag = attempt + 1
                    break
            assert lag is not None, "flip must be caught within one rotation"
            rows.append(
                {
                    "num_shards": num_shards,
                    "detection_lag_passes": lag,
                    "worst_case_lag_passes": scheduler.worst_case_lag_passes,
                }
            )
            assert lag <= scheduler.worst_case_lag_passes
        finally:
            flat[member] = np.int8(int(flat[member]) ^ -128)
    emit(
        "Scan scheduler — detection lag for a flip in the last-scanned shard",
        rows,
    )
    # Worst-placed flip waits the full rotation under round-robin.
    assert all(row["detection_lag_passes"] == row["worst_case_lag_passes"] for row in rows)
    save(rows, "scan_scheduler_lag.json")
