"""EXP-FLEET — fleet engine: batched cross-model stepping vs sequential.

Not a paper artifact: this is the throughput baseline for the fleet
verification engine (:mod:`repro.core.fleet`).  It measures
verified-groups-per-second of the engine's coalesced cross-model tick
against the pre-engine sequential per-model loop over the same fleet at
the same per-tick budget, and asserts the acceptance bar: with the
cache-blocked stacked einsum, batched stepping is at least 2× sequential
once the fleet holds 4+ structurally identical models.  The artifact is
written only after the floors hold; ``results/fleet_throughput.json`` is
the committed baseline ``scripts/check_perf_regression.py`` compares
fresh runs against.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import emit, save
from repro.core import RadarConfig, RecoveryPolicy, VerificationEngine
from repro.experiments.fleet import fleet_throughput
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers


@pytest.mark.benchmark(group="fleet-engine")
def test_batched_stepping_beats_sequential(benchmark):
    rows = fleet_throughput()
    emit(
        "Fleet engine — cross-model batched stepping vs sequential per-model "
        "loop (equal per-tick budget; throughput in verified groups/s)",
        rows,
    )
    # Register the batched tick with pytest-benchmark for trend tracking.
    engine = VerificationEngine(RadarConfig(group_size=16), num_shards=8)
    for index in range(4):
        model = MLP(input_dim=128, num_classes=8, hidden_dims=(96, 48), seed=index)
        quantize_model(model)
        engine.register(f"model-{index}", model)
    benchmark.pedantic(
        lambda: engine.tick(recovery_policy=RecoveryPolicy.NONE),
        rounds=5,
        iterations=3,
    )

    by_models = {row["num_models"]: row for row in rows}
    # The acceptance bar: with the cache-blocked stacked einsum, batched
    # cross-model stepping reaches >= 2x the sequential
    # verified-groups-per-second on a >= 4-model fleet.  The largest fleet
    # amortizes the batch dispatch best, so that is where the bar is
    # enforced; smaller >= 4-model fleets must clear a noise-tolerant
    # floor (the committed baseline shows them >= 1.5x as well).
    fleet_rows = [row for row in rows if row["num_models"] >= 4]
    assert fleet_rows, "the sweep must include a >= 4-model fleet"
    best = max(row["speedup"] for row in fleet_rows)
    assert best >= 2.0, f"batched stepping only reached {best:.2f}x"
    for row in fleet_rows:
        assert row["speedup"] >= 1.2, (
            f"batched stepping only reached {row['speedup']:.2f}x at "
            f"{row['num_models']} models"
        )
    # More models per batch => better amortization of the dispatch overhead
    # (allow generous timing noise between adjacent fleet sizes).
    assert by_models[8]["speedup"] >= by_models[2]["speedup"] * 0.8
    save(rows, "fleet_throughput.json")


@pytest.mark.benchmark(group="fleet-engine")
def test_batched_tick_detects_what_sequential_detects():
    """The engine's coalesced pass is an optimization, not an approximation."""
    config = RadarConfig(group_size=16)
    engines = []
    for _ in range(2):
        engine = VerificationEngine(config, num_shards=4)
        for index in range(4):
            model = MLP(input_dim=64, num_classes=4, hidden_dims=(48,), seed=index)
            quantize_model(model)
            engine.register(f"model-{index}", model)
        engines.append(engine)
    batched, sequential = engines

    # Corrupt the same weights of the same victim in both fleets.
    for engine in engines:
        victim = engine.get("model-1")
        name, layer = quantized_layers(victim.model)[0]
        flat = layer.qweight.reshape(-1)
        flat[7] = np.int8(int(flat[7]) ^ -128)

    lag = batched.get("model-0").scheduler.worst_case_lag_passes
    for _ in range(lag):
        tick = batched.tick(recovery_policy=RecoveryPolicy.NONE)
        for name in sequential.names():
            managed = sequential.get(name)
            reference = managed.scheduler.step(managed.model)
            result = tick[name].scan
            assert result.shard_indices == reference.shard_indices
            assert result.groups_checked == reference.groups_checked
            for layer_name, expected in reference.report.flagged_groups.items():
                np.testing.assert_array_equal(
                    result.report.flagged_groups[layer_name], expected
                )
