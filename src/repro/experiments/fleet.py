"""Fleet verification throughput: batched cross-model stepping vs sequential.

Not a paper artifact: this is the performance study behind the fleet
engine (:mod:`repro.core.fleet`).  A serving deployment hosting many
models could advance their scan rotations *one model at a time* — a
per-model loop of :meth:`~repro.core.scheduler.ScanScheduler.step` calls,
each paying the full NumPy dispatch cost of its own small slice.  The
engine instead coalesces structurally identical models' slices into one
stacked verification pass (:class:`~repro.core.signature.StackedVerifier`).

This experiment measures both paths over the *same* fleet of quantized
MLPs at the *same* per-tick budget (each model funded for exactly its
slice, allocated in urgency order by both paths) and reports
verified-groups-per-second.  ``results/fleet_throughput.json`` is the
committed baseline; ``benchmarks/test_bench_fleet_throughput.py`` asserts
the acceptance bar (batched ≥ 2× sequential at the best ≥ 4-model fleet)
and ``scripts/check_perf_regression.py --kind fleet`` gates CI on it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RadarConfig
from repro.core.fleet import VerificationEngine
from repro.core.recovery import RecoveryPolicy
from repro.models.small import MLP
from repro.quant.layers import quantize_model

# The 16- and 32-model rows exist because the zero-copy kernel sped the
# *sequential* baseline up too (every ScanScheduler.step now runs the
# kernel), so the batched win is mostly dispatch amortization — which a
# larger fleet shows best.  The CI floor (--min-speedup 2.0) is held by the
# best >= 4-model row.
DEFAULT_MODEL_COUNTS = (2, 4, 8, 16, 32)
#: Alternating sequential/batched block pairs per fleet size.
TIMING_PAIRS = 15


def _build_engine(
    num_models: int,
    config: RadarConfig,
    num_shards: int,
    hidden_dims: Tuple[int, ...],
    input_dim: int,
    seed: int,
) -> VerificationEngine:
    """A fleet of structurally identical quantized MLPs (distinct weights)."""
    engine = VerificationEngine(config, num_shards=num_shards)
    for index in range(num_models):
        model = MLP(
            input_dim=input_dim,
            num_classes=8,
            hidden_dims=hidden_dims,
            seed=seed + index,
        )
        quantize_model(model)
        engine.register(f"model-{index}", model)
    return engine


def _sequential_tick(engine: VerificationEngine, budget_s: Optional[float]) -> int:
    """The sequential baseline: walk models one at a time.

    Identical budget allocation, identical slices, identical bookkeeping —
    the only difference from :meth:`VerificationEngine.tick` is that every
    model's slice is verified in its own :meth:`ScanScheduler.step` call
    instead of one coalesced pass.
    """
    names = engine.names()
    shares: Dict[str, Optional[float]] = (
        dict(engine.allocate_budget(budget_s))
        if budget_s is not None
        else {name: None for name in names}
    )
    groups = 0
    for name in names:
        managed = engine.get(name)
        result = managed.scheduler.step(managed.model, budget_s=shares[name])
        groups += result.groups_checked
    return groups


def _batched_tick(engine: VerificationEngine, budget_s: Optional[float]) -> int:
    outcomes = engine.tick(budget_s=budget_s, recovery_policy=RecoveryPolicy.NONE)
    return sum(outcome.scan.groups_checked for outcome in outcomes.values())


def _paired_ticks(
    sequential, batched, ticks: int, pairs: int
) -> Tuple[List[float], List[float], int, int]:
    """Per-block mean seconds-per-tick of both paths, timed in alternation.

    Each pair times one block of ``ticks`` sequential ticks and one of
    batched ticks back to back, the order flipping every pair, so a slow
    spell of a shared host lands on both sides of a ratio rather than on
    one path's whole measurement.  Also returns each path's groups/tick.
    """
    groups_sequential = sequential()  # warm-up; also the per-tick group count
    groups_batched = batched()
    timings: Tuple[List[float], List[float]] = ([], [])
    paths = (sequential, batched)
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            tick = paths[side]
            started = time.perf_counter()
            for _ in range(ticks):
                tick()
            timings[side].append((time.perf_counter() - started) / ticks)
    return timings[0], timings[1], groups_sequential, groups_batched


def fleet_throughput(
    model_counts: Sequence[int] = DEFAULT_MODEL_COUNTS,
    ticks: int = 40,
    pairs: int = TIMING_PAIRS,
    group_size: int = 16,
    num_shards: int = 16,
    hidden_dims: Tuple[int, ...] = (96, 48),
    input_dim: int = 128,
    budgeted: bool = True,
    seed: int = 0,
) -> List[Dict]:
    """Rows of the fleet-throughput study (→ ``results/fleet_throughput.json``).

    For each fleet size the sequential and batched paths run over separate
    but identically seeded engines (same models, same rotations) so every
    tick verifies the same groups.  With ``budgeted=True`` both paths split
    one fleet-wide budget — sized to fund exactly one slice per model — via
    the same urgency-ordered allocation.

    The two paths are timed in alternating block pairs (:func:`_paired_ticks`).
    ``speedup`` is the median over pairs of sequential over batched
    seconds-per-tick, reported with the interquartile range of those
    ratios (``speedup_iqr``) and the pair count; the per-path figures are
    the medians of each path's blocks.
    """
    rows: List[Dict] = []
    config = RadarConfig(group_size=group_size)
    for num_models in model_counts:
        engines = [
            _build_engine(num_models, config, num_shards, hidden_dims, input_dim, seed)
            for _ in range(2)
        ]
        budget_s: Optional[float] = None
        if budgeted:
            # Fund every model's next slice exactly (plus pricing headroom
            # for one group so allocation order cannot starve the last one).
            reference = engines[0]
            slice_costs = [
                reference.get(name).scheduler.planned_slice_cost_s()
                for name in reference.names()
            ]
            per_group = reference.get(reference.names()[0]).cost_model.pass_cost_s(1)
            budget_s = sum(slice_costs) + per_group
        sequential_blocks, batched_blocks, groups_sequential, groups_batched = (
            _paired_ticks(
                lambda: _sequential_tick(engines[0], budget_s),
                lambda: _batched_tick(engines[1], budget_s),
                ticks,
                pairs,
            )
        )
        sequential_s = float(np.median(sequential_blocks))
        batched_s = float(np.median(batched_blocks))
        ratios = np.asarray(sequential_blocks) / np.asarray(batched_blocks)
        low, high = np.percentile(ratios, [25, 75])
        if groups_sequential != groups_batched:
            raise AssertionError(
                f"paths verified different work: sequential {groups_sequential} "
                f"vs batched {groups_batched} groups per tick"
            )
        rows.append(
            {
                "num_models": int(num_models),
                "groups_per_tick": int(groups_sequential),
                "budget_ms_per_tick": (
                    round(budget_s * 1e3, 6) if budget_s is not None else None
                ),
                "sequential_ms_per_tick": sequential_s * 1e3,
                "batched_ms_per_tick": batched_s * 1e3,
                "sequential_groups_per_s": groups_sequential / sequential_s,
                "batched_groups_per_s": groups_batched / batched_s,
                "speedup": float(np.median(ratios)),
                "speedup_iqr": float(high - low),
                "pairs": int(pairs),
            }
        )
    return rows
