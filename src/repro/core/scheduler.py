"""Amortized scan scheduling: bounded-cost verification per forward pass.

A stop-the-world scan (:meth:`~repro.core.protector.ModelProtector.scan`)
verifies every group of every layer before each batch, which is the
opposite of the paper's point that checking must hide inside the inference
weight-streaming loop with near-zero overhead.  The
:class:`ScanScheduler` instead partitions the model's signature groups —
under the global-row numbering of
:class:`~repro.core.signature.FusedSignatures` — into ``num_shards``
shards and verifies a configurable slice of shards per pass, so per-pass
latency is bounded by the slice size while the whole model is still
verified within one full rotation.

The scheduler splits responsibilities across two collaborators:

* **Planning** — a pluggable :class:`~repro.core.planner.VerificationPlanner`
  orders the shards each pass (see :class:`ScanPolicy` for the built-in
  policies); the scheduler truncates that order to the affordable slice.
* **Pricing** — an optional :class:`~repro.core.cost.ScanCostModel` converts
  "g groups" into seconds, which lets the slice be chosen from a *latency
  budget* instead of a fixed shard count: :meth:`ScanScheduler.from_budget`
  sizes the shards so every pass is priced within the budget, and
  :meth:`step` accepts a per-call budget override (how the
  :class:`~repro.core.fleet.VerificationEngine` spreads one fleet-wide
  budget across models).

Three built-in policies decide which shards a pass scans:

* ``ROUND_ROBIN`` — cyclic order; every rotation takes exactly
  ``ceil(num_shards / shards_per_pass)`` passes.
* ``PRIORITY_EXPOSURE`` — longest-unscanned shard first, with a sub-integer
  flip-rate bias that revisits shards that keep catching flips sooner while
  provably preserving the rotation bound (see
  :class:`~repro.core.planner.PriorityExposurePlanner`).
* ``FULL`` — every shard every pass (degenerates to a full scan; useful
  as a baseline and for the highest-assurance deployments).
* ``JITTERED`` — seeded-random epoch permutations that deny a
  schedule-aware attacker the deterministic rotation while still covering
  every shard each epoch (see
  :class:`~repro.core.planner.JitteredPlanner`; its bound is two rotations,
  folded into ``worst_case_lag_passes`` via ``rotation_lag_multiplier``).

The detection-lag tradeoff is explicit: a flip landing in the worst-placed
shard is caught after at most one rotation (``worst_case_lag_passes``),
which `benchmarks/test_bench_scan_scheduler.py` measures against the
per-pass latency saving, and ``results/table4_amortized.json`` re-prices
Table IV under.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cost import ScanCostModel, plan_rotation
from repro.core.detector import DetectionReport, report_from_fused_rows
from repro.core.planner import (
    FullScanPlanner,
    JitteredPlanner,
    PriorityExposurePlanner,
    RoundRobinPlanner,
    ShardView,
    VerificationPlanner,
)
from repro.core.signature import SignatureStore
from repro.errors import ProtectionError
from repro.nn.module import Module

#: Slice descriptors one scheduler keeps memoized (see slice_descriptor).
MAX_MEMOIZED_DESCRIPTORS = 256


class ScanPolicy(str, Enum):
    """Shard-selection policy of the :class:`ScanScheduler`."""

    ROUND_ROBIN = "round_robin"
    PRIORITY_EXPOSURE = "priority_exposure"
    FULL = "full"
    JITTERED = "jittered"


def planner_for_policy(policy: ScanPolicy) -> VerificationPlanner:
    """The default :class:`VerificationPlanner` implementing one policy."""
    policy = ScanPolicy(policy)
    if policy is ScanPolicy.FULL:
        return FullScanPlanner()
    if policy is ScanPolicy.PRIORITY_EXPOSURE:
        return PriorityExposurePlanner()
    if policy is ScanPolicy.JITTERED:
        return JitteredPlanner()
    return RoundRobinPlanner()


@dataclass(slots=True)
class ScanPassResult:
    """What one amortized pass scanned and found.

    ``slots=True``: one of these is built per model per pass on both the
    sequential and engine paths; skipping the ``__dict__`` allocation is
    a measurable share of a budgeted pass's fixed cost.
    """

    pass_index: int
    shard_indices: List[int]
    groups_checked: int
    report: DetectionReport
    rotation_complete: bool = False
    rotation_report: Optional[DetectionReport] = None
    #: Latency budget the pass was planned under (``None`` = structural slice).
    budget_s: Optional[float] = None
    #: Priced cost of the slice under the scheduler's cost model, when it has one.
    planned_cost_s: Optional[float] = None
    #: Wall-clock seconds the verification actually took (what the pass
    #: *spent*, as opposed to ``planned_cost_s`` — what the cost model
    #: predicted).  For engine-batched passes this is the model's share of
    #: its batch's elapsed time.
    measured_s: Optional[float] = None

    @property
    def attack_detected(self) -> bool:
        return self.report.attack_detected

    @property
    def within_budget(self) -> bool:
        """Whether the priced slice fit its budget (vacuously true without one)."""
        if self.budget_s is None or self.planned_cost_s is None:
            return True
        return self.planned_cost_s <= self.budget_s


class SliceDescriptor(NamedTuple):
    """A planned slice as plain data: shard indices plus their row ranges.

    The compact form of :meth:`ScanScheduler.slice_rows` — what the fleet
    engine compares to decide whether a bucket's slices coincide.  Shards
    are contiguous ``arange`` blocks by construction (``np.array_split`` of
    ``arange``), so a slice is exactly one ``(start, stop)`` range per
    planned shard, in plan order; expanding the ranges back (:meth:`rows`)
    reproduces ``slice_rows`` bit for bit.  Everything here is built-in
    ints, so the descriptor round-trips through JSON unchanged.
    """

    shard_indices: Tuple[int, ...]
    row_ranges: Tuple[Tuple[int, int], ...]

    @property
    def num_rows(self) -> int:
        return sum(stop - start for start, stop in self.row_ranges)

    def rows(self) -> np.ndarray:
        """Materialize the global row array (identical to ``slice_rows``)."""
        if not self.row_ranges:
            return np.empty(0, dtype=np.int64)
        if len(self.row_ranges) == 1:
            start, stop = self.row_ranges[0]
            return np.arange(start, stop, dtype=np.int64)
        return np.concatenate(
            [np.arange(start, stop, dtype=np.int64) for start, stop in self.row_ranges]
        )


@dataclass
class ShardInfo:
    """Introspection row for one shard (used by reports and the CLI)."""

    index: int
    num_groups: int
    exposure_passes: int
    times_scanned: int
    times_flagged: int


class ScanScheduler:
    """Verifies a bounded slice of a model's signature groups per pass.

    The scheduler is pure detection: it never mutates the model.  Callers
    that want the paper's detect-then-recover behaviour feed the per-pass
    :class:`~repro.core.detector.DetectionReport` to
    :func:`~repro.core.recovery.recover_model` (as
    :class:`~repro.core.runtime.ProtectedInference` and
    :class:`~repro.core.fleet.VerificationEngine` do).

    Invariant: the union of the per-pass reports over one complete rotation
    equals a full :meth:`~repro.core.detector.RadarDetector.scan` of the
    same (unchanged) weights; ``rotation_report`` hands that union out
    whenever a rotation completes.
    """

    def __init__(
        self,
        store: SignatureStore,
        num_shards: int = 8,
        policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        shards_per_pass: int = 1,
        planner: Optional[VerificationPlanner] = None,
        budget_s: Optional[float] = None,
        cost_model: Optional[ScanCostModel] = None,
    ) -> None:
        if num_shards < 1:
            raise ProtectionError(f"num_shards must be >= 1, got {num_shards}")
        if shards_per_pass < 1:
            raise ProtectionError(f"shards_per_pass must be >= 1, got {shards_per_pass}")
        if shards_per_pass > num_shards:
            raise ProtectionError(
                f"shards_per_pass must be within [1, num_shards]; "
                f"got shards_per_pass={shards_per_pass} with num_shards={num_shards}"
            )
        if budget_s is not None and not budget_s > 0:
            raise ProtectionError(f"budget_s must be positive, got {budget_s}")
        self.store = store
        self.policy = ScanPolicy(policy)
        self._planner = planner if planner is not None else planner_for_policy(self.policy)
        self.fused = store.fused()
        # Data-dependent clamping (distinct from argument validation above):
        # a store can expose fewer groups than the requested shard count.
        self.num_shards = min(num_shards, self.fused.total_groups)
        self.shards_per_pass = min(shards_per_pass, self.num_shards)
        self.cost_model = cost_model
        self.budget_s = budget_s
        # Shards are write-locked views of one all-rows array: slice_rows
        # hands them (and the array itself, for a full in-order slice) to
        # callers without copying.
        self._all_rows = np.arange(self.fused.total_groups, dtype=np.int64)
        self._all_rows.setflags(write=False)
        self._shards: List[np.ndarray] = np.array_split(self._all_rows, self.num_shards)
        self._in_order: List[int] = list(range(self.num_shards))
        self._descriptors: Dict[Tuple[int, ...], SliceDescriptor] = {}
        # Plain-int mirrors of each shard's size and row range: planning,
        # pricing and flag attribution consult these once per model per
        # tick, where NumPy scalar extraction is pure dispatch overhead.
        self._shard_sizes: List[int] = [int(shard.size) for shard in self._shards]
        self._shard_bounds: List[Tuple[int, int]] = [
            (int(shard[0]), int(shard[-1])) if shard.size else (0, -1)
            for shard in self._shards
        ]
        if budget_s is not None:
            largest = max(shard.size for shard in self._shards)
            cost = self._require_cost_model().pass_cost_s(int(largest))
            if cost > budget_s:
                raise ProtectionError(
                    f"budget of {budget_s * 1e3:.6g} ms cannot cover the largest shard "
                    f"({largest} groups, priced {cost * 1e3:.6g} ms); raise the budget, "
                    "increase num_shards, or use ScanScheduler.from_budget"
                )
        self._start_rotation()
        # State-blind planners (``planner.uses_shard_state == False``) get a
        # static tuple built once — their order() never reads the mutable
        # fields.
        self._static_views: List[ShardView] = [
            ShardView(
                index=index,
                num_groups=int(self._shards[index].size),
                exposure_passes=0,
                times_scanned=0,
                times_flagged=0,
            )
            for index in range(self.num_shards)
        ]

    @classmethod
    def from_budget(
        cls,
        store: SignatureStore,
        budget_s: float,
        cost_model: Optional[ScanCostModel] = None,
        policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        planner: Optional[VerificationPlanner] = None,
    ) -> "ScanScheduler":
        """Size the shard rotation from a per-pass latency budget.

        The shard count is derived with :func:`~repro.core.cost.plan_rotation`
        so that the analytic cost of every pass stays within ``budget_s``
        (raising :class:`~repro.errors.ProtectionError` when the budget cannot
        cover even one group).  ``cost_model`` defaults to the fixed
        :class:`~repro.core.cost.ScanCostModel` price of the store's
        :class:`~repro.core.config.RadarConfig`.
        """
        model = cost_model or ScanCostModel.from_radar_config(store.config)
        plan = plan_rotation(store.fused().total_groups, budget_s, model)
        return cls(
            store,
            num_shards=plan.num_shards,
            policy=policy,
            shards_per_pass=1,
            planner=planner,
            budget_s=budget_s,
            cost_model=model,
        )

    def restart(self) -> None:
        """Begin a fresh rotation over the same shards, in place.

        The engine's REPROTECTING step calls this after re-signing the
        store.  The pass index, exposure, scan and flag counters and the
        pending rotation clear, and the planner's positional state resets
        (:meth:`~repro.core.planner.VerificationPlanner.reset`; learned
        flip rates survive), so the scheduler matches a new one built over
        the same store and planner.
        """
        self._planner.reset()
        self._start_rotation()

    def _start_rotation(self) -> None:
        """The per-pass state a new scheduler starts from (see :meth:`restart`)."""
        # Exposure is stored lazily: a shard's effective backlog is
        # ``_exposure[i] + _exposure_base``.  Every pass bumps the scalar
        # base once instead of incrementing the whole array (a NumPy
        # dispatch per model per tick on the fleet path); scanning a shard
        # writes ``-base`` so its effective exposure returns to zero.
        self._exposure = np.zeros(self.num_shards, dtype=np.int64)
        self._exposure_base = 0
        self._times_scanned = np.zeros(self.num_shards, dtype=np.int64)
        self._times_flagged = np.zeros(self.num_shards, dtype=np.int64)
        # Scalar mirrors of ``_exposure.sum()`` / ``_times_flagged.sum()``,
        # kept in lock-step by apply_scan: fleet urgency ranking reads both
        # once per model per tick, and a NumPy reduction per read is pure
        # dispatch overhead next to two int adds.
        self._exposure_sum = 0
        self._flagged_sum = 0
        self._pass_index = 0
        self._rotation_pending = set(range(self.num_shards))
        self._rotation_rows: List[np.ndarray] = []
        # Shard views only change when a pass commits; planning, pricing and
        # fleet urgency ranking may all consult them several times per tick,
        # so they are cached between apply_scan calls.
        self._shard_views_cache: Optional[List[ShardView]] = None

    # -- planning ---------------------------------------------------------------
    @property
    def total_groups(self) -> int:
        return self.fused.total_groups

    @property
    def largest_shard_groups(self) -> int:
        """Groups in the largest shard — what a one-shard pass can cost."""
        return int(max(shard.size for shard in self._shards))

    @property
    def planner(self) -> VerificationPlanner:
        return self._planner

    @property
    def worst_case_lag_passes(self) -> int:
        """Passes until any flip is guaranteed scanned.

        One full rotation for cyclic planners; planners that randomize the
        order inside rotation-aligned epochs declare a
        ``rotation_lag_multiplier`` (2 for
        :class:`~repro.core.planner.JitteredPlanner` — a shard scanned early
        in one epoch may land late in the next), which scales the bound.

        A budget narrows the slice even for the FULL policy, so its lag bound
        only collapses to one pass when every shard actually fits the budget.
        """
        rotation = -(-self.num_shards // self._effective_slice(self.budget_s))
        return rotation * getattr(self._planner, "rotation_lag_multiplier", 1)

    def _slots(self) -> int:
        return self.num_shards if self._planner.scan_everything else self.shards_per_pass

    def _effective_slice(self, budget_s: Optional[float]) -> int:
        """Shards one pass can afford: the policy's slot count, narrowed by budget."""
        slots = self._slots()
        if budget_s is None:
            return slots
        largest = max(shard.size for shard in self._shards)
        affordable = self._require_cost_model().groups_within(budget_s) // max(largest, 1)
        return max(1, min(slots, int(affordable)))

    def _require_cost_model(self) -> ScanCostModel:
        if self.cost_model is None:
            self.cost_model = ScanCostModel.from_radar_config(self.store.config)
        return self.cost_model

    def _shard_views(self) -> List[ShardView]:
        if self._shard_views_cache is None:
            self._shard_views_cache = [
                ShardView(
                    index=index,
                    num_groups=int(self._shards[index].size),
                    exposure_passes=int(self._exposure[index]) + self._exposure_base,
                    times_scanned=int(self._times_scanned[index]),
                    times_flagged=int(self._times_flagged[index]),
                )
                for index in range(self.num_shards)
            ]
        return self._shard_views_cache

    def plan(self, budget_s: Optional[float] = None) -> List[int]:
        """Shard indices the next :meth:`step` would scan (no state change).

        ``budget_s`` previews the slice under a per-pass budget override;
        without one the scheduler's own budget (if any) applies.
        """
        views = (
            self._shard_views()
            if self._planner.uses_shard_state
            else self._static_views
        )
        order = self._planner.order(views)
        budget = budget_s if budget_s is not None else self.budget_s
        if self._planner.scan_everything and budget is None:
            return order
        selection = order[: self._slots()]
        if budget is None:
            return selection
        cost_model = self._require_cost_model()
        affordable: List[int] = []
        groups = 0
        for index in selection:
            candidate = groups + self._shard_sizes[index]
            if cost_model.pass_cost_s(candidate) > budget:
                break
            affordable.append(index)
            groups = candidate
        return affordable

    def planned_slice_cost_s(self, budget_s: Optional[float] = None) -> float:
        """Priced cost of the slice the next :meth:`step` would scan.

        Uses the scheduler's cost model (instantiating the analytic default
        if none was given); the :class:`~repro.core.fleet.VerificationEngine`
        uses this to let models claim exact slice costs out of a fleet budget.
        """
        return self.slice_cost_s(self.plan(budget_s=budget_s))

    def slice_cost_s(self, shard_indices: List[int]) -> float:
        """Priced cost of an already-planned slice (no re-planning).

        ``planned_slice_cost_s`` = :meth:`plan` + this; the fleet engine
        plans each model's slice once per tick and prices, executes and
        commits that same plan.
        """
        sizes = self._shard_sizes
        groups = sum(sizes[index] for index in shard_indices)
        return self._require_cost_model().pass_cost_s(groups)

    def shard_rows(self, shard_index: int) -> np.ndarray:
        """Global group rows belonging to one shard."""
        if not 0 <= shard_index < self.num_shards:
            raise ProtectionError(f"shard_index {shard_index} out of range ({self.num_shards})")
        return self._shards[shard_index].copy()

    def slice_rows(self, shard_indices: List[int]) -> np.ndarray:
        """Concatenated global rows of a planned slice, in scan order.

        Single-shard slices (the steady state of a budgeted rotation)
        return the shard array itself and a slice of every shard in order
        (a full scan) the all-rows array, rather than a copy — both are
        write-locked, and the stable identity lets the fleet engine's
        batched verifier recognize repeated rotation positions without
        re-comparing row contents every tick.
        """
        if not shard_indices:
            return np.empty(0, dtype=np.int64)
        if len(shard_indices) == 1:
            return self._shards[shard_indices[0]]
        if shard_indices == self._in_order:
            return self._all_rows
        return np.concatenate([self._shards[index] for index in shard_indices])

    def slice_descriptor(self, shard_indices: List[int]) -> SliceDescriptor:
        """The plain-data form of a planned slice (see :class:`SliceDescriptor`).

        Shards hold contiguous ascending rows by construction, so each
        planned shard contributes one ``(start, stop)`` range; a shard left
        empty by the data-dependent clamp contributes nothing.  Memoized
        per shard tuple: the fleet engine asks for every model's
        descriptor every tick, and a rotation revisits the same slices.
        """
        key = tuple(shard_indices)
        descriptor = self._descriptors.get(key)
        if descriptor is not None:
            return descriptor
        if len(self._descriptors) >= MAX_MEMOIZED_DESCRIPTORS:
            # Randomized planners can produce many distinct slices.
            self._descriptors.clear()
        ranges: List[Tuple[int, int]] = []
        indices: List[int] = []
        for index in shard_indices:
            if not 0 <= index < self.num_shards:
                raise ProtectionError(
                    f"shard_index {index} out of range ({self.num_shards})"
                )
            indices.append(int(index))
            shard = self._shards[index]
            if shard.size:
                ranges.append((int(shard[0]), int(shard[-1]) + 1))
        descriptor = SliceDescriptor(
            shard_indices=tuple(indices), row_ranges=tuple(ranges)
        )
        self._descriptors[key] = descriptor
        return descriptor

    # -- scanning ---------------------------------------------------------------
    def step(
        self,
        model: Module,
        budget_s: Optional[float] = None,
    ) -> ScanPassResult:
        """Verify the next slice of shards against the golden signatures.

        ``budget_s`` overrides the scheduler's own budget for this pass only —
        the :class:`~repro.core.fleet.VerificationEngine` uses it to hand each
        model its allocated share of a fleet-wide budget.  A pass whose budget
        cannot afford even one shard scans nothing (``shard_indices == []``);
        its exposure counters still advance, so an underfunded model's claim
        on the next allocation grows instead of silently overrunning.

        ``step`` is plan → verify → :meth:`apply_scan`; the middle stage runs
        on the zero-copy scan kernel of
        :class:`~repro.core.signature.FusedSignatures`.  Callers that verify
        a planned slice *externally* (the batched cross-model pass of
        :class:`~repro.core.fleet.VerificationEngine`) run the same pipeline
        with their own middle stage.
        """
        budget = budget_s if budget_s is not None else self.budget_s
        shard_indices = self.plan(budget_s=budget)
        rows = self.slice_rows(shard_indices)
        started = time.perf_counter()
        flagged_rows = self.fused.mismatched_rows(model, rows)
        elapsed = time.perf_counter() - started
        return self.apply_scan(
            shard_indices, flagged_rows, measured_s=elapsed, budget_s=budget
        )

    def apply_scan(
        self,
        shard_indices: List[int],
        flagged_rows: np.ndarray,
        measured_s: Optional[float] = None,
        budget_s: Optional[float] = None,
    ) -> ScanPassResult:
        """Commit one verified slice: bookkeeping, rotation tracking, report.

        ``shard_indices`` must be the slice :meth:`plan` produced for this
        pass and ``flagged_rows`` the mismatching global rows found within
        it (however they were computed — per model via
        ``fused.mismatched_rows`` as :meth:`step` does, or stacked across
        models by :class:`~repro.core.signature.StackedVerifier`).
        ``measured_s`` is fed to the cost model's ``observe``, so a learned
        price calibrates no matter who executed the verification.
        """
        sizes = self._shard_sizes
        groups_checked = sum(sizes[index] for index in shard_indices)
        planned_cost = None
        if self.cost_model is not None:
            planned_cost = self.cost_model.pass_cost_s(groups_checked)
            if measured_s is not None:
                self.cost_model.observe(groups_checked, measured_s)

        self._pass_index += 1
        self._exposure_base += 1
        base = self._exposure_base
        self._exposure_sum += self.num_shards
        self._shard_views_cache = None
        clean = flagged_rows.size == 0
        flagged_counts: Dict[int, int] = {}
        for index in shard_indices:
            self._exposure_sum -= int(self._exposure[index]) + base
            self._exposure[index] = -base
            self._times_scanned[index] += 1
            if clean:
                flagged_counts[index] = 0
                continue
            # Shards are contiguous row ranges, so a range test attributes flags.
            low, high = self._shard_bounds[index]
            count = int(np.count_nonzero((flagged_rows >= low) & (flagged_rows <= high)))
            flagged_counts[index] = count
            if count:
                self._times_flagged[index] += 1
                self._flagged_sum += 1
        self._planner.committed(shard_indices, flagged_counts)

        report = report_from_fused_rows(self.fused, flagged_rows)
        self._rotation_rows.append(flagged_rows)
        self._rotation_pending.difference_update(shard_indices)
        rotation_complete = not self._rotation_pending
        rotation_report = None
        if rotation_complete:
            rotation_report = report_from_fused_rows(
                self.fused, np.concatenate(self._rotation_rows)
            )
            self._rotation_pending = set(range(self.num_shards))
            self._rotation_rows = []
        return ScanPassResult(
            pass_index=self._pass_index,
            shard_indices=list(shard_indices),
            groups_checked=groups_checked,
            report=report,
            rotation_complete=rotation_complete,
            rotation_report=rotation_report,
            budget_s=budget_s,
            planned_cost_s=planned_cost,
            measured_s=measured_s,
        )

    def run_rotation(self, model: Module) -> DetectionReport:
        """Step until the current rotation completes; return its union report."""
        for _ in range(self.worst_case_lag_passes * 2):
            result = self.step(model)
            if result.rotation_complete:
                return result.rotation_report
        raise ProtectionError("Rotation did not complete; scheduler state is inconsistent")

    # -- introspection -----------------------------------------------------------
    @property
    def passes(self) -> int:
        return self._pass_index

    @property
    def max_exposure_passes(self) -> int:
        """Largest number of passes any shard has currently gone unscanned."""
        return int(self._exposure.max()) + self._exposure_base

    @property
    def mean_exposure_passes(self) -> float:
        """Mean shard exposure — the backlog term of fleet urgency ranking."""
        return self._exposure_sum / self.num_shards

    @property
    def total_flagged_passes(self) -> int:
        """Sum over shards of how many passes flagged each (flip history)."""
        return self._flagged_sum

    def shard_info(self) -> List[ShardInfo]:
        return [
            ShardInfo(
                index=view.index,
                num_groups=view.num_groups,
                exposure_passes=view.exposure_passes,
                times_scanned=view.times_scanned,
                times_flagged=view.times_flagged,
            )
            for view in self._shard_views()
        ]

    # -- persistence -------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable rotation state (counters, cursor-free).

        Together with the planner's own ``state_dict`` this is everything a
        restart needs to resume the rotation mid-flight: exposure backlog
        (which drives fleet urgency), per-shard scan/flag history, and the
        set of shards the current rotation still owes.  The flagged rows
        accumulated toward the rotation-union report are included so a
        resumed rotation's ``rotation_report`` stays the true union.
        """
        return {
            "num_shards": int(self.num_shards),
            "pass_index": int(self._pass_index),
            "exposure": [int(value) + self._exposure_base for value in self._exposure],
            "times_scanned": [int(value) for value in self._times_scanned],
            "times_flagged": [int(value) for value in self._times_flagged],
            "rotation_pending": sorted(int(index) for index in self._rotation_pending),
            "rotation_rows": [
                [int(row) for row in rows] for rows in self._rotation_rows
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The snapshot must come from a scheduler with the same shard count —
        counters indexed by shard are meaningless across a re-sharding.
        """
        saved_shards = int(state["num_shards"])
        if saved_shards != self.num_shards:
            raise ProtectionError(
                f"persisted scheduler state has {saved_shards} shards, "
                f"this scheduler has {self.num_shards}; refusing to restore "
                "counters across a re-sharding"
            )
        self._pass_index = int(state["pass_index"])
        self._exposure = np.asarray(state["exposure"], dtype=np.int64)
        self._exposure_base = 0
        self._times_scanned = np.asarray(state["times_scanned"], dtype=np.int64)
        self._times_flagged = np.asarray(state["times_flagged"], dtype=np.int64)
        self._exposure_sum = int(self._exposure.sum())  # base is 0 right after a restore
        self._flagged_sum = int(self._times_flagged.sum())
        for name in ("_exposure", "_times_scanned", "_times_flagged"):
            if getattr(self, name).shape != (self.num_shards,):
                raise ProtectionError(
                    f"persisted scheduler state field {name[1:]!r} has wrong length"
                )
        pending = {int(index) for index in state["rotation_pending"]}
        if not pending <= set(range(self.num_shards)):
            raise ProtectionError("persisted rotation_pending indices out of range")
        # An empty pending set only ever exists transiently inside apply_scan;
        # a persisted empty set means the snapshot was taken at rotation
        # completion, where the next rotation owes everything again.
        self._rotation_pending = pending if pending else set(range(self.num_shards))
        self._rotation_rows = [
            np.asarray(rows, dtype=np.int64) for rows in state["rotation_rows"]
        ]
        self._shard_views_cache = None

    def describe(self) -> Dict[str, object]:
        """Summary row used by the CLI and the fleet engine's ``describe``."""
        row: Dict[str, object] = {
            "groups": self.total_groups,
            "shards": self.num_shards,
            "shards_per_pass": self.shards_per_pass,
            "policy": self.policy.value,
            "worst_case_lag_passes": self.worst_case_lag_passes,
            "passes": self.passes,
            # Whether every layer has a verified rotated-arange structure
            # (fuse-time detection), so wide shard slices can run on the
            # band path; an unstructured plane rides the general gather.
            "structured": bool(self.fused.structured),
        }
        if self.budget_s is not None:
            row["budget_ms"] = round(self.budget_s * 1e3, 6)
            largest = max(shard.size for shard in self._shards)
            row["per_pass_cost_ms"] = round(
                self._require_cost_model().pass_cost_s(int(largest)) * 1e3, 6
            )
        return row
