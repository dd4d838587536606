"""Fleet verification engine: cross-model batched scanning with an explicit
detect → recover → reprotect lifecycle.

Every registered model has its own amortized
:class:`~repro.core.scheduler.ScanScheduler`.  Rather than stepping the
registry *one model at a time*, with recovery and re-signing left to caller
discipline, the :class:`VerificationEngine` runs each tick as a shared work
queue of scan slices drawn from all registered models:

* **Batched execution** — each tick, every model plans its affordable slice
  and the engine coalesces every slice sharing a *kernel bucket* (same
  :meth:`~repro.core.signature.FusedSignatures.kernel_key`, i.e. same
  ``group_size`` and ``signature_bits``) into one stacked verification pass
  via :class:`~repro.core.signature.StackedVerifier`.  Structurally
  identical models at the same rotation position share one broadcast
  index/sign matrix; models of *different* architectures ride the same
  stacked pass through bucketed padded stacking (row counts padded to the
  bucket max), so a heterogeneous fleet no longer falls back to sequential
  per-model scans.  The per-pass NumPy dispatch cost is paid once instead
  of once per model (`results/fleet_throughput.json` measures the
  verified-groups-per-second win over the sequential per-model loop).
  Registration *adopts* each model into its view's zero-copy weight plane
  (:meth:`~repro.core.signature.FusedSignatures.adopt`), and all stacked
  workspaces come from engine-owned per-bucket
  :class:`~repro.core.signature.ScanScratch` buffers reused across ticks —
  the steady-state tick moves no weight bytes beyond the gather itself.
* **Inline execution** — every tick runs its buckets one after another on
  the calling thread.  Thread and process pools over the buckets were
  measured on a 2-CPU host and never showed a win worth their code (see
  ``docs/architecture.md``), so the engine starts no threads and no
  processes; the one place a second core pays in this repo is
  :class:`~repro.core.runtime.ProtectedInference`'s verifier thread,
  which overlaps verification with the forward.
* **Lifecycle state machine** — each model carries a
  :class:`ProtectionState`::

      PROTECTED ──flip detected──▶ FLAGGED ──▶ RECOVERING ──▶ REPROTECTING
          ▲                                                        │
          └────────────── re-signed over recovered weights ────────┘

  The engine drives the whole loop itself: a flagged slice triggers
  recovery (the paper's group-zeroing, or RELOAD from a golden snapshot)
  and — because zeroed groups no longer match their golden signatures —
  an automatic re-sign (``auto_reprotect``) so the fleet returns to a
  verifiably clean PROTECTED state without a manual :meth:`reprotect`
  call.  The re-sign is preceded by a
  full-model sweep: the detection slice covered one shard, and re-signing
  with other shards unscanned would accept their corruption as golden.
  That sweep also proves every other group's golden current, so the
  re-sign rewrites only the recovered groups' goldens in place
  (:meth:`~repro.core.signature.SignatureStore.resign`) and restarts the
  scheduler's rotation (:meth:`~repro.core.scheduler.ScanScheduler.restart`):
  the store, its fused view and plane, the bucket verifiers and the
  scheduler object all survive.
* **Event bus** — ``detection`` / ``recovery`` / ``reprotect`` /
  ``budget_exhausted`` events (:class:`FleetEventType`) are published to an
  :class:`EventBus` with a bounded history, so operators observe the
  lifecycle instead of polling per-model state.
* **Stage timing** — every tick takes one ``perf_counter`` delta per stage
  (:data:`TICK_STAGES`: plan, assemble, kernel, verdict, lifecycle) into
  :attr:`VerificationEngine.last_stage_durations_s`; an attached
  :class:`~repro.telemetry.monitor.FleetTelemetry` observes them into the
  always-on ``stage_duration_s{stage=...}`` histograms that ``/metrics``
  serves.

Detect-only ticks (``recovery_policy=RecoveryPolicy.NONE``) and
``auto_reprotect=False`` leave recovery and re-signing to the caller.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import RadarConfig
from repro.core.cost import ScanCostModel
from repro.core.detector import DetectionReport
from repro.core.protector import ModelProtector
from repro.core.recovery import RecoveryPolicy, RecoveryReport, require_golden_weights
from repro.core.scheduler import ScanPassResult, ScanPolicy, ScanScheduler
from repro.core.signature import (
    ScanScratch,
    StackedVerifier,
    # Not called by the engine; bound here because the benchmark's traced
    # run wraps this module's name (radarbench/spans.py).
    batched_mismatched_rows,  # noqa: F401
    split_by_padding_waste,
)
from repro.errors import ProtectionError
from repro.nn.module import Module
from repro.quant.layers import quantized_layers

#: Width-disparity guard for bucketed padded stacking: a kernel bucket
#: whose per-slice padding waste would exceed this is sub-split into
#: separate stacked passes; see
#: :func:`~repro.core.signature.split_by_padding_waste`.
MAX_PADDING_WASTE = 0.5

#: The stages of one tick, in pipeline order: each is timed once per tick
#: into :attr:`VerificationEngine.last_stage_durations_s`.
TICK_STAGES = ("plan", "assemble", "kernel", "verdict", "lifecycle")


class ProtectionState(str, Enum):
    """Where a managed model sits in the detect → recover → reprotect loop."""

    PROTECTED = "protected"
    FLAGGED = "flagged"
    RECOVERING = "recovering"
    REPROTECTING = "reprotecting"


class FleetEventType(str, Enum):
    """What the engine's event bus publishes."""

    DETECTION = "detection"
    RECOVERY = "recovery"
    REPROTECT = "reprotect"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class FleetEvent:
    """One lifecycle event of one managed model."""

    type: FleetEventType
    model: str
    tick: int
    detail: Dict[str, object] = field(default_factory=dict)


class EventBus:
    """Bounded-history publish/subscribe bus for :class:`FleetEvent`.

    Subscribers are called synchronously from the thread running the tick,
    in subscription order; exceptions propagate to the ``tick`` caller.
    ``subscribe`` returns an unsubscribe callable.
    """

    def __init__(self, history: int = 256) -> None:
        if history < 1:
            raise ProtectionError(f"history must be >= 1, got {history}")
        self._history: Deque[FleetEvent] = deque(maxlen=history)
        self._subscribers: List[Tuple[Optional[FleetEventType], Callable, object]] = []

    def subscribe(
        self,
        callback: Callable[[FleetEvent], None],
        event_type: Optional[FleetEventType] = None,
    ) -> Callable[[], None]:
        """Register ``callback`` for every event (or one ``event_type``)."""
        # The sentinel makes every entry unique, so unsubscribing one of two
        # identical (type, callback) subscriptions never removes the other.
        entry = (
            FleetEventType(event_type) if event_type is not None else None,
            callback,
            object(),
        )
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            if entry in self._subscribers:
                self._subscribers.remove(entry)

        return unsubscribe

    def emit(self, event: FleetEvent) -> None:
        self._history.append(event)
        for event_type, callback, _ in list(self._subscribers):
            if event_type is None or event_type is event.type:
                callback(event)

    def events(self, event_type: Optional[FleetEventType] = None) -> List[FleetEvent]:
        """Snapshot of the retained history (optionally one type only)."""
        if event_type is None:
            return list(self._history)
        event_type = FleetEventType(event_type)
        return [event for event in self._history if event.type is event_type]

    def __len__(self) -> int:
        return len(self._history)


@dataclass
class ManagedModel:
    """One registered model and its protection state."""

    name: str
    model: Module
    protector: ModelProtector
    scheduler: ScanScheduler
    #: Lifecycle position (see :class:`ProtectionState`).
    state: ProtectionState = ProtectionState.PROTECTED
    #: ``{layer_name: quantized layer}`` cache so batched execution does not
    #: re-walk the module tree every tick (layer objects are stable; their
    #: ``qweight`` buffers are mutated in place by attacks and recovery).
    layer_map: Dict[str, Module] = field(default_factory=dict)

    @property
    def cost_model(self) -> ScanCostModel:
        """The price of this model's scan slices: the scheduler's, the one
        owner that both prices and observes passes."""
        return self.scheduler.cost_model

    def refresh_layer_map(self) -> None:
        self.layer_map = dict(quantized_layers(self.model))
        # Adopt the model into the fused view's zero-copy weight plane: the
        # engine's scans then gather straight from the buffers attacks and
        # recovery mutate, with no per-tick weight copies.
        self.scheduler.fused.adopt(self.layer_map)

    def min_feasible_budget_s(self) -> float:
        """Cost of this model's largest shard at its current price — the
        least budget that can ever advance its rotation past that shard."""
        scheduler = self.scheduler
        return scheduler.cost_model.pass_cost_s(scheduler.largest_shard_groups)

    def urgency(self) -> float:
        """Budget-allocation rank: exposure backlog plus flagged history.

        The backlog term is the *mean* shard exposure (not the max): a model
        that scans one shard per tick still ages its other shards, so the max
        cannot distinguish it from a model that scans nothing.  The mean
        drops with every scanned shard, which is what lets an underfunded
        model overtake its peers on the next tick.
        """
        return (
            1.0
            + self.scheduler.mean_exposure_passes
            + self.scheduler.total_flagged_passes
        )


@dataclass(slots=True)
class EngineTickOutcome:
    """What one engine tick did to one managed model.

    ``slots=True``: one per model per tick; see :class:`_PlannedSlice`.
    """

    name: str
    scan: ScanPassResult
    state: ProtectionState
    #: States entered during this tick, in order (empty when nothing moved).
    transitions: List[ProtectionState] = field(default_factory=list)
    recovery: Optional[RecoveryReport] = None
    reprotected: bool = False
    #: Share of the fleet-wide budget this model was stepped with, if any.
    budget_s: Optional[float] = None
    #: Models co-verified in this model's batched pass (1 = ran alone).
    batch_size: int = 1
    #: Row count the batched pass was padded to (0 = empty slice).  The
    #: ratio ``scan.groups_checked / batch_width`` is the stacking fill —
    #: what telemetry tracks as bucketed-stacking efficiency.
    batch_width: int = 0

    @property
    def attack_detected(self) -> bool:
        return self.scan.attack_detected

    @property
    def measured_s(self) -> Optional[float]:
        """Wall-clock share this model's verification actually spent."""
        return self.scan.measured_s


@dataclass(slots=True)
class _PlannedSlice:
    """Internal work item: one model's affordable slice for this tick.

    ``slots=True``: one of these is created and field-swept per model per
    engine tick, where ``__dict__`` allocation is measurable overhead.
    """

    managed: ManagedModel
    share: Optional[float]
    shard_indices: List[int]
    rows: np.ndarray
    flagged_rows: Optional[np.ndarray] = None
    measured_s: float = 0.0
    batch_size: int = 1
    batch_width: int = 0


def _same_rows(batch: List[_PlannedSlice]) -> bool:
    """Whether every slice of a stacked batch plans the same rows.

    Only asked under one shared geometry
    (:attr:`StackedVerifier.shared_geometry`): equal group counts split
    into an equal number of shards give equal shards, so equal shard
    indices are equal rows and the batch may take the kernel's broadcast
    branch.  Either branch gives the same verdicts.
    """
    first = batch[0]
    num_shards = first.managed.scheduler.num_shards
    shard_indices = first.shard_indices
    return all(
        planned.managed.scheduler.num_shards == num_shards
        and planned.shard_indices == shard_indices
        for planned in batch[1:]
    )


class VerificationEngine:
    """Event-driven verification over a registry of protected models.

    Typical use::

        engine = VerificationEngine(budget_s=2e-3)      # 2 ms per tick
        engine.register("lane-a", model_a, keep_golden_weights=True)
        engine.register("lane-b", model_b)
        engine.bus.subscribe(print, FleetEventType.DETECTION)
        ...
        outcomes = engine.tick()        # once per serving tick: scan a
                                        # batched cross-model slice, recover
                                        # and re-sign whatever was flagged

    A tick runs inline on the calling thread: its kernel buckets one after
    another, then bookkeeping and event delivery.  The engine holds no
    threads, processes or other resources, so it needs no closing.
    """

    def __init__(
        self,
        default_config: Optional[RadarConfig] = None,
        num_shards: int = 8,
        policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        shards_per_pass: int = 1,
        budget_s: Optional[float] = None,
        recovery_policy: RecoveryPolicy = RecoveryPolicy.ZERO,
        auto_reprotect: bool = True,
        event_history: int = 256,
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
        self.default_config = default_config or RadarConfig()
        self.num_shards = num_shards
        self.policy = ScanPolicy(policy)
        self.shards_per_pass = shards_per_pass
        self.budget_s = budget_s
        self.recovery_policy = RecoveryPolicy(recovery_policy)
        self.auto_reprotect = auto_reprotect
        self.bus = EventBus(history=event_history)
        #: Optional per-tick observer (duck-typed: needs ``observe_tick``).
        #: :meth:`repro.telemetry.monitor.FleetTelemetry.attach` sets this —
        #: lifecycle *events* travel over the bus, but budget utilisation
        #: and stacking efficiency live in tick outcomes, which never do.
        self.telemetry = None
        #: Wall-clock of the last completed tick (``perf_counter`` diff),
        #: stamped before telemetry observes the tick.
        self.last_tick_duration_s: Optional[float] = None
        #: The last completed tick's wall-clock per stage of
        #: :data:`TICK_STAGES` (``kernel`` spans every bucket's pass); the
        #: stages run one after another inside the tick, so they sum to at
        #: most :attr:`last_tick_duration_s`.
        self.last_stage_durations_s: Optional[Dict[str, float]] = None
        self._models: Dict[str, ManagedModel] = {}
        self._tick_index = 0
        # Per-bucket kernel workspaces, reused across ticks.
        self._scratch: Dict[Tuple, ScanScratch] = {}
        # Precompiled stacked passes per (kernel key, sub-bucket): rebuilt
        # whenever the bucket's membership changes (checked by fused-view
        # identity each tick).  A re-sign keeps the view and refreshes the
        # verifiers' prestacked goldens instead (_resign).
        self._verifiers: Dict[Tuple, StackedVerifier] = {}

    # -- registry ---------------------------------------------------------------
    def register(
        self,
        name: str,
        model: Module,
        config: Optional[RadarConfig] = None,
        num_shards: Optional[int] = None,
        keep_golden_weights: bool = False,
        cost_model: Optional[ScanCostModel] = None,
    ) -> ManagedModel:
        """Protect ``model`` and enrol it in the scan rotation.

        ``cost_model`` prices this model's scan slices for budgeted ticks;
        it defaults to the fixed price of the model's
        :class:`~repro.core.config.RadarConfig`.
        """
        if not name:
            raise ProtectionError("Managed model name must be non-empty")
        if name in self._models:
            raise ProtectionError(f"Model {name!r} is already registered")
        radar_config = config or self.default_config
        protector = ModelProtector(radar_config)
        protector.protect(model, keep_golden_weights=keep_golden_weights)
        scheduler = ScanScheduler(
            protector.store,
            num_shards=num_shards if num_shards is not None else self.num_shards,
            policy=self.policy,
            shards_per_pass=self.shards_per_pass,
            cost_model=cost_model or ScanCostModel.from_radar_config(radar_config),
        )
        managed = ManagedModel(
            name=name, model=model, protector=protector, scheduler=scheduler
        )
        managed.refresh_layer_map()
        if self.budget_s is not None:
            self._require_feasible(self.budget_s, {name: managed})
        self._models[name] = managed
        return managed

    def unregister(self, name: str) -> ManagedModel:
        if name not in self._models:
            raise ProtectionError(f"Model {name!r} is not registered")
        managed = self._models.pop(name)
        # A cached bucket verifier would keep the model's view, plane and
        # shared geometry alive until the next tick rebuilt it.
        self._verifiers.clear()
        return managed

    def get(self, name: str) -> ManagedModel:
        if name not in self._models:
            raise ProtectionError(f"Model {name!r} is not registered")
        return self._models[name]

    def names(self) -> List[str]:
        return list(self._models)

    def state_of(self, name: str) -> ProtectionState:
        return self.get(name).state

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    # -- lifecycle ---------------------------------------------------------------
    def reprotect(self, name: str) -> ManagedModel:
        """Re-sign a model after a legitimate weight update (or a recovery).

        Rewrites every golden signature from the model's *current* weights
        in place and restarts its scheduler's rotation (see
        :meth:`_resign`).  The planner keeps its learned per-shard flip
        rates — the shard that was just attacked stays a priority.  The
        layers must keep their weight counts; a reshaped model needs
        registering again.  Emits a ``reprotect`` event and returns the
        model to PROTECTED.
        """
        managed = self.get(name)
        detail = self._resign(managed)
        managed.state = ProtectionState.PROTECTED
        self._emit(FleetEventType.REPROTECT, name, {"trigger": "manual", **detail})
        return managed

    def _resign(
        self,
        managed: ManagedModel,
        groups: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, object]:
        """The one re-sign path: rewrite goldens in place, restart the rotation.

        ``groups`` (``{layer: group indices}``) limits the rewrite to the
        groups a full sweep flagged and recovery rewrote — the sweep proved
        every other golden current; ``None`` re-signs every group.  The
        store, its fused view and plane, the layer map and the scheduler
        object survive, so cached bucket verifiers stay valid once their
        prestacked copies of the view's goldens are refreshed.  Returns the
        ``reprotect`` event detail.
        """
        started = time.perf_counter()
        resigned = managed.protector.resign(
            managed.model, groups, layer_map=managed.layer_map
        )
        view = managed.scheduler.fused
        for verifier in self._verifiers.values():
            verifier.refresh_golden(view)
        managed.scheduler.restart()
        return {
            "groups_resigned": resigned,
            "elapsed_s": time.perf_counter() - started,
        }

    # -- budget allocation --------------------------------------------------------
    def allocate_budget(self, budget_s: float) -> Dict[str, float]:
        """Split one fleet-wide tick budget across the registered models.

        Models claim budget in :meth:`ManagedModel.urgency` order (exposure
        backlog plus flagged history; registration order breaks ties): each
        claims exactly the priced cost of the shard slice it can afford from
        what is left, and the remainder flows to the next model.  A model
        whose leftover cannot cover one of its shards gets a zero share this
        tick — its backlog then grows, so it claims first on a later tick
        instead of silently overrunning the budget.  Shares therefore sum to
        at most ``budget_s``.
        """
        self._require_models()
        return {
            name: share for name, (share, _) in self._plan_budgeted(budget_s).items()
        }

    def _plan_budgeted(
        self, budget_s: float
    ) -> Dict[str, Tuple[float, List[int]]]:
        """Urgency-ordered allocation: each model's (share, planned slice)."""
        if not budget_s > 0:
            raise ProtectionError(f"budget_s must be positive, got {budget_s}")
        self._require_feasible(budget_s, self._models)
        by_urgency = sorted(
            self._models, key=lambda name: -self._models[name].urgency()
        )
        planned: Dict[str, Tuple[float, List[int]]] = {}
        remaining = budget_s
        for name in by_urgency:
            scheduler = self._models[name].scheduler
            shard_indices = scheduler.plan(budget_s=remaining)
            share = scheduler.slice_cost_s(shard_indices)
            planned[name] = (share, shard_indices)
            remaining -= share
        # Preserve registration order for callers iterating the result.
        return {name: planned[name] for name in self._models}

    def _plan_tick(
        self, budget_s: Optional[float]
    ) -> Dict[str, Tuple[Optional[float], List[int]]]:
        """Every model's budget share and slice for one tick, planned once."""
        budget = budget_s if budget_s is not None else self.budget_s
        if budget is None:
            return {
                name: (None, managed.scheduler.plan())
                for name, managed in self._models.items()
            }
        return dict(self._plan_budgeted(budget))

    # -- the tick -----------------------------------------------------------------
    def tick(
        self,
        budget_s: Optional[float] = None,
        recovery_policy: Optional[RecoveryPolicy] = None,
    ) -> Dict[str, EngineTickOutcome]:
        """One engine pass: batched cross-model scan + automatic lifecycle.

        Every registered model contributes its affordable slice to the work
        queue; structurally identical slices are verified together in one
        stacked pass.  Flagged models are then recovered under
        ``recovery_policy`` (default: the engine's policy;
        ``RecoveryPolicy.NONE`` detects only) and — when ``auto_reprotect``
        is on — re-signed, so the whole
        FLAGGED → RECOVERING → REPROTECTING → PROTECTED loop happens inside
        this call.

        Each stage of :data:`TICK_STAGES` is timed once into
        :attr:`last_stage_durations_s`, which an attached telemetry
        observer turns into ``stage_duration_s`` histograms.
        """
        self._require_models()
        policy = (
            RecoveryPolicy(recovery_policy)
            if recovery_policy is not None
            else self.recovery_policy
        )
        # RELOAD without a golden snapshot is refused on every tick, not
        # only on the tick that first has something to recover.
        for managed in self._models.values():
            require_golden_weights(policy, managed.protector.golden_weights)
        self._tick_index += 1
        started = time.perf_counter()
        plans = self._plan_tick(budget_s)
        slices: List[_PlannedSlice] = []
        for name, managed in self._models.items():
            share, shard_indices = plans[name]
            rows = managed.scheduler.slice_rows(shard_indices)
            if share is not None and not shard_indices:
                self._emit(
                    FleetEventType.BUDGET_EXHAUSTED,
                    name,
                    {
                        "budget_share_s": share,
                        "min_feasible_budget_s": managed.min_feasible_budget_s(),
                    },
                )
            slices.append(_PlannedSlice(managed, share, shard_indices, rows))
        planned_at = time.perf_counter()
        passes = self._assemble(slices)
        assembled_at = time.perf_counter()
        for batch, scratch, verifier in passes:
            self._run_batch(batch, scratch, verifier)
        verified_at = time.perf_counter()
        scans = [
            planned.managed.scheduler.apply_scan(
                planned.shard_indices,
                planned.flagged_rows,
                measured_s=planned.measured_s,
                budget_s=planned.share,
            )
            for planned in slices
        ]
        judged_at = time.perf_counter()
        outcomes: Dict[str, EngineTickOutcome] = {
            planned.managed.name: self._lifecycle(planned, scan, policy)
            for planned, scan in zip(slices, scans)
        }
        finished = time.perf_counter()
        self.last_tick_duration_s = finished - started
        self.last_stage_durations_s = {
            "plan": planned_at - started,
            "assemble": assembled_at - planned_at,
            "kernel": verified_at - assembled_at,
            "verdict": judged_at - verified_at,
            "lifecycle": finished - judged_at,
        }
        if self.telemetry is not None:
            self.telemetry.observe_tick(self._tick_index, outcomes)
        return outcomes

    @property
    def tick_index(self) -> int:
        """Ticks run so far (the tick stamp :class:`FleetEvent`\\ s carry)."""
        return self._tick_index

    def _assemble(
        self, slices: List[_PlannedSlice]
    ) -> List[Tuple[List[_PlannedSlice], ScanScratch, StackedVerifier]]:
        """Group the planned slices into stacked kernel passes.

        Slices are bucketed by :meth:`FusedSignatures.kernel_key` — the same
        ``(group_size, signature_bits)`` means the same gather-row width and
        binarization, which is all the stacked pass needs.  Structurally
        identical models at the same rotation position share one broadcast
        index matrix inside the pass; everything else rides along via padded
        stacking, so even a fully heterogeneous fleet coalesces into one
        batch per bucket instead of one pass per model.  Inside a bucket the
        stacked pass is cache-blocked over slot-major tiles and each model's
        contiguous slice gathers through its plane's rotated-arange
        structure when one was detected at fuse time (see
        :func:`~repro.core.signature._stacked_sums`).  Empty slices are
        settled here; the tick runs the returned passes one after another on
        the calling thread (:meth:`_run_batch`).
        """
        batches: Dict[Tuple, List[_PlannedSlice]] = {}
        for planned in slices:
            if planned.rows.size == 0:
                planned.flagged_rows = planned.rows
                planned.measured_s = 0.0
                continue
            key = planned.managed.scheduler.fused.kernel_key()
            batches.setdefault(key, []).append(planned)
        groups: List[Tuple[List[_PlannedSlice], ScanScratch, StackedVerifier]] = []
        for key, batch in batches.items():
            # Width-disparity guard: padding every slice to the bucket max is
            # wasteful when one model's row count dwarfs the rest, so such a
            # bucket is sub-split into separately stacked passes, each with
            # its own scratch.
            parts = split_by_padding_waste(
                [planned.rows.size for planned in batch], MAX_PADDING_WASTE
            )
            for sub_index, part in enumerate(parts):
                scratch = self._scratch.setdefault((key, sub_index), ScanScratch())
                # Registration order, not the part's size order: models at
                # different rotation positions swap places in a size-sorted
                # part whenever their shards differ by a row, and a reordered
                # batch misses the verifier cache.
                sub_batch = [batch[index] for index in sorted(part)]
                verifier = self._bucket_verifier((key, sub_index), sub_batch)
                groups.append((sub_batch, scratch, verifier))
        return groups

    def _bucket_verifier(
        self, cache_key: Tuple, batch: List[_PlannedSlice]
    ) -> StackedVerifier:
        """The precompiled stacked pass for one sub-bucket, rebuilt on change.

        Bucket membership is stable tick to tick (same models, same
        registration order, and a re-sign keeps a model's view and layer
        map), so the identity sweep below almost always hits; a change in
        which models share the sub-bucket misses and recompiles.
        """
        verifier = self._verifiers.get(cache_key)
        if verifier is not None and len(verifier.views) == len(batch):
            for planned, view, layer_map in zip(
                batch, verifier.views, verifier.layer_maps
            ):
                if (
                    planned.managed.scheduler.fused is not view
                    or planned.managed.layer_map is not layer_map
                ):
                    break
            else:
                return verifier
        verifier = StackedVerifier(
            [planned.managed.scheduler.fused for planned in batch],
            [planned.managed.layer_map for planned in batch],
        )
        self._verifiers[cache_key] = verifier
        return verifier

    def _run_batch(
        self,
        batch: List[_PlannedSlice],
        scratch: ScanScratch,
        verifier: StackedVerifier,
    ) -> None:
        homogeneous = verifier.shared_geometry and _same_rows(batch)
        started = time.perf_counter()
        # Singletons go through the same kernel: a one-model "stack" costs the
        # same as the direct path but reuses the cached layer maps instead of
        # re-walking the module tree every tick.
        flagged = verifier.verify(
            [planned.rows for planned in batch], scratch, homogeneous
        )
        elapsed = time.perf_counter() - started
        share = elapsed / len(batch)
        width = max(planned.rows.size for planned in batch)
        for planned, flagged_rows in zip(batch, flagged):
            planned.flagged_rows = flagged_rows
            # Every model's column in the padded stack is gathered and
            # reduced at the full bucket width, so each model really costs
            # an equal share of the pass — billing by own row count would
            # under-charge short slices and miscalibrate measured cost
            # models in mixed-size buckets.
            planned.measured_s = share
            planned.batch_size = len(batch)
            planned.batch_width = width

    def _lifecycle(
        self,
        planned: _PlannedSlice,
        scan: ScanPassResult,
        policy: RecoveryPolicy,
    ) -> EngineTickOutcome:
        managed = planned.managed
        transitions: List[ProtectionState] = []
        recovery: Optional[RecoveryReport] = None
        reprotected = False

        def move(state: ProtectionState) -> None:
            managed.state = state
            transitions.append(state)

        # planned.flagged_rows is exactly what scan.report was built from,
        # so this size test IS scan.attack_detected — minus the per-layer
        # group-count walk the report property performs.
        if planned.flagged_rows.size:
            move(ProtectionState.FLAGGED)
            self._emit(
                FleetEventType.DETECTION,
                managed.name,
                {
                    "flagged_groups": scan.report.num_flagged_groups,
                    "shards": list(scan.shard_indices),
                    "pass_index": scan.pass_index,
                },
            )
            if policy is not RecoveryPolicy.NONE:
                move(ProtectionState.RECOVERING)
                if self.auto_reprotect:
                    # The slice only scanned part of the model, but the
                    # re-sign below accepts *all* current weights as the new
                    # golden baseline — recovering the slice alone would
                    # bake any still-unscanned corruption into the fresh
                    # signatures, where it could never be detected again.
                    # Sweep the whole model (fused fast path) and recover
                    # everything the attack touched before re-signing.
                    sweep = managed.protector.scan_fused(managed.model)
                    recovery = managed.protector.recover(
                        managed.model, sweep, policy=policy, layer_map=managed.layer_map
                    )
                    recovered_groups = sweep.flagged_groups
                else:
                    recovery = managed.protector.recover(
                        managed.model,
                        scan.report,
                        policy=policy,
                        layer_map=managed.layer_map,
                    )
                self._emit(
                    FleetEventType.RECOVERY,
                    managed.name,
                    {
                        "policy": policy.value,
                        "full_sweep": self.auto_reprotect,
                        "groups_recovered": recovery.groups_recovered,
                        "zeroed_weights": recovery.zeroed_weights,
                        "reloaded_weights": recovery.reloaded_weights,
                        "elapsed_s": recovery.elapsed_s,
                    },
                )
                if self.auto_reprotect:
                    # Zeroed groups no longer match their golden signatures,
                    # so without this re-sign every later pass would flag
                    # them again forever.
                    move(ProtectionState.REPROTECTING)
                    detail = self._resign(managed, recovered_groups)
                    reprotected = True
                    self._emit(
                        FleetEventType.REPROTECT,
                        managed.name,
                        {"trigger": "recovery", **detail},
                    )
                    move(ProtectionState.PROTECTED)
        elif (
            managed.state is not ProtectionState.PROTECTED
            and scan.rotation_complete
            and scan.rotation_report is not None
            and not scan.rotation_report.attack_detected
        ):
            # A full clean rotation proves the signatures verify clean again
            # (e.g. RELOAD restored the golden weights): heal the state
            # without a re-sign.
            move(ProtectionState.PROTECTED)

        return EngineTickOutcome(
            name=managed.name,
            scan=scan,
            state=managed.state,
            transitions=transitions,
            recovery=recovery,
            reprotected=reprotected,
            budget_s=planned.share,
            batch_size=planned.batch_size,
            batch_width=planned.batch_width,
        )

    # -- fleet queries ------------------------------------------------------------
    def scan_all(self) -> Dict[str, DetectionReport]:
        """Stop-the-world full scan of every model (the fused fast path)."""
        self._require_models()
        return {
            name: managed.protector.scan_fused(managed.model)
            for name, managed in self._models.items()
        }

    def describe(self) -> List[Dict]:
        """One summary row per managed model (used by the CLI)."""
        rows: List[Dict] = []
        for name, managed in self._models.items():
            row: Dict = {
                "model": name,
                "state": managed.state.value,
                "layers": len(managed.protector.store),
            }
            row.update(managed.scheduler.describe())
            row["storage_kb"] = round(managed.protector.storage_overhead_kb(), 3)
            rows.append(row)
        return rows

    # -- plumbing -----------------------------------------------------------------
    def _emit(self, event_type: FleetEventType, model: str, detail: Dict) -> None:
        self.bus.emit(
            FleetEvent(
                type=event_type, model=model, tick=self._tick_index, detail=detail
            )
        )

    def _require_feasible(
        self, budget_s: float, models: Dict[str, ManagedModel]
    ) -> None:
        """A tick budget a model's largest shard can never fit inside would
        silently disable that model's protection forever (every allocation
        would grant it nothing); fail fast instead.

        Checked at registration and on every budgeted tick, at each model's
        current price: a learned price can rise past the budget, and a model
        that scans nothing never observes a pass that could bring its price
        back down.
        """
        infeasible = {
            name: need
            for name, managed in models.items()
            if (need := managed.min_feasible_budget_s()) > budget_s
        }
        if infeasible:
            detail = ", ".join(
                f"{name!r} needs >= {need * 1e3:.6g} ms"
                for name, need in infeasible.items()
            )
            raise ProtectionError(
                f"fleet budget of {budget_s * 1e3:.6g} ms can never cover a full "
                f"scan slice of: {detail}; raise the budget or register the "
                "model with more shards"
            )

    def _require_models(self) -> None:
        if not self._models:
            raise ProtectionError(
                "VerificationEngine has no registered models; "
                "call register(name, model) first"
            )
