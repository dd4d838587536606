"""Protected inference runtime.

The paper embeds signature checking in the layer-by-layer weight streaming
of the inference computation (that is what the gem5 experiment times).  In
this reproduction the compute substrate is a NumPy framework rather than a
cache simulator, so the runtime wrapper models the same behaviour at the
granularity it has: before (or interleaved with) each batch's forward pass
it verifies all protected layers, optionally recovers, and records what
happened.  The cycle-accurate cost of doing this inside the weight
streaming loop is modelled separately by :mod:`repro.memsim.timing`.

Budgeted checking self-calibrates: in budgeted mode the default cost model
is a :class:`~repro.core.cost.MeasuredScanCostModel` seeded with the
analytic price, every check's wall-clock is folded back into it, and —
unless an explicit ``check_every`` overrides it — the check cadence is
re-derived from the calibrated price after each check, so the amortized
per-batch overhead tracks ``budget_s`` on the *actual* host rather than on
the calibrated Cortex-M platform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import RadarConfig
from repro.core.cost import MeasuredScanCostModel, ScanCostModel
from repro.core.protector import ModelProtector
from repro.core.recovery import RecoveryPolicy
from repro.core.scheduler import ScanPolicy, ScanScheduler
from repro.errors import ProtectionError
from repro.nn.module import Module
from repro.quant.layers import quantized_layers


@dataclass
class InferenceOutcome:
    """Result of one protected forward pass."""

    logits: np.ndarray
    attack_detected: bool
    flagged_groups: int
    recovered_weights: int

    @property
    def predictions(self) -> np.ndarray:
        return self.logits.argmax(axis=1)


@dataclass
class RuntimeLog:
    """Accumulated statistics over the lifetime of a ProtectedInference object."""

    batches: int = 0
    checks: int = 0
    detections: int = 0
    flagged_groups: int = 0
    recovered_weights: int = 0
    #: Wall-clock seconds spent inside detection + recovery checks.
    check_seconds: float = 0.0
    events: List[str] = field(default_factory=list)


class ProtectedInference:
    """Wraps a quantized model with RADAR checking on every forward pass.

    Three checking modes are supported:

    * **full** (``num_shards=None``, the default): every check verifies the
      whole model, as in the paper's gem5 experiment;
    * **amortized** (``num_shards=N``): each check verifies one slice of the
      model's signature groups via a :class:`~repro.core.scheduler.ScanScheduler`,
      bounding per-batch latency while the whole model is still verified
      within one rotation (at most ``scheduler.worst_case_lag_passes`` checks);
    * **budgeted** (``budget_s=B``): the slice is sized from a per-batch
      latency budget instead of a shard count — the scheduler derives its
      shards so no check is priced above ``B`` seconds under ``cost_model``
      (a self-calibrating :class:`~repro.core.cost.MeasuredScanCostModel`
      seeded with the analytic price, by default).  Combine with
      ``num_shards`` to keep a fixed structure and merely cap its per-pass
      cost.

    ``check_every`` picks the cadence:

    * an explicit ``int`` fixes it (one check every N batches, as before);
    * ``None`` (the default) auto-tunes it in budgeted mode — the cadence is
      ``ceil(slice_cost / budget_s)`` under the *calibrated* cost model, so
      checking never exceeds an amortized ``budget_s`` per batch, and each
      check may spend the budget the skipped batches saved up.  The cadence
      is re-derived after every check as the measured price drifts.  A
      ``budget_s`` too small for even one signature group — which
      :meth:`ScanScheduler.from_budget` rejects outright — is made feasible
      by falling back to the finest possible rotation (one group per shard)
      and stretching the cadence instead.  Without a budget, ``None`` means
      every batch.
    """

    def __init__(
        self,
        model: Module,
        config: Optional[RadarConfig] = None,
        policy: RecoveryPolicy = RecoveryPolicy.ZERO,
        check_every: Optional[int] = None,
        num_shards: Optional[int] = None,
        scan_policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        shards_per_pass: int = 1,
        budget_s: Optional[float] = None,
        cost_model: Optional[ScanCostModel] = None,
    ) -> None:
        if check_every is not None and check_every < 1:
            raise ProtectionError("check_every must be >= 1")
        if budget_s is not None and not budget_s > 0:
            raise ProtectionError(f"budget_s must be positive, got {budget_s}")
        self.model = model
        self.policy = policy
        self.budget_s = budget_s
        #: Whether the cadence follows the calibrated cost model (no explicit
        #: ``check_every`` and a budget to derive it from).
        self.auto_cadence = check_every is None and budget_s is not None
        self.protector = ModelProtector(config)
        self.protector.protect(model)
        if budget_s is not None and cost_model is None:
            # Self-calibrating default: analytic prior, measured updates.
            cost_model = MeasuredScanCostModel.from_radar_config(
                self.protector.config
            )
        self.cost_model = cost_model
        self.scheduler: Optional[ScanScheduler] = None
        if budget_s is not None and num_shards is None:
            try:
                self.scheduler = self.protector.scheduler_for_budget(
                    budget_s, cost_model=cost_model, policy=scan_policy
                )
            except ProtectionError:
                if not self.auto_cadence:
                    raise
                # Budget below one group's price: use the finest rotation the
                # store allows and let the cadence stretch to afford it.
                self.scheduler = self.protector.scheduler(
                    num_shards=self.protector.store.total_groups(),
                    policy=scan_policy,
                    cost_model=cost_model,
                )
        elif num_shards is not None:
            self.scheduler = self.protector.scheduler(
                num_shards=num_shards,
                policy=scan_policy,
                shards_per_pass=shards_per_pass,
                budget_s=budget_s,
                cost_model=cost_model,
            )
        self.check_every = (
            check_every if check_every is not None else self._derived_cadence()
        )
        # Adopt the wrapped model into the fused view's zero-copy weight
        # plane, exactly as the fleet engine does for registered models: the
        # inline check path (scheduler slices and fused full scans alike)
        # then gathers straight from the buffers attacks and recovery
        # mutate, with no per-check weight copies.
        self.protector.store.fused().adopt(dict(quantized_layers(model)))
        self.log = RuntimeLog()
        self._since_last_check = 0

    def _derived_cadence(self) -> int:
        """Batches per check so amortized checking stays within ``budget_s``."""
        if not self.auto_cadence or self.scheduler is None or self.cost_model is None:
            return 1
        slice_cost = self.cost_model.pass_cost_s(self.scheduler.largest_shard_groups)
        return max(1, math.ceil(slice_cost / self.budget_s))

    def _retune_cadence(self) -> None:
        cadence = self._derived_cadence()
        if cadence != self.check_every:
            self.log.events.append(
                f"batch {self.log.batches}: check cadence retuned "
                f"{self.check_every} -> {cadence} "
                f"(calibrated slice cost vs {self.budget_s * 1e3:.4g} ms budget)"
            )
            self.check_every = cadence

    def _check(self) -> Tuple[bool, int, int]:
        """One detection + recovery round (full or amortized)."""
        started = time.perf_counter()
        if self.scheduler is None:
            # scan_fused gathers straight from the adopted plane (same
            # report as the per-layer scan, none of its weight copies).
            detection = self.protector.scan_fused(self.model)
            recovery = self.protector.recover(self.model, detection, policy=self.policy)
            elapsed = time.perf_counter() - started
            observe = getattr(self.cost_model, "observe", None)
            if observe is not None:
                observe(self.protector.store.total_groups(), elapsed)
        else:
            # In auto-cadence mode each check may spend what the skipped
            # batches saved up; the scheduler observes the measured
            # wall-clock into the cost model itself (apply_scan).
            pass_budget = (
                self.check_every * self.budget_s
                if self.auto_cadence
                else None
            )
            detection = self.scheduler.step(self.model, budget_s=pass_budget).report
            recovery = self.protector.recover(self.model, detection, policy=self.policy)
            elapsed = time.perf_counter() - started
        self.log.checks += 1
        self.log.check_seconds += elapsed
        if self.auto_cadence:
            self._retune_cadence()
        flagged = detection.num_flagged_groups
        recovered = recovery.zeroed_weights + recovery.reloaded_weights
        return detection.attack_detected, flagged, recovered

    def forward(self, images: np.ndarray) -> InferenceOutcome:
        """Run one protected inference batch."""
        attack_detected = False
        flagged = 0
        recovered = 0
        self._since_last_check += 1
        if self._since_last_check >= self.check_every:
            self._since_last_check = 0
            attack_detected, flagged, recovered = self._check()
            if attack_detected:
                self.log.detections += 1
                self.log.events.append(
                    f"batch {self.log.batches}: {flagged} flagged groups, "
                    f"{recovered} weights recovered"
                )
        self.model.eval()
        logits = self.model(images)
        self.log.batches += 1
        self.log.flagged_groups += flagged
        self.log.recovered_weights += recovered
        return InferenceOutcome(
            logits=logits,
            attack_detected=attack_detected,
            flagged_groups=flagged,
            recovered_weights=recovered,
        )

    __call__ = forward

    # -- calibration persistence -------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable calibration snapshot.

        What a restart must keep is exactly what this runtime *learned*:
        the measured cost model's EWMA price (when the cost model is
        measurable) and the cadence it settled on.  Everything else —
        signatures, scheduler structure — is rebuilt from the model and
        config at construction time.
        """
        state: Dict[str, object] = {
            "auto_cadence": bool(self.auto_cadence),
            "check_every": int(self.check_every),
            "budget_s": self.budget_s,
        }
        snapshot = getattr(self.cost_model, "state_dict", None)
        if snapshot is not None:
            state["cost_model"] = snapshot()
        return state

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot into this runtime.

        The cost-model calibration is loaded first; in auto-cadence mode
        the cadence is then *re-derived* from the restored price (not
        copied verbatim), so a snapshot taken under a different budget
        still yields a consistent cadence for this runtime's budget.
        """
        persisted = state.get("cost_model")
        loader = getattr(self.cost_model, "load_state_dict", None)
        if persisted is not None and loader is not None:
            loader(persisted)
        if self.auto_cadence:
            self._retune_cadence()
        else:
            check_every = int(state.get("check_every", self.check_every))
            if check_every < 1:
                raise ProtectionError(
                    f"persisted check_every must be >= 1, got {check_every}"
                )
            self.check_every = check_every

    def storage_overhead_kb(self) -> float:
        """Secure-storage footprint of the signatures."""
        return self.protector.storage_overhead_kb()

    @property
    def structured(self) -> bool:
        """Whether every layer of the inline check may run on the band path.

        True when fuse-time detection proved every protected layer's
        rotated-arange structure (:class:`~repro.core.signature.PlaneStructure`),
        so wide enough layers sum over strided views of the weight plane;
        False means at least one layer's checks ride the general gather.
        Either way results are bit-identical — this only reports which
        engine serves the per-batch check cost.
        """
        return bool(self.protector.store.fused().structured)
