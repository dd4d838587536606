"""Fleet protection façade: the PR 1–2 registry API over the fleet engine.

A serving deployment rarely hosts a single network; the
:class:`ProtectionService` keeps a registry of protected models and advances
every model's amortized scan rotation once per ``step()``.  Since the fleet
engine landed (:mod:`repro.core.fleet`) the service is a thin façade over a
:class:`~repro.core.fleet.VerificationEngine`: registration, budget
allocation, and the per-tick scan all delegate to the engine — which
adopts every model into a zero-copy weight plane and coalesces all slices
sharing a kernel bucket (``group_size``, ``signature_bits``) into batched
stacked passes, heterogeneous architectures included — while this class
preserves the original caller-driven semantics:

* :meth:`step` detects only (engine tick with ``RecoveryPolicy.NONE``);
* :meth:`step_and_recover` recovers what the pass flagged but does **not**
  re-sign — callers keep explicit control of :meth:`reprotect`, exactly as
  before.  For the automatic detect → recover → reprotect loop, use the
  engine directly (``service.engine`` or a standalone
  :class:`~repro.core.fleet.VerificationEngine`).

Budgeted fleet ticks
--------------------
Instead of stepping every model a fixed structural slice, the service can
spread **one fleet-wide latency budget** over the registry: pass ``budget_s``
to :meth:`ProtectionService.step` / :meth:`step_and_recover` (or set a
default at construction).  :meth:`allocate_budget` hands the budget out in
*urgency* order — exposure backlog plus flagged-flip history — with each
model claiming exactly the priced cost of the shard slice it can afford
from what is left.  A model that is falling behind or sitting in a blast
radius therefore claims first; one whose leftover share affords nothing
scans nothing this tick, accumulates backlog, and preempts its peers on a
later tick.  Each model's :class:`~repro.core.cost.ScanCostModel` does the
pricing (see :meth:`ScanScheduler.step`).

Every returned :class:`~repro.core.scheduler.ScanPassResult` carries
``measured_s`` — the wall-clock the model's verification actually spent
(its share of a batched pass) — alongside the planned cost, so budget
accounting can be validated end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import RadarConfig
from repro.core.cost import ScanCostModel
from repro.core.detector import DetectionReport
from repro.core.fleet import ManagedModel, VerificationEngine
from repro.core.recovery import RecoveryPolicy, RecoveryReport
from repro.core.scheduler import ScanPassResult, ScanPolicy
from repro.nn.module import Module

__all__ = ["ManagedModel", "ProtectionService", "ServiceStepOutcome"]


@dataclass
class ServiceStepOutcome:
    """Result of one service pass over a single managed model."""

    name: str
    scan: ScanPassResult
    recovery: Optional[RecoveryReport] = None
    #: Share of the fleet-wide budget this model was stepped with, if any.
    budget_s: Optional[float] = None

    @property
    def attack_detected(self) -> bool:
        return self.scan.attack_detected

    @property
    def measured_s(self) -> Optional[float]:
        """Wall-clock seconds the model's scan actually spent."""
        return self.scan.measured_s


class ProtectionService:
    """Registry of protected models sharing an amortized scan budget.

    Typical use::

        service = ProtectionService(num_shards=8)
        service.register("lane-a", model_a)
        service.register("lane-b", model_b, config=RadarConfig(group_size=8))
        ...
        outcomes = service.step_and_recover()   # once per serving tick

    Budget-driven use (one latency budget for the whole fleet per tick)::

        service = ProtectionService(budget_s=2e-3)      # 2 ms per tick
        service.register("lane-a", model_a)
        service.register("lane-b", model_b)
        outcomes = service.step_and_recover()           # splits the 2 ms

    ``max_padding_waste`` is forwarded to the underlying engine's
    width-disparity guard for bucketed padded stacking (``None`` disables
    sub-splitting).  For SLA telemetry, attach a
    :class:`~repro.telemetry.monitor.FleetTelemetry` to ``service.engine``.
    """

    def __init__(
        self,
        default_config: Optional[RadarConfig] = None,
        num_shards: int = 8,
        policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        shards_per_pass: int = 1,
        budget_s: Optional[float] = None,
        max_padding_waste: Optional[float] = 0.5,
    ) -> None:
        #: The fleet engine doing the actual work.  Exposed so callers can
        #: opt into engine-level features (event bus, automatic reprotect via
        #: ``engine.tick``) without abandoning the façade.
        self.engine = VerificationEngine(
            default_config=default_config,
            num_shards=num_shards,
            policy=policy,
            shards_per_pass=shards_per_pass,
            budget_s=budget_s,
            max_padding_waste=max_padding_waste,
            recovery_policy=RecoveryPolicy.ZERO,
            # The façade preserves PR 1–2 semantics: recovery happens on
            # request, re-signing only via an explicit reprotect() call.
            auto_reprotect=False,
        )

    # -- mirrored configuration -------------------------------------------------
    @property
    def default_config(self) -> RadarConfig:
        return self.engine.default_config

    @property
    def num_shards(self) -> int:
        return self.engine.num_shards

    @property
    def policy(self) -> ScanPolicy:
        return self.engine.policy

    @property
    def shards_per_pass(self) -> int:
        return self.engine.shards_per_pass

    @property
    def budget_s(self) -> Optional[float]:
        return self.engine.budget_s

    # -- registry ---------------------------------------------------------------
    def register(
        self,
        name: str,
        model: Module,
        config: Optional[RadarConfig] = None,
        num_shards: Optional[int] = None,
        policy: Optional[ScanPolicy] = None,
        shards_per_pass: Optional[int] = None,
        keep_golden_weights: bool = False,
        cost_model: Optional[ScanCostModel] = None,
    ) -> ManagedModel:
        """Protect ``model`` and enrol it in the scan rotation.

        ``cost_model`` prices this model's scan slices for budgeted ticks;
        it defaults to the analytic model derived from the model's
        :class:`~repro.core.config.RadarConfig`.
        """
        return self.engine.register(
            name,
            model,
            config=config,
            num_shards=num_shards,
            policy=policy,
            shards_per_pass=shards_per_pass,
            keep_golden_weights=keep_golden_weights,
            cost_model=cost_model,
        )

    def unregister(self, name: str) -> ManagedModel:
        return self.engine.unregister(name)

    def reprotect(self, name: str) -> ManagedModel:
        """Re-sign a model after a legitimate weight update.

        Rebuilds the golden signatures from the model's *current* weights and
        replaces its scheduler with a fresh rotation (same structural
        options), so the scan restarts from a clean slate — the eviction /
        re-protect lifecycle for models whose weights were deliberately
        updated in place.  Without this, an updated model would be
        indistinguishable from an attacked one.
        """
        return self.engine.reprotect(name)

    def get(self, name: str) -> ManagedModel:
        return self.engine.get(name)

    def names(self) -> List[str]:
        return self.engine.names()

    def __len__(self) -> int:
        return len(self.engine)

    def __contains__(self, name: str) -> bool:
        return name in self.engine

    # -- fleet operations ---------------------------------------------------------
    def allocate_budget(self, budget_s: float) -> Dict[str, float]:
        """Split one fleet-wide tick budget across the registered models
        (see :meth:`VerificationEngine.allocate_budget`)."""
        return self.engine.allocate_budget(budget_s)

    def step(self, budget_s: Optional[float] = None) -> Dict[str, ScanPassResult]:
        """One amortized scan pass over every registered model (detect only).

        With a budget (argument or service default) each model is stepped
        with its :meth:`allocate_budget` share; otherwise every model scans
        its fixed structural slice.  Structurally identical models are
        verified together in one batched pass; each result's ``measured_s``
        is the wall-clock its model's share actually took.
        """
        outcomes = self.engine.tick(
            budget_s=budget_s, recovery_policy=RecoveryPolicy.NONE
        )
        return {name: outcome.scan for name, outcome in outcomes.items()}

    def step_and_recover(
        self,
        policy: RecoveryPolicy = RecoveryPolicy.ZERO,
        budget_s: Optional[float] = None,
    ) -> Dict[str, ServiceStepOutcome]:
        """One amortized pass per model, recovering whatever the pass flagged."""
        outcomes = self.engine.tick(budget_s=budget_s, recovery_policy=policy)
        return {
            name: ServiceStepOutcome(
                name=name,
                scan=outcome.scan,
                recovery=outcome.recovery
                if outcome.recovery is not None
                else RecoveryReport(policy=RecoveryPolicy(policy)),
                budget_s=outcome.budget_s,
            )
            for name, outcome in outcomes.items()
        }

    def scan_all(self) -> Dict[str, DetectionReport]:
        """Stop-the-world full scan of every model (the fused fast path)."""
        return self.engine.scan_all()

    def describe(self) -> List[Dict]:
        """One summary row per managed model (used by the CLI)."""
        return self.engine.describe()
