"""RADAR: the run-time detection and accuracy-recovery scheme (the paper's contribution).

Pipeline (Sections IV and V of the paper):

1. **Offline** — for every quantized layer, the weights are interleaved
   (:mod:`repro.core.interleave`), masked with a per-layer secret key
   (:mod:`repro.core.masking`), summed per group and binarized into a 2-bit
   signature (:mod:`repro.core.checksum`).  The golden signatures live in a
   :class:`repro.core.signature.SignatureStore` (modelling secure on-chip
   SRAM).
2. **Run time** — :class:`repro.core.detector.RadarDetector` recomputes the
   signatures on the weights streamed from DRAM and flags mismatching
   groups; :mod:`repro.core.recovery` zeroes the weights of flagged groups
   (after de-interleaving) to restore accuracy.

:class:`repro.core.protector.ModelProtector` ties everything together, and
:class:`repro.core.runtime.ProtectedInference` embeds the check in the
inference path as the paper's gem5 experiment does.

Several run-time extensions go beyond the paper's stop-the-world scan:

* :class:`repro.core.scheduler.ScanScheduler` — amortized scanning: the
  model's signature groups are partitioned into shards (on the vectorized
  :class:`repro.core.signature.FusedSignatures` fast path) and each forward
  pass verifies only a bounded slice, so the whole model is verified within
  one rotation at a fraction of the per-pass cost.
* :mod:`repro.core.cost` — scan cost models that price a verification slice
  in seconds (analytic, from the memsim timing constants, or measured via an
  EWMA), so slices can be sized from a *latency budget* rather than a shard
  count (``ScanScheduler.from_budget``).
* :mod:`repro.core.planner` — pluggable shard-selection planners behind the
  scheduler's policies, including flip-rate-tuned priority-exposure ordering.
* :class:`repro.core.fleet.VerificationEngine` — the fleet engine: one work
  queue of scan slices drawn from all registered models, coalesced into
  batched cross-model vectorized passes, with an explicit
  PROTECTED → FLAGGED → RECOVERING → REPROTECTING → PROTECTED state machine
  and a ``detection`` / ``recovery`` / ``reprotect`` / ``budget_exhausted``
  event bus, so the detect→recover→reprotect loop is engine policy rather
  than caller discipline.  A fleet-wide latency budget is split across
  the registry by exposure backlog and flip history.
"""

from repro.core.config import RadarConfig
from repro.core.cost import BudgetPlan, ScanCostModel, plan_rotation
from repro.core.planner import (
    FullScanPlanner,
    JitteredPlanner,
    PriorityExposurePlanner,
    RoundRobinPlanner,
    ShardView,
    VerificationPlanner,
)
from repro.core.interleave import GroupLayout
from repro.core.masking import SecretKey
from repro.core.checksum import compute_group_sums, signature_from_sums
from repro.core.signature import (
    FusedSignatures,
    LayerSignatures,
    ScanScratch,
    SignatureStore,
    batched_mismatched_rows,
    split_by_padding_waste,
    stacked_mismatched_rows,
)
from repro.core.detector import DetectionReport, RadarDetector, count_detected_flips
from repro.core.recovery import RecoveryPolicy, RecoveryReport, recover_model
from repro.core.scheduler import (
    ScanPassResult,
    ScanPolicy,
    ScanScheduler,
    ShardInfo,
    SliceDescriptor,
)
from repro.core.protector import ModelProtector, ProtectionSummary
from repro.core.runtime import InferenceOutcome, ProtectedInference
from repro.core.fleet import (
    EngineTickOutcome,
    EventBus,
    FleetEvent,
    FleetEventType,
    ManagedModel,
    ProtectionState,
    VerificationEngine,
)

# Former name of the fixed price, kept only because radarbench/spans.py
# imports it; it goes with the next change to the benchmark.
AnalyticScanCostModel = ScanCostModel

__all__ = [
    "RadarConfig",
    "ScanCostModel",
    "AnalyticScanCostModel",
    "BudgetPlan",
    "plan_rotation",
    "VerificationPlanner",
    "ShardView",
    "FullScanPlanner",
    "RoundRobinPlanner",
    "PriorityExposurePlanner",
    "JitteredPlanner",
    "GroupLayout",
    "SecretKey",
    "compute_group_sums",
    "signature_from_sums",
    "LayerSignatures",
    "SignatureStore",
    "FusedSignatures",
    "ScanScratch",
    "batched_mismatched_rows",
    "stacked_mismatched_rows",
    "split_by_padding_waste",
    "RadarDetector",
    "DetectionReport",
    "count_detected_flips",
    "RecoveryPolicy",
    "RecoveryReport",
    "recover_model",
    "ScanPolicy",
    "ScanPassResult",
    "ScanScheduler",
    "ShardInfo",
    "SliceDescriptor",
    "ModelProtector",
    "ProtectionSummary",
    "ProtectedInference",
    "InferenceOutcome",
    "ManagedModel",
    "VerificationEngine",
    "ProtectionState",
    "FleetEvent",
    "FleetEventType",
    "EventBus",
    "EngineTickOutcome",
]
