"""Accuracy recovery (Section V).

The paper's recovery is deliberately simple: every group flagged by the
detector has *all* of its weights set to zero (after de-interleaving back
to the original memory layout).  Because PBFA turns small weights into
large ones, and because most weights in a group are small and centred on
zero, zeroing the whole group removes the catastrophic outlier at a minor
cost to accuracy.

Two alternative policies are provided for comparison/ablation:

* ``NONE`` — detect only (the paper's "halt and wait" option without the
  halt); weights are left corrupted.
* ``RELOAD`` — restore the affected groups from a golden copy of the
  weights (models re-fetching a clean copy from flash/disk; expensive in
  practice but an upper bound on recovery quality).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.detector import DetectionReport
from repro.core.signature import SignatureStore
from repro.errors import ProtectionError
from repro.nn.module import Module
from repro.quant.layers import quantized_layers


class RecoveryPolicy(str, Enum):
    """What to do with a flagged group."""

    ZERO = "zero"
    RELOAD = "reload"
    NONE = "none"


@dataclass
class RecoveryReport:
    """Result of a recovery pass."""

    policy: RecoveryPolicy
    zeroed_weights: int = 0
    reloaded_weights: int = 0
    groups_recovered: int = 0
    per_layer: Dict[str, int] = field(default_factory=dict)
    #: Wall-clock seconds the recovery pass took (what the fleet engine's
    #: ``recovery`` events report alongside the scan's ``measured_s``).
    elapsed_s: float = 0.0


def require_golden_weights(
    policy: RecoveryPolicy, golden_weights: Optional[Dict[str, np.ndarray]]
) -> None:
    """Refuse ``RELOAD`` without a golden snapshot, whatever a scan finds."""
    if policy is RecoveryPolicy.RELOAD and golden_weights is None:
        raise ProtectionError("RELOAD recovery needs the golden weights snapshot")


def recover_model(
    model: Module,
    report: DetectionReport,
    store: SignatureStore,
    policy: RecoveryPolicy = RecoveryPolicy.ZERO,
    golden_weights: Optional[Dict[str, np.ndarray]] = None,
    layer_map: Optional[Mapping[str, Module]] = None,
) -> RecoveryReport:
    """Apply the recovery policy to every flagged group of ``model`` in place.

    ``layer_map`` is the caller's cached ``{name: layer}`` map of ``model``
    (the fleet engine and the runtime keep one); without it the module tree
    is walked once per call that has anything to recover.
    """
    require_golden_weights(policy, golden_weights)
    started = time.perf_counter()
    recovery = RecoveryReport(policy=policy)
    if policy is RecoveryPolicy.NONE:
        return recovery
    if not any(flagged.size for flagged in report.flagged_groups.values()):
        return recovery  # clean report: nothing to walk, nothing to touch

    if layer_map is None:
        layer_map = dict(quantized_layers(model))
    for layer_name, flagged in report.flagged_groups.items():
        if flagged.size == 0:
            continue
        if layer_name not in layer_map:
            raise ProtectionError(f"Flagged layer {layer_name!r} missing from model")
        recover_groups(
            recovery, layer_name, layer_map[layer_name], store, flagged, golden_weights
        )
    recovery.elapsed_s = time.perf_counter() - started
    return recovery


def recover_groups(
    recovery: RecoveryReport,
    layer_name: str,
    layer: Module,
    store: SignatureStore,
    flagged: np.ndarray,
    golden_weights: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Apply ``recovery.policy`` to one layer's flagged groups, tallied into ``recovery``.

    The per-layer step of :func:`recover_model`; the streamed runtime calls
    it for each flagged layer as the forward reaches it.  ``NONE`` touches
    nothing; ``RELOAD`` needs ``golden_weights`` (see
    :func:`require_golden_weights`).
    """
    policy = recovery.policy
    if policy is RecoveryPolicy.NONE:
        return
    members = store.layer(layer_name).layout.member_indices(flagged)
    flat = layer.qweight.reshape(-1)
    affected = int(members.size)
    if policy is RecoveryPolicy.ZERO:
        flat[members] = 0
        recovery.zeroed_weights += affected
    elif policy is RecoveryPolicy.RELOAD:
        golden = golden_weights.get(layer_name)
        if golden is None:
            raise ProtectionError(f"Golden weights missing for layer {layer_name!r}")
        flat[members] = golden.reshape(-1)[members]
        recovery.reloaded_weights += affected
    recovery.groups_recovered += int(flagged.size)
    recovery.per_layer[layer_name] = affected
