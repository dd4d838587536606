"""High-level API tying detection and recovery together."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.config import RadarConfig
from repro.core.cost import ScanCostModel
from repro.core.detector import DetectionReport, RadarDetector
from repro.core.recovery import RecoveryPolicy, RecoveryReport, recover_model
from repro.core.scheduler import ScanPolicy, ScanScheduler
from repro.core.signature import SignatureStore
from repro.errors import ProtectionError
from repro.nn.module import Module
from repro.quant.layers import quantized_layers


@dataclass
class ProtectionSummary:
    """Combined result of a detect + recover pass."""

    detection: DetectionReport
    recovery: RecoveryReport

    @property
    def attack_detected(self) -> bool:
        return self.detection.attack_detected


class ModelProtector:
    """The deployable RADAR object.

    Typical use::

        protector = ModelProtector(RadarConfig(group_size=512))
        protector.protect(model)            # offline, on the clean model
        ...                                 # weights sit in (attackable) DRAM
        summary = protector.scan_and_recover(model)   # at run time
        if summary.attack_detected:
            ...  # log / alert; accuracy has already been restored
    """

    def __init__(self, config: Optional[RadarConfig] = None) -> None:
        self.config = config or RadarConfig()
        self._store: Optional[SignatureStore] = None
        self._detector: Optional[RadarDetector] = None
        self._golden_weights: Optional[Dict[str, np.ndarray]] = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def is_protected(self) -> bool:
        return self._store is not None

    @property
    def store(self) -> SignatureStore:
        self._require_protected()
        return self._store

    @property
    def golden_weights(self) -> Optional[Dict[str, np.ndarray]]:
        """The clean int8 snapshot ``RELOAD`` restores from, if one was kept."""
        return self._golden_weights

    def protect(self, model: Module, keep_golden_weights: bool = False) -> SignatureStore:
        """Compute and store golden signatures from the clean model.

        ``keep_golden_weights=True`` additionally snapshots the clean int8
        weights so the ``RELOAD`` recovery policy can be used later (this is
        *not* part of the paper's scheme; it models re-fetching a clean copy).
        """
        store = SignatureStore(self.config).build(model)
        self._store = store
        self._detector = RadarDetector(store)
        if keep_golden_weights:
            self._golden_weights = {
                name: layer.qweight.copy() for name, layer in quantized_layers(model)
            }
        else:
            self._golden_weights = None
        return store

    def resign(
        self,
        model: Module,
        groups: Optional[Mapping[str, np.ndarray]] = None,
        layer_map: Optional[Mapping[str, Module]] = None,
    ) -> int:
        """Accept the model's current weights as golden, in place.

        Rewrites the goldens of the listed groups (``{layer: group
        indices}``; every group when ``None``) with the stored keys and
        layouts (:meth:`SignatureStore.resign`), so the store and its fused
        view stay the same objects.  A kept golden-weights snapshot is taken
        again from the current weights, as :meth:`protect` takes it.
        ``layer_map`` is the caller's cached ``{name: layer}`` map of
        ``model``.  Returns the number of groups rewritten.
        """
        self._require_protected()
        if layer_map is None:
            layer_map = dict(quantized_layers(model))
        resigned = self._store.resign(layer_map, groups)
        if self._golden_weights is not None:
            self._golden_weights = {
                name: layer.qweight.copy() for name, layer in layer_map.items()
            }
        return resigned

    # -- run time ----------------------------------------------------------------
    def scan(self, model: Module) -> DetectionReport:
        """Detection only."""
        self._require_protected()
        return self._detector.scan(model)

    def scan_fused(self, model: Module) -> DetectionReport:
        """Detection only, on the vectorized fast path (same result as :meth:`scan`)."""
        self._require_protected()
        return self._detector.scan_fused(model)

    def scheduler(
        self,
        num_shards: int = 8,
        policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
        shards_per_pass: int = 1,
        budget_s: Optional[float] = None,
        cost_model: Optional[ScanCostModel] = None,
    ) -> ScanScheduler:
        """An amortized :class:`~repro.core.scheduler.ScanScheduler` over this store.

        Each returned scheduler has independent rotation state; a fresh one
        starts a fresh rotation.  ``budget_s`` caps the priced cost of each
        pass under ``cost_model`` (defaulting to the fixed price of this
        protector's config); to *derive* the shard count from a
        budget instead, use :meth:`scheduler_for_budget`.
        """
        self._require_protected()
        return ScanScheduler(
            self._store,
            num_shards=num_shards,
            policy=policy,
            shards_per_pass=shards_per_pass,
            budget_s=budget_s,
            cost_model=cost_model,
        )

    def scheduler_for_budget(
        self,
        budget_s: float,
        cost_model: Optional[ScanCostModel] = None,
        policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
    ) -> ScanScheduler:
        """A scheduler whose shards are sized so every pass fits ``budget_s``.

        The structural knobs disappear: the shard count falls out of the
        budget and the cost model (see
        :meth:`~repro.core.scheduler.ScanScheduler.from_budget`).
        """
        self._require_protected()
        return ScanScheduler.from_budget(
            self._store, budget_s, cost_model=cost_model, policy=policy
        )

    def recover(
        self,
        model: Module,
        report: DetectionReport,
        policy: RecoveryPolicy = RecoveryPolicy.ZERO,
        layer_map: Optional[Mapping[str, Module]] = None,
    ) -> RecoveryReport:
        """Recovery only (given an existing detection report).

        ``layer_map`` is the caller's cached ``{name: layer}`` map of
        ``model``, which spares the module-tree walk (see
        :func:`~repro.core.recovery.recover_model`).
        """
        self._require_protected()
        return recover_model(
            model,
            report,
            self._store,
            policy=policy,
            golden_weights=self._golden_weights,
            layer_map=layer_map,
        )

    def scan_and_recover(
        self, model: Module, policy: RecoveryPolicy = RecoveryPolicy.ZERO
    ) -> ProtectionSummary:
        """Detect then recover in one call (the run-time fast path).

        Detection runs on the scan kernel (:meth:`scan_fused`), whose
        verdicts are bit-identical to the per-layer oracle's (:meth:`scan`).
        """
        report = self.scan_fused(model)
        recovery = self.recover(model, report, policy=policy)
        return ProtectionSummary(detection=report, recovery=recovery)

    # -- accounting ----------------------------------------------------------------
    def storage_overhead_kb(self, include_keys: bool = False) -> float:
        """Secure-storage footprint of the golden signatures in kilobytes."""
        self._require_protected()
        return self._store.storage_kilobytes(include_keys=include_keys)

    def _require_protected(self) -> None:
        if self._store is None or self._detector is None:
            raise ProtectionError("Model is not protected yet; call protect(model) first")
