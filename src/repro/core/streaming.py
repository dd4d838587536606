"""Streaming verification of weights fetched from DRAM.

The paper embeds the signature check in the inference weight-streaming loop:
every chunk of weights fetched from DRAM is checked (and, if flagged,
neutralized) *before* the compute engine consumes it, so a run-time attack
never influences an output.  :class:`ProtectedInference` does that per layer
on the model it wraps: a helper thread verifies each layer ahead of the
forward, and each layer's first weight read waits for its own verdict.  This
module serves users who drive the :class:`~repro.memsim.dram.DramModule`
directly — it consumes raw int8 weight streams (one layer at a time, exactly
what a DMA engine would deliver) without ever needing the ``Module`` object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.checksum import compute_signatures
from repro.core.detector import DetectionReport
from repro.core.recovery import RecoveryPolicy
from repro.core.signature import SignatureStore
from repro.errors import ProtectionError

if TYPE_CHECKING:  # imported lazily at run time to avoid a core <-> memsim import cycle
    from repro.core.cost import ScanCostModel
    from repro.memsim.dram import DramModule


@dataclass
class StreamEvent:
    """What happened while verifying one layer's weight stream."""

    layer_name: str
    flagged_groups: np.ndarray
    zeroed_weights: int = 0

    @property
    def attack_detected(self) -> bool:
        return self.flagged_groups.size > 0


@dataclass
class StreamReport:
    """Aggregate of a (possibly partial) pass over the weight stream."""

    events: Dict[str, StreamEvent] = field(default_factory=dict)
    #: Groups this report actually verified (a budgeted slice may cover few).
    groups_checked: int = 0
    #: Whether the verifier's rotation over all layers completed with this
    #: report (always true for the unbudgeted full-stream methods).
    rotation_complete: bool = True

    @property
    def attack_detected(self) -> bool:
        return any(event.attack_detected for event in self.events.values())

    @property
    def flagged_groups(self) -> int:
        return int(sum(event.flagged_groups.size for event in self.events.values()))

    @property
    def zeroed_weights(self) -> int:
        return int(sum(event.zeroed_weights for event in self.events.values()))

    def as_detection_report(self) -> DetectionReport:
        """The equivalent :class:`DetectionReport` (for the recovery helpers)."""
        return DetectionReport(
            flagged_groups={name: event.flagged_groups for name, event in self.events.items()}
        )


class StreamingVerifier:
    """Checks int8 weight streams against a golden :class:`SignatureStore`.

    Unlike :class:`~repro.core.detector.RadarDetector` it does not touch the
    model object at all: it consumes the flat int8 payloads an inference
    engine would fetch layer by layer, which is exactly the paper's deployment
    model (verification on the DRAM-to-cache stream).
    """

    def __init__(
        self, store: SignatureStore, cost_model: Optional["ScanCostModel"] = None
    ) -> None:
        if len(store) == 0:
            raise ProtectionError("Signature store is empty; call store.build(model) first")
        self.store = store
        #: Prices budgeted slices (:meth:`verify_dram_budgeted`); defaults
        #: lazily to the analytic model.  Models with an ``observe`` hook
        #: (e.g. :class:`~repro.core.cost.MeasuredScanCostModel`) are fed
        #: every budgeted pass's measured wall-clock, so stream-level budgets
        #: self-calibrate the same way the scheduler's do.
        self.cost_model = cost_model
        # Budgeted-verification cursor: (layer position, group offset) of the
        # next unverified group in the current rotation.
        self._cursor = (0, 0)

    # -- single layer -----------------------------------------------------------
    def verify_layer(
        self,
        layer_name: str,
        qweight_flat: np.ndarray,
        groups: Optional[np.ndarray] = None,
    ) -> StreamEvent:
        """Verify one layer's streamed weights and report its flagged groups.

        ``groups`` restricts the check to the listed group indices — the
        stream-level counterpart of one :class:`~repro.core.scheduler.ScanScheduler`
        shard slice; ``None`` verifies every group of the layer.

        Verification is the paper's per-layer check
        (:func:`~repro.core.checksum.compute_signatures`), which also
        validates the stream's dtype, shape and ``groups``.
        """
        entry = self.store.layer(layer_name)
        bits = self.store.config.signature_bits
        if groups is None:
            current = compute_signatures(qweight_flat, entry.layout, entry.key, bits)
            flagged = np.nonzero(current != entry.golden)[0].astype(np.int64)
        else:
            groups = np.atleast_1d(np.asarray(groups, dtype=np.int64))
            current = compute_signatures(
                qweight_flat, entry.layout, entry.key, bits, groups=groups
            )
            flagged = np.unique(groups[current != entry.golden[groups]])
        return StreamEvent(layer_name=layer_name, flagged_groups=flagged)

    def repair_layer(
        self,
        layer_name: str,
        qweight_flat: np.ndarray,
        event: Optional[StreamEvent] = None,
        policy: RecoveryPolicy = RecoveryPolicy.ZERO,
    ) -> Tuple[np.ndarray, StreamEvent]:
        """Return a repaired copy of the stream (flagged groups zeroed).

        ``policy`` accepts ZERO (the paper's scheme) or NONE (detect only);
        RELOAD needs a golden weight copy, which a stream verifier does not
        hold — use :func:`repro.core.recovery.recover_model` for that.
        """
        if policy is RecoveryPolicy.RELOAD:
            raise ProtectionError("StreamingVerifier cannot RELOAD; it holds no golden weights")
        if event is None:
            event = self.verify_layer(layer_name, qweight_flat)
        repaired = np.asarray(qweight_flat).copy()
        if policy is RecoveryPolicy.ZERO and event.flagged_groups.size:
            entry = self.store.layer(layer_name)
            members = entry.layout.member_indices(event.flagged_groups)
            repaired[members] = 0
            event.zeroed_weights = int(members.size)
        return repaired, event

    # -- whole stream -----------------------------------------------------------
    def iter_dram(self, dram: "DramModule") -> Iterator[Tuple[str, np.ndarray]]:
        """Iterate the protected layers' weight streams out of a DRAM image."""
        for layer_name in self.store.layer_names():
            if layer_name not in dram.address_map.ranges:
                raise ProtectionError(f"Layer {layer_name!r} is not present in the DRAM image")
            yield layer_name, dram.read_layer(layer_name)

    def verify_dram(self, dram: "DramModule") -> StreamReport:
        """Verify every protected layer directly from the DRAM image."""
        report = StreamReport()
        for layer_name, stream in self.iter_dram(dram):
            report.events[layer_name] = self.verify_layer(layer_name, stream)
        report.groups_checked = self.store.total_groups()
        return report

    def verify_dram_budgeted(
        self,
        dram: "DramModule",
        budget_s: float,
        cost_model: Optional["ScanCostModel"] = None,
    ) -> StreamReport:
        """Verify the next budget's worth of groups out of the DRAM image.

        The stream-level counterpart of a budgeted
        :meth:`~repro.core.scheduler.ScanScheduler.step`: each call checks as
        many consecutive groups (layer by layer, resuming from an internal
        cursor) as ``cost_model`` prices within ``budget_s``, and reports
        ``rotation_complete=True`` on the call that finishes the last layer.
        ``cost_model`` overrides the verifier's own (constructor) model for
        this call; with neither given, the analytic model priced from the
        store's config is instantiated and kept.  A budget too small for a
        single group verifies nothing — the report then simply has no events
        and the cursor does not move.
        """
        from repro.core.cost import AnalyticScanCostModel

        if not budget_s > 0:
            raise ProtectionError(f"budget_s must be positive, got {budget_s}")
        if cost_model is None:
            if self.cost_model is None:
                self.cost_model = AnalyticScanCostModel.from_radar_config(
                    self.store.config
                )
            cost_model = self.cost_model
        started = time.perf_counter()
        model = cost_model
        remaining = model.groups_within(budget_s)
        report = StreamReport(rotation_complete=False)
        layer_names = self.store.layer_names()
        position, offset = self._cursor
        while remaining > 0:
            layer_name = layer_names[position]
            entry = self.store.layer(layer_name)
            take = min(remaining, entry.num_groups - offset)
            groups = np.arange(offset, offset + take, dtype=np.int64)
            if layer_name not in dram.address_map.ranges:
                raise ProtectionError(f"Layer {layer_name!r} is not present in the DRAM image")
            event = self.verify_layer(layer_name, dram.read_layer(layer_name), groups=groups)
            report.events[layer_name] = event
            report.groups_checked += take
            remaining -= take
            offset += take
            if offset >= entry.num_groups:
                position += 1
                offset = 0
                if position >= len(layer_names):
                    report.rotation_complete = True
                    position = 0
                    break
        self._cursor = (position, offset)
        if report.groups_checked:
            observe = getattr(model, "observe", None)
            if observe is not None:
                observe(report.groups_checked, time.perf_counter() - started)
        return report

    def verify_and_repair_dram(
        self, dram: "DramModule", policy: RecoveryPolicy = RecoveryPolicy.ZERO
    ) -> Tuple[Dict[str, np.ndarray], StreamReport]:
        """Verify the DRAM image and return repaired per-layer weight streams.

        The DRAM image itself is left untouched (the physical memory stays
        corrupted, as in the paper); the repaired streams are what the compute
        engine should consume.
        """
        report = StreamReport()
        repaired: Dict[str, np.ndarray] = {}
        for layer_name, stream in self.iter_dram(dram):
            repaired_stream, event = self.repair_layer(layer_name, stream, policy=policy)
            repaired[layer_name] = repaired_stream
            report.events[layer_name] = event
        report.groups_checked = self.store.total_groups()
        return repaired, report
