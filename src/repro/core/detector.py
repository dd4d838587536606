"""Run-time detection: compare recomputed signatures with the golden ones."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.attacks.profiles import AttackProfile
from repro.core.signature import SignatureStore
from repro.errors import ProtectionError
from repro.nn.module import Module


@dataclass
class DetectionReport:
    """Result of one detection scan over all protected layers."""

    flagged_groups: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_flagged_groups(self) -> int:
        return int(sum(groups.size for groups in self.flagged_groups.values()))

    @property
    def attack_detected(self) -> bool:
        return self.num_flagged_groups > 0

    def flagged_layers(self) -> List[str]:
        return [name for name, groups in self.flagged_groups.items() if groups.size]

    def is_flagged(self, layer_name: str, group_index: int) -> bool:
        groups = self.flagged_groups.get(layer_name)
        if groups is None:
            return False
        return bool(np.isin(group_index, groups))

    def merge(self, other: "DetectionReport") -> "DetectionReport":
        """New report holding the union of both reports' flagged groups.

        Lets callers accumulate the amortized scheduler's per-pass reports
        themselves (the scheduler's ``rotation_report`` does the equivalent
        accumulation internally on global rows).
        """
        merged = DetectionReport()
        for name in {**self.flagged_groups, **other.flagged_groups}:
            mine = self.flagged_groups.get(name, np.empty(0, dtype=np.int64))
            theirs = other.flagged_groups.get(name, np.empty(0, dtype=np.int64))
            merged.flagged_groups[name] = np.union1d(mine, theirs).astype(np.int64)
        return merged

    def summary(self) -> Dict[str, int]:
        return {
            "flagged_groups": self.num_flagged_groups,
            "flagged_layers": len(self.flagged_layers()),
        }


class RadarDetector:
    """Compares run-time signatures against a :class:`SignatureStore`."""

    def __init__(self, store: SignatureStore) -> None:
        if len(store) == 0:
            raise ProtectionError("Signature store is empty; call store.build(model) first")
        self.store = store

    def scan(self, model: Module) -> DetectionReport:
        """Recompute signatures on the model's current weights and diff them."""
        current = self.store.current_signatures(model)
        report = DetectionReport()
        for entry in self.store:
            mismatches = np.nonzero(current[entry.layer_name] != entry.golden)[0]
            report.flagged_groups[entry.layer_name] = mismatches.astype(np.int64)
        return report

    def scan_fused(self, model: Module) -> DetectionReport:
        """:meth:`scan` on the store's vectorized fast path (same result).

        One batched gather/sum/binarize pass over all layers via
        :class:`~repro.core.signature.FusedSignatures` instead of a
        per-layer Python loop that re-gathers each weight tensor.
        """
        fused = self.store.fused()
        return report_from_fused_rows(fused, fused.mismatched_rows(model))

    def scan_layer(self, model: Module, layer_name: str) -> np.ndarray:
        """Flagged group indices for a single layer, from a full oracle :meth:`scan`."""
        report = self.scan(model)
        return report.flagged_groups.get(layer_name, np.empty(0, dtype=np.int64))


def report_from_fused_rows(fused, flagged_rows: np.ndarray) -> DetectionReport:
    """Wrap flagged global rows of a fused view into a :class:`DetectionReport`.

    Every protected layer gets an entry (empty when clean), matching the
    shape :meth:`RadarDetector.scan` produces.
    """
    return DetectionReport(flagged_groups=fused.rows_to_layer_groups(flagged_rows))


def count_detected_flips(
    profile: AttackProfile, report: DetectionReport, store: SignatureStore
) -> int:
    """How many of a profile's flips landed in a flagged group.

    This is the paper's detection metric (Fig. 4): a bit flip counts as
    detected when the group containing its weight is flagged, because the
    recovery step will then neutralize it.
    """
    detected = 0
    for flip in profile:
        if flip.layer_name not in store:
            continue
        group_index = store.layer(flip.layer_name).layout.group_of(flip.flat_index)
        if report.is_flagged(flip.layer_name, group_index):
            detected += 1
    return detected


def detection_ratio(
    profiles: Iterable[AttackProfile],
    reports: Iterable[DetectionReport],
    store: SignatureStore,
) -> float:
    """Average fraction of flips detected over paired (profile, report) runs."""
    total_flips = 0
    total_detected = 0
    for profile, report in zip(profiles, reports):
        total_flips += len(profile)
        total_detected += count_detected_flips(profile, report, store)
    if total_flips == 0:
        return 0.0
    return total_detected / total_flips
