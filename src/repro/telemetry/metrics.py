"""Bounded-memory metric primitives for the fleet telemetry subsystem.

The monitoring layer (:mod:`repro.telemetry.monitor`) runs *inside* the
serving loop — it observes every engine tick and every lifecycle event —
so its bookkeeping must be O(1) per observation and strictly bounded in
memory no matter how long the service runs.  Three primitives cover what
the SLA report needs:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-value-wins instantaneous reading (e.g. the
  calibrated seconds-per-group price after each tick);
* :class:`RingHistogram` — a fixed-capacity ring buffer of float samples
  with nearest-rank percentile estimation (p50/p95/p99 by default).  Old
  samples are overwritten once the ring is full, so the histogram reports
  the *recent* distribution and never grows — the standard sliding-window
  compromise for latency SLOs.

A :class:`MetricRegistry` is the namespace tying them together: metrics
are addressed by ``(name, labels)`` (e.g. ``detection_latency_s`` labelled
``model="lane-a"``), created on first use, and snapshot into one
JSON-serializable dict for reports and persistence.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ProtectionError

#: The percentiles every histogram summary reports (the SLA percentiles).
DEFAULT_PERCENTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

#: Samples a histogram retains; at one detection per tick this window
#: covers far more history than any SLA report looks back over.
DEFAULT_HISTOGRAM_CAPACITY = 512

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, object]) -> LabelsKey:
    """Canonical hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Counter:
    """Monotonic event counter."""

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ProtectionError(f"Counter increments must be >= 0, got {amount}")
        self.value += int(amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter(value={self.value})"


class Gauge:
    """Last-value-wins instantaneous reading (NaN until first set)."""

    def __init__(self) -> None:
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge(value={self.value})"


class RingHistogram:
    """Fixed-capacity sample window with nearest-rank percentiles.

    ``observe`` is O(1): samples land in a preallocated ring buffer and
    overwrite the oldest once ``capacity`` is reached.  ``percentile``
    sorts the retained window on demand (reports are rare; observations
    are not).  The estimator is the classic *nearest-rank* definition —
    the smallest retained sample at or above rank ``ceil(q/100 * n)`` —
    which matches ``np.percentile(..., method="inverted_cdf")`` exactly
    and therefore returns a value that actually occurred, never an
    interpolation between two latencies.
    """

    def __init__(self, capacity: int = DEFAULT_HISTOGRAM_CAPACITY) -> None:
        if capacity < 1:
            raise ProtectionError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._samples = np.empty(self.capacity, dtype=np.float64)
        self._cursor = 0
        #: Total samples ever observed (>= the retained window size).
        self.count = 0
        #: Lifetime sum of every observed sample (not just the window) —
        #: the ``_sum`` a Prometheus summary exposes, so ``rate(sum)/
        #: rate(count)`` stays meaningful after the ring rotates.
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self._samples[self._cursor] = value
        self._cursor = (self._cursor + 1) % self.capacity
        self.count += 1
        self.total += value

    def __len__(self) -> int:
        """Samples currently retained in the window."""
        return min(self.count, self.capacity)

    def window(self) -> np.ndarray:
        """Copy of the retained samples (unordered)."""
        return self._samples[: len(self)].copy()

    def ordered_window(self) -> np.ndarray:
        """Copy of the retained samples, oldest observation first.

        Once the ring has wrapped, the oldest sample sits at the cursor
        (the next slot to be overwritten), so the chronological window is
        the ring unrolled at the cursor.
        """
        size = len(self)
        if self.count <= self.capacity:
            return self._samples[:size].copy()
        return np.concatenate(
            (self._samples[self._cursor :], self._samples[: self._cursor])
        )

    # -- persistence --------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot: total count plus the ordered window."""
        return {
            "capacity": int(self.capacity),
            "count": int(self.count),
            "total": float(self.total),
            "samples": [float(value) for value in self.ordered_window()],
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Merge a persisted window *before* the current one.

        Restart semantics for sliding-window SLOs: the persisted samples
        are chronologically older than anything observed since the process
        came back, so the merged window is ``persisted + current``,
        truncated to the most recent ``capacity`` samples.  The persisted
        capacity need not match — a snapshot from a differently sized
        histogram merges fine, it just cannot contribute more than this
        ring retains.  ``count`` keeps the lifetime total when the merged
        window is full; when it is not, the total is clamped to the window
        size so the ring invariant (``len == min(count, capacity)``)
        survives snapshots whose windows were themselves truncated.
        """
        persisted = [float(value) for value in state.get("samples", ())]
        total = int(state.get("count", len(persisted))) + self.count
        # Snapshots predating the lifetime-sum field fall back to the sum
        # of their retained window — the best available reconstruction.
        self.total += float(state.get("total", sum(persisted)))
        merged = persisted + list(self.ordered_window())
        retained = merged[-self.capacity :]
        self._samples[: len(retained)] = retained
        self._cursor = len(retained) % self.capacity
        self.count = total if len(retained) == self.capacity else len(retained)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained window (NaN when empty)."""
        if not 0 < q <= 100:
            raise ProtectionError(f"percentile must be in (0, 100], got {q}")
        size = len(self)
        if size == 0:
            return float("nan")
        ordered = np.sort(self._samples[:size])
        rank = max(int(np.ceil(q / 100.0 * size)), 1)
        return float(ordered[rank - 1])

    def percentiles(
        self, qs: Iterable[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` over the window."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def summary(self) -> Dict[str, float]:
        """Count, window extrema/mean and the default SLA percentiles."""
        size = len(self)
        window = self._samples[:size]
        stats: Dict[str, float] = {
            "count": float(self.count),
            "min": float(window.min()) if size else float("nan"),
            "max": float(window.max()) if size else float("nan"),
            "mean": float(window.mean()) if size else float("nan"),
        }
        stats.update(self.percentiles())
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RingHistogram(capacity={self.capacity}, count={self.count})"


class MetricRegistry:
    """Get-or-create namespace of labelled counters, gauges and histograms."""

    def __init__(self, histogram_capacity: int = DEFAULT_HISTOGRAM_CAPACITY) -> None:
        if histogram_capacity < 1:
            raise ProtectionError(
                f"histogram_capacity must be >= 1, got {histogram_capacity}"
            )
        self.histogram_capacity = int(histogram_capacity)
        self._counters: Dict[Tuple[str, LabelsKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelsKey], RingHistogram] = {}

    # Lookups run on the engine's per-tick hot path, so they construct the
    # metric only on a genuine miss (setdefault would allocate — for
    # histograms, a whole ring buffer — on every call).
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _labels_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _labels_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, **labels: object) -> RingHistogram:
        key = (name, _labels_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = RingHistogram(self.histogram_capacity)
        return metric

    def find_histogram(self, name: str, **labels: object) -> Optional[RingHistogram]:
        """The histogram if it has been created (no creation side effect)."""
        return self._histograms.get((name, _labels_key(labels)))

    # Deterministic iteration for the Prometheus exposition layer: one
    # (name, labels-dict, metric) triple per series, sorted by key.
    def iter_counters(self) -> List[Tuple[str, Dict[str, str], Counter]]:
        return [
            (name, dict(labels), metric)
            for (name, labels), metric in sorted(self._counters.items())
        ]

    def iter_gauges(self) -> List[Tuple[str, Dict[str, str], Gauge]]:
        return [
            (name, dict(labels), metric)
            for (name, labels), metric in sorted(self._gauges.items())
        ]

    def iter_histograms(self) -> List[Tuple[str, Dict[str, str], RingHistogram]]:
        return [
            (name, dict(labels), metric)
            for (name, labels), metric in sorted(self._histograms.items())
        ]

    def label_values(self, name: str, label: str) -> List[str]:
        """Distinct values one label takes across all metrics named ``name``.

        How reports enumerate models without keeping a separate index:
        ``registry.label_values("fleet_events_total", "model")``.
        """
        values: List[str] = []
        for metrics in (self._counters, self._gauges, self._histograms):
            for metric_name, labels in metrics:
                if metric_name != name:
                    continue
                for key, value in labels:
                    if key == label and value not in values:
                        values.append(value)
        return values

    def snapshot(self) -> Dict[str, List[Dict]]:
        """One JSON-serializable dict of everything the registry holds."""

        def rows(metrics: Dict, value_of) -> List[Dict]:
            return [
                {"name": name, "labels": dict(labels), **value_of(metric)}
                for (name, labels), metric in sorted(metrics.items())
            ]

        return {
            "counters": rows(self._counters, lambda m: {"value": m.value}),
            "gauges": rows(self._gauges, lambda m: {"value": m.value}),
            "histograms": rows(self._histograms, lambda m: m.summary()),
        }

    # -- persistence --------------------------------------------------------------
    def state_dict(self) -> Dict[str, List[Dict]]:
        """Like :meth:`snapshot`, but histograms keep their raw windows.

        A summary cannot be merged (percentiles of percentiles are
        meaningless); the persisted form carries each histogram's ordered
        sample window so a restore can rebuild the true recent
        distribution.
        """

        def rows(metrics: Dict, value_of) -> List[Dict]:
            return [
                {"name": name, "labels": dict(labels), **value_of(metric)}
                for (name, labels), metric in sorted(metrics.items())
            ]

        return {
            "counters": rows(self._counters, lambda m: {"value": m.value}),
            "gauges": rows(self._gauges, lambda m: {"value": m.value}),
            "histograms": rows(self._histograms, lambda m: m.state_dict()),
        }

    def load_state_dict(self, state: Mapping[str, Iterable[Mapping]]) -> None:
        """Merge a persisted :meth:`state_dict` into the live registry.

        Merge semantics per primitive, chosen so restoring *after* the
        service has already observed a few events is still correct:

        * counters **add** (both runs' events happened);
        * gauges keep the **current** reading unless none exists yet (a
          live instantaneous value beats a pre-restart one; persisted NaN
          — a gauge that was never set — is skipped entirely);
        * histograms **window-merge** (persisted samples precede current
          ones, :meth:`RingHistogram.load_state_dict`).
        """
        for row in state.get("counters", ()):
            self.counter(row["name"], **row.get("labels", {})).inc(
                int(row.get("value", 0))
            )
        for row in state.get("gauges", ()):
            value = float(row.get("value", float("nan")))
            if value != value:  # persisted gauge was never set
                continue
            gauge = self.gauge(row["name"], **row.get("labels", {}))
            if gauge.value != gauge.value:  # only fill a still-unset gauge
                gauge.set(value)
        for row in state.get("histograms", ()):
            self.histogram(row["name"], **row.get("labels", {})).load_state_dict(row)
