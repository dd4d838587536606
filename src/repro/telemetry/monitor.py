"""Fleet telemetry: engine events and tick outcomes → SLA metrics.

The :class:`~repro.core.fleet.VerificationEngine` already *publishes* its
lifecycle (detection / recovery / reprotect / budget_exhausted events on
the :class:`~repro.core.fleet.EventBus`) but nothing *measured* it — the
repo could say a flip was caught, not how fast at what percentile.
:class:`FleetTelemetry` closes that gap.  It taps two engine surfaces:

* the **event bus** (subscription) for lifecycle timing — detection
  latency from corruption injection to the FLAGGED transition, recovery
  wall-clock, the re-sign stage's own wall-clock, and the
  detection→reprotect span;
* the **tick hook** (``engine.telemetry``) for per-tick economics that
  never travel over the bus — scan-budget utilisation (measured wall-clock
  against the allocated share) and bucketed-stacking efficiency (own rows
  against the padded batch width) — and for where the tick's time went:
  ``tick_duration_s`` and one ``stage_duration_s{stage=...}`` histogram
  per stage of :data:`~repro.core.fleet.TICK_STAGES`, fed from the
  engine's own per-stage ``perf_counter`` deltas.

Detection latency needs one piece of ground truth only the attacker
knows: *when* corruption entered the model.  Callers injecting faults
(the campaign driver, tests, a rowhammer harness) report it via
:meth:`FleetTelemetry.note_injection`; the monitor matches the next
DETECTION event for that model against every pending injection — sound
because a detection under ``auto_reprotect`` sweeps and re-signs the whole
model, so all corruption present at detection time is caught by it.

Everything lands in a bounded :class:`~repro.telemetry.metrics.MetricRegistry`
(ring-buffer histograms, no unbounded growth); :meth:`sla_report` rolls the
registry into the per-model p50/p95/p99 rows the ``repro-radar sla-report``
CLI and ``results/campaign_sla.json`` print.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.fleet import (
    TICK_STAGES,
    EngineTickOutcome,
    FleetEvent,
    FleetEventType,
    VerificationEngine,
)
from repro.errors import ProtectionError
from repro.telemetry.metrics import Counter, Gauge, MetricRegistry, RingHistogram

#: ``perf_counter`` timestamp plus engine tick index of one injection.
_Injection = Tuple[float, int]


class _FleetSeries:
    """The fleet-wide per-tick series, resolved from the registry once."""

    __slots__ = ("ticks", "tick_duration", "stages")

    def __init__(self, registry: MetricRegistry) -> None:
        self.ticks: Counter = registry.counter("ticks_total")
        self.tick_duration = registry.histogram("tick_duration_s")
        self.stages: Tuple[Tuple[str, RingHistogram], ...] = tuple(
            (stage, registry.histogram("stage_duration_s", stage=stage))
            for stage in TICK_STAGES
        )


class _TickSeries:
    """One model's per-tick series, each resolved from the registry once.

    A registry lookup builds and sorts the series' label key; at one
    lookup per series per model per tick that was a visible share of a
    fleet tick.  Series other than ``groups_checked_total`` are created on
    their first observation, exactly as direct lookups would, so the
    exposition lists the same series either way.
    """

    __slots__ = ("registry", "model", "groups_checked", "_histograms", "_price")

    def __init__(self, registry: MetricRegistry, model: str) -> None:
        self.registry = registry
        self.model = model
        self.groups_checked = registry.counter("groups_checked_total", model=model)
        self._histograms: Dict[str, RingHistogram] = {}
        self._price: Optional[Gauge] = None

    def get(self, name: str) -> RingHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = self.registry.histogram(
                name, model=self.model
            )
        return histogram

    def price(self) -> Gauge:
        if self._price is None:
            self._price = self.registry.gauge("seconds_per_group", model=self.model)
        return self._price


class FleetTelemetry:
    """Per-model SLA metrics for one :class:`VerificationEngine`.

    Typical use::

        engine = VerificationEngine(...)
        telemetry = FleetTelemetry().attach(engine)
        ...
        telemetry.note_injection("lane-a")      # attacker-side ground truth
        engine.tick()                           # detection happens in here
        rows = telemetry.sla_report()           # p50/p95/p99 per model

    One monitor observes one engine at a time; ``attach`` to a second
    engine requires ``detach`` first (the metrics keep accumulating across
    attachments, which is what a restart-spanning report wants).
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self._engine: Optional[VerificationEngine] = None
        self._unsubscribe: Optional[Callable[[], None]] = None
        #: Injections not yet matched to a DETECTION event, per model.
        self._pending: Dict[str, List[_Injection]] = {}
        #: ``perf_counter`` stamp of the last unresolved detection, per
        #: model — the start of the detection→reprotect span.
        self._detection_started: Dict[str, float] = {}
        #: Each model's per-tick series, resolved once (observe_tick).
        self._series: Dict[str, _TickSeries] = {}
        #: The fleet-wide per-tick series, resolved on the first tick.
        self._fleet: Optional[_FleetSeries] = None

    # -- wiring -----------------------------------------------------------------
    @property
    def engine(self) -> Optional[VerificationEngine]:
        return self._engine

    def attach(self, engine: VerificationEngine) -> "FleetTelemetry":
        """Subscribe to ``engine``'s bus and register as its tick observer."""
        if self._engine is not None:
            raise ProtectionError(
                "FleetTelemetry is already attached to an engine; detach() first"
            )
        if engine.telemetry is not None:
            raise ProtectionError(
                "engine already has an attached telemetry observer; "
                "detach it before attaching another"
            )
        self._engine = engine
        self._unsubscribe = engine.bus.subscribe(self._on_event)
        engine.telemetry = self
        return self

    def detach(self) -> None:
        """Stop observing (idempotent; accumulated metrics are retained)."""
        if self._engine is None:
            return
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._engine.telemetry is self:
            self._engine.telemetry = None
        self._engine = None

    # -- attacker-side ground truth ---------------------------------------------
    def note_injection(self, model: str, flips: int = 1) -> None:
        """Record that corruption entered ``model`` *now*.

        Called by whoever injects faults, immediately after the injection
        and before the next tick.  The detection-latency clock starts here:
        wall-clock via ``perf_counter``, scan progress via the engine's
        tick index (an injection noted after tick *N* that is flagged
        during tick *N + k* has a latency of *k* ticks).
        """
        engine = self._require_engine()
        if model not in engine:
            raise ProtectionError(f"Model {model!r} is not registered")
        self.registry.counter("injections_total", model=model).inc()
        self.registry.counter("injected_flips_total", model=model).inc(flips)
        self._pending.setdefault(model, []).append(
            (time.perf_counter(), engine.tick_index)
        )

    def pending_injections(self, model: str) -> int:
        """Injections noted for ``model`` that no detection has matched yet."""
        return len(self._pending.get(model, []))

    # -- engine-facing hooks -----------------------------------------------------
    def _on_event(self, event: FleetEvent) -> None:
        now = time.perf_counter()
        self.registry.counter(
            "fleet_events_total", model=event.model, event=event.type.value
        ).inc()
        if event.type is FleetEventType.DETECTION:
            self._detection_started[event.model] = now
            for injected_at, injected_tick in self._pending.pop(event.model, []):
                self.registry.histogram(
                    "detection_latency_s", model=event.model
                ).observe(now - injected_at)
                self.registry.histogram(
                    "detection_latency_ticks", model=event.model
                ).observe(float(event.tick - injected_tick))
        elif event.type is FleetEventType.RECOVERY:
            elapsed = event.detail.get("elapsed_s")
            if elapsed is not None:
                self.registry.histogram("recovery_s", model=event.model).observe(
                    float(elapsed)
                )
        elif event.type is FleetEventType.REPROTECT:
            elapsed = event.detail.get("elapsed_s")
            if elapsed is not None:
                self.registry.histogram("resign_s", model=event.model).observe(
                    float(elapsed)
                )
            started = self._detection_started.pop(event.model, None)
            if started is not None:
                self.registry.histogram("reprotect_s", model=event.model).observe(
                    now - started
                )

    def observe_tick(
        self, tick: int, outcomes: Dict[str, EngineTickOutcome]
    ) -> None:
        """Per-tick economics and stage timings (called by the engine at
        the end of ``tick``)."""
        fleet = self._fleet
        if fleet is None:
            fleet = self._fleet = _FleetSeries(self.registry)
        fleet.ticks.inc()
        engine = self._engine
        # The engine stamps both before it calls this hook.
        fleet.tick_duration.observe(engine.last_tick_duration_s)
        stage_s = engine.last_stage_durations_s
        for stage, histogram in fleet.stages:
            histogram.observe(stage_s[stage])
        for name, outcome in outcomes.items():
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = _TickSeries(self.registry, name)
            series.groups_checked.inc(outcome.scan.groups_checked)
            if outcome.batch_width > 0:
                series.get("batch_size").observe(float(outcome.batch_size))
                series.get("stacking_fill").observe(
                    outcome.scan.groups_checked / outcome.batch_width
                )
            if (
                outcome.budget_s is not None
                and outcome.budget_s > 0
                and outcome.measured_s is not None
            ):
                series.get("budget_utilization").observe(
                    outcome.measured_s / outcome.budget_s
                )
            series.price().set(engine.get(name).cost_model.seconds_per_group)

    # -- reporting ---------------------------------------------------------------
    def models(self) -> List[str]:
        """Models with any recorded activity (attached engine's first)."""
        names = list(self._engine.names()) if self._engine is not None else []
        for name in self.registry.label_values("fleet_events_total", "model"):
            if name not in names:
                names.append(name)
        for name in self.registry.label_values("injections_total", "model"):
            if name not in names:
                names.append(name)
        return names

    def sla_report(self) -> List[Dict]:
        """One row per model: detection-latency percentiles and tick economics.

        Latency percentiles are ``nan`` for models that never had a matched
        detection — a finite p99 is exactly the signal the campaign CI gate
        checks for attacked models.
        """
        rows: List[Dict] = []
        for name in self.models():
            row: Dict = {
                "model": name,
                "injections": self.registry.counter(
                    "injections_total", model=name
                ).value,
                "detections": self.registry.counter(
                    "fleet_events_total", model=name, event="detection"
                ).value,
                "pending": self.pending_injections(name),
            }
            ticks = self.registry.histogram("detection_latency_ticks", model=name)
            seconds = self.registry.histogram("detection_latency_s", model=name)
            for label, value in ticks.percentiles().items():
                row[f"{label}_detection_ticks"] = value
            row["mean_detection_ticks"] = ticks.summary()["mean"]
            for label, value in seconds.percentiles().items():
                row[f"{label}_detection_ms"] = value * 1e3
            row["mean_recovery_ms"] = (
                self.registry.histogram("recovery_s", model=name).summary()["mean"]
                * 1e3
            )
            row["mean_resign_ms"] = (
                self.registry.histogram("resign_s", model=name).summary()["mean"]
                * 1e3
            )
            row["mean_reprotect_ms"] = (
                self.registry.histogram("reprotect_s", model=name).summary()["mean"]
                * 1e3
            )
            row["mean_budget_utilization"] = self.registry.histogram(
                "budget_utilization", model=name
            ).summary()["mean"]
            row["mean_stacking_fill"] = self.registry.histogram(
                "stacking_fill", model=name
            ).summary()["mean"]
            rows.append(row)
        return rows

    def snapshot(self) -> Dict:
        """Registry snapshot plus the monitor's unmatched-injection state."""
        return {
            "metrics": self.registry.snapshot(),
            "pending_injections": {
                model: len(pending)
                for model, pending in self._pending.items()
                if pending
            },
        }

    # -- persistence ---------------------------------------------------------------
    def state_dict(self) -> Dict:
        """JSON-serializable metric state for restart-spanning SLA reports.

        Only the registry is persisted.  Pending injections are *not*:
        their clocks are ``perf_counter`` stamps that do not survive the
        process, and an injection the old process never detected will be
        swept by the restarted engine's first full rotation without the
        ground truth needed to time it honestly.
        """
        return {"metrics": self.registry.state_dict()}

    def load_state_dict(self, state: Mapping) -> None:
        """Merge persisted metrics into this monitor's registry.

        Delegates to :meth:`MetricRegistry.load_state_dict` — counters add,
        gauges keep live readings, histogram windows merge with the
        persisted samples ordered before the current ones — so
        :meth:`sla_report` percentiles span the restart instead of
        starting from an empty window.
        """
        self.registry.load_state_dict(state.get("metrics", {}))

    def _require_engine(self) -> VerificationEngine:
        if self._engine is None:
            raise ProtectionError(
                "FleetTelemetry is not attached to an engine; call attach(engine)"
            )
        return self._engine
