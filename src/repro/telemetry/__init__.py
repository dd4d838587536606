"""Telemetry, SLA, persistence and observability subsystem for the fleet engine.

Five modules, each usable alone:

* :mod:`repro.telemetry.metrics` — bounded metric primitives (counters,
  gauges, ring-buffer histograms with p50/p95/p99 nearest-rank estimation)
  behind a labelled :class:`~repro.telemetry.metrics.MetricRegistry`;
* :mod:`repro.telemetry.monitor` — :class:`~repro.telemetry.monitor.FleetTelemetry`,
  which subscribes to a :class:`~repro.core.fleet.VerificationEngine`'s
  event bus and tick outcomes and tracks, per model, detection latency
  (corruption injection → FLAGGED), recovery and reprotect time,
  scan-budget utilisation and bucketed-stacking efficiency, plus the
  fleet's ``tick_duration_s`` and per-stage ``stage_duration_s`` histograms
  (plan → assemble → kernel → verdict → lifecycle, timed once per tick by
  the engine);
* :mod:`repro.telemetry.exposition` — Prometheus text-format (0.0.4)
  rendering of a :class:`~repro.telemetry.metrics.MetricRegistry`, plus a
  strict parser used by tests and the CI scrape smoke;
* :mod:`repro.telemetry.httpd` — a stdlib ``http.server`` thread serving
  ``/metrics`` and ``/healthz``;
* :mod:`repro.telemetry.store` — :class:`~repro.telemetry.store.StateStore`,
  JSON persistence of everything a service *learns* (measured cost-model
  EWMAs, planner flip rates, scheduler rotation counters, lifecycle
  states) so a restart resumes warm instead of re-calibrating.

Exports resolve lazily (PEP 562): :mod:`repro.telemetry.monitor` and
:mod:`repro.telemetry.store` import :mod:`repro.core`, so an eager
``__init__`` would load the whole engine for a caller that wants only the
metric primitives.

The scenario-diverse attack-campaign driver feeding this subsystem lives
in :mod:`repro.experiments.campaign`; the CLI surface is
``repro-radar sla-report`` plus ``--state-dir``/``--http-port`` on the
protection subcommands.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "Counter": "repro.telemetry.metrics",
    "Gauge": "repro.telemetry.metrics",
    "MetricRegistry": "repro.telemetry.metrics",
    "RingHistogram": "repro.telemetry.metrics",
    "FleetTelemetry": "repro.telemetry.monitor",
    "PROMETHEUS_CONTENT_TYPE": "repro.telemetry.exposition",
    "parse_prometheus": "repro.telemetry.exposition",
    "render_prometheus": "repro.telemetry.exposition",
    "ObservabilityServer": "repro.telemetry.httpd",
    "StateStore": "repro.telemetry.store",
    "cost_model_state": "repro.telemetry.store",
    "engine_state_dict": "repro.telemetry.store",
    "restore_engine_state": "repro.telemetry.store",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - import-time types for tooling only
    from repro.telemetry.exposition import (
        PROMETHEUS_CONTENT_TYPE,
        parse_prometheus,
        render_prometheus,
    )
    from repro.telemetry.httpd import ObservabilityServer
    from repro.telemetry.metrics import Counter, Gauge, MetricRegistry, RingHistogram
    from repro.telemetry.monitor import FleetTelemetry
    from repro.telemetry.store import (
        StateStore,
        cost_model_state,
        engine_state_dict,
        restore_engine_state,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
