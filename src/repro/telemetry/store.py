"""Durable state store: calibrated pricing and fleet state across restarts.

A long-running :class:`~repro.core.fleet.VerificationEngine` *learns*: its
:class:`~repro.core.cost.MeasuredScanCostModel` EWMAs converge on the real
host's per-group price, its
:class:`~repro.core.planner.PriorityExposurePlanner` accumulates per-shard
flip rates, and its schedulers carry exposure backlog that drives fleet
budget allocation.  All of that used to die with the process — a restarted
engine re-calibrated from the analytic prior and re-learned attack
locality from scratch.  The :class:`StateStore` persists exactly that
mutable, *learned* state as JSON under a ``--state-dir``:

* **engine state** (``engine_state.json``) — per managed model: lifecycle
  state, measured cost-model calibration, planner cursor + flip rates and
  scheduler rotation counters, plus the engine tick index;
* **per-setup calibration** (``calibration.json``) — the measured
  seconds-per-group of single-model CLI commands (``protect`` seeds it
  with the analytic prior, ``scan`` folds observed passes back in);
* **telemetry metrics** (``telemetry.json``) — the fleet monitor's metric
  registry, including each :class:`~repro.telemetry.metrics.RingHistogram`'s
  ordered sample window, so ``sla-report`` percentiles keep their recent
  distribution across restarts instead of restarting from an empty ring.

What is deliberately *not* persisted: golden signatures, weight planes and
shard partitions.  Those derive from the model weights and the
:class:`~repro.core.config.RadarConfig`, are rebuilt by ``register`` /
``protect`` in milliseconds, and persisting them would turn the state file
into an integrity-critical artifact (a tampered signature file would blind
the detector).  The state file only ever changes *performance* (pricing,
scan order), never *correctness* — restoring a stale or foreign file can
waste budget, not hide an attack.

Writes are atomic (temp file + ``os.replace``) so a crash mid-save leaves
the previous state intact.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.config import RadarConfig
from repro.core.cost import MeasuredScanCostModel
from repro.core.fleet import ProtectionState, VerificationEngine
from repro.errors import ProtectionError

#: Schema version of every persisted payload; bump on incompatible change.
STATE_VERSION = 1

ENGINE_STATE_FILENAME = "engine_state.json"
CALIBRATION_FILENAME = "calibration.json"
RUNTIME_STATE_FILENAME = "runtime_state.json"
TELEMETRY_FILENAME = "telemetry.json"


def pricing_fingerprint(radar_config: RadarConfig) -> Dict[str, object]:
    """The :class:`RadarConfig` fields a per-group price depends on.

    A measured EWMA calibrated under one grouping is meaningless under
    another (the per-group price scales with ``group_size`` and the gather
    stride changes with interleaving), so calibration entries record this
    fingerprint and :meth:`StateStore.measured_cost_model` refuses to
    restore across a mismatch — the same staleness guard the scheduler
    snapshot applies to its shard count.
    """
    return {
        "group_size": int(radar_config.group_size),
        "signature_bits": int(radar_config.signature_bits),
        "use_interleave": bool(radar_config.use_interleave),
    }


def cost_model_state(cost_model: object) -> Dict[str, object]:
    """Serializable pricing state of any cost model.

    Only the measured model carries true mutable state (its EWMA); the
    analytic and cache-aware models are pure functions of configuration and
    are recorded by type and price for the report's benefit only.
    """
    if isinstance(cost_model, MeasuredScanCostModel):
        return {"type": "measured", **cost_model.state_dict()}
    state: Dict[str, object] = {"type": type(cost_model).__name__}
    price = getattr(cost_model, "seconds_per_group", None)
    if price is not None:
        state["seconds_per_group"] = float(price)
    return state


def engine_state_dict(engine: VerificationEngine) -> Dict[str, object]:
    """Everything a restarted engine needs to resume *warm*.

    Complement of ``register``: registration rebuilds structure (store,
    plane, shards) from the live model; this captures the learned rest.
    """
    models: Dict[str, Dict[str, object]] = {}
    for name in engine.names():
        managed = engine.get(name)
        planner = managed.scheduler.planner
        models[name] = {
            "state": managed.state.value,
            "cost_model": cost_model_state(managed.cost_model),
            "planner": {
                "type": type(planner).__name__,
                "state": planner.state_dict(),
            },
            "scheduler": managed.scheduler.state_dict(),
        }
    return {
        "version": STATE_VERSION,
        "kind": "engine",
        "tick_index": engine.tick_index,
        "models": models,
    }


def restore_engine_state(
    engine: VerificationEngine, payload: Dict[str, object]
) -> Dict[str, List[str]]:
    """Restore a :func:`engine_state_dict` payload into a live engine.

    Every model named in the payload that is currently registered gets its
    calibration, planner state, scheduler counters and lifecycle state
    back.  Mismatches are tolerated per concern and reported rather than
    fatal — a fleet whose shard count changed still wants its calibrated
    prices back, it just cannot reuse shard-indexed counters.  Returns
    ``{"restored": [names], "skipped": [names], "partial": [notes]}``.
    """
    if int(payload.get("version", -1)) != STATE_VERSION:
        raise ProtectionError(
            f"engine state has version {payload.get('version')!r}, "
            f"expected {STATE_VERSION}"
        )
    report: Dict[str, List[str]] = {"restored": [], "skipped": [], "partial": []}
    saved_models: Dict[str, Dict] = dict(payload.get("models", {}))
    for name, saved in saved_models.items():
        if name not in engine:
            report["skipped"].append(name)
            continue
        managed = engine.get(name)
        # -- calibrated pricing -------------------------------------------------
        cost_state = saved.get("cost_model") or {}
        if cost_state.get("type") == "measured":
            if isinstance(managed.cost_model, MeasuredScanCostModel):
                managed.cost_model.load_state_dict(cost_state)
            else:
                restored = MeasuredScanCostModel(
                    float(cost_state["seconds_per_group"]),
                    alpha=float(cost_state.get("alpha", 0.2)),
                )
                restored.load_state_dict(cost_state)
                # The scheduler holds the same object the registry does;
                # swap both so pricing and observation stay one model.
                managed.cost_model = restored
                managed.scheduler.cost_model = restored
        # -- planner cursor and learned flip rates -------------------------------
        planner = managed.scheduler.planner
        planner_state = saved.get("planner") or {}
        if planner_state.get("type") == type(planner).__name__:
            planner.load_state_dict(planner_state.get("state", {}))
        else:
            report["partial"].append(
                f"{name}: planner type changed "
                f"({planner_state.get('type')} -> {type(planner).__name__}); "
                "planner state not restored"
            )
        # -- scheduler rotation counters -----------------------------------------
        scheduler_state = saved.get("scheduler")
        if scheduler_state is not None:
            try:
                managed.scheduler.load_state_dict(scheduler_state)
            except ProtectionError as error:
                report["partial"].append(f"{name}: {error}")
        # -- lifecycle state ------------------------------------------------------
        state = saved.get("state")
        if state is not None:
            managed.state = ProtectionState(state)
        report["restored"].append(name)
    engine._tick_index = int(payload.get("tick_index", engine.tick_index))
    return report


def _atomic_write_json(path: Path, payload: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            json.dump(payload, tmp, indent=1, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class StateStore:
    """JSON state directory backing ``--state-dir`` on the CLI.

    One directory holds at most one engine snapshot plus one calibration
    table; the files are human-readable JSON so operators can inspect what
    a service learned.
    """

    def __init__(self, state_dir: Union[str, os.PathLike]) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    @property
    def engine_path(self) -> Path:
        return self.state_dir / ENGINE_STATE_FILENAME

    @property
    def calibration_path(self) -> Path:
        return self.state_dir / CALIBRATION_FILENAME

    @property
    def runtime_path(self) -> Path:
        return self.state_dir / RUNTIME_STATE_FILENAME

    @property
    def telemetry_path(self) -> Path:
        return self.state_dir / TELEMETRY_FILENAME

    # -- engine snapshots --------------------------------------------------------
    def save_engine(self, engine: VerificationEngine) -> Path:
        """Snapshot the engine's learned state (atomic)."""
        _atomic_write_json(self.engine_path, engine_state_dict(engine))
        return self.engine_path

    def load_engine(self) -> Optional[Dict[str, object]]:
        """The persisted engine payload, or ``None`` when none exists."""
        if not self.engine_path.exists():
            return None
        return json.loads(self.engine_path.read_text(encoding="utf-8"))

    def restore_engine(
        self, engine: VerificationEngine
    ) -> Optional[Dict[str, List[str]]]:
        """Warm-start ``engine`` from the persisted snapshot, if any.

        Returns the restore report (see :func:`restore_engine_state`) or
        ``None`` when the directory holds no engine state yet — the
        cold-start case callers should announce differently.
        """
        payload = self.load_engine()
        if payload is None:
            return None
        return restore_engine_state(engine, payload)

    # -- per-setup calibration ----------------------------------------------------
    def _load_calibrations(self) -> Dict[str, Dict]:
        if not self.calibration_path.exists():
            return {}
        payload = json.loads(self.calibration_path.read_text(encoding="utf-8"))
        if int(payload.get("version", -1)) != STATE_VERSION:
            raise ProtectionError(
                f"calibration state has version {payload.get('version')!r}, "
                f"expected {STATE_VERSION}"
            )
        return dict(payload.get("entries", {}))

    def save_calibration(
        self,
        name: str,
        cost_model: object,
        radar_config: Optional[RadarConfig] = None,
    ) -> Path:
        """Persist one named calibration entry (read-modify-write, atomic).

        ``radar_config`` stamps the entry with its pricing fingerprint so a
        later :meth:`measured_cost_model` can refuse to restore it under a
        different grouping.
        """
        entries = self._load_calibrations()
        entry = cost_model_state(cost_model)
        if radar_config is not None:
            entry["config"] = pricing_fingerprint(radar_config)
        entries[name] = entry
        _atomic_write_json(
            self.calibration_path,
            {"version": STATE_VERSION, "kind": "calibration", "entries": entries},
        )
        return self.calibration_path

    def load_calibration(self, name: str) -> Optional[Dict[str, object]]:
        return self._load_calibrations().get(name)

    # -- protected-inference runtimes ---------------------------------------------
    def _load_runtimes(self) -> Dict[str, Dict]:
        if not self.runtime_path.exists():
            return {}
        payload = json.loads(self.runtime_path.read_text(encoding="utf-8"))
        if int(payload.get("version", -1)) != STATE_VERSION:
            raise ProtectionError(
                f"runtime state has version {payload.get('version')!r}, "
                f"expected {STATE_VERSION}"
            )
        return dict(payload.get("entries", {}))

    def save_runtime(
        self,
        name: str,
        runtime: object,
        radar_config: Optional[RadarConfig] = None,
    ) -> Path:
        """Persist one :class:`~repro.core.runtime.ProtectedInference` snapshot.

        Same shape as :meth:`save_calibration` — a named entry in a
        read-modify-write JSON table, fingerprint-stamped so a later
        :meth:`restore_runtime` under a different grouping refuses it.
        """
        entries = self._load_runtimes()
        entry: Dict[str, object] = dict(runtime.state_dict())
        if radar_config is not None:
            entry["config"] = pricing_fingerprint(radar_config)
        entries[name] = entry
        _atomic_write_json(
            self.runtime_path,
            {"version": STATE_VERSION, "kind": "runtime", "entries": entries},
        )
        return self.runtime_path

    def restore_runtime(
        self,
        name: str,
        runtime: object,
        radar_config: Optional[RadarConfig] = None,
    ) -> bool:
        """Warm-start ``runtime`` from the persisted entry, if compatible.

        Returns ``True`` when a snapshot was applied; ``False`` for a cold
        start (no entry, or a pricing-fingerprint mismatch — calibration
        learned under another grouping would misprice this runtime's
        cadence until the EWMA reconverged).
        """
        saved = self._load_runtimes().get(name)
        if saved is None:
            return False
        fingerprint = saved.get("config")
        if (
            fingerprint is not None
            and radar_config is not None
            and fingerprint != pricing_fingerprint(radar_config)
        ):
            return False
        runtime.load_state_dict(saved)
        return True

    # -- telemetry metrics ---------------------------------------------------------
    def save_telemetry(self, telemetry: object) -> Path:
        """Snapshot a :class:`~repro.telemetry.monitor.FleetTelemetry` (atomic).

        Persists the metric registry's raw state — counters, gauges and
        each histogram's ordered sample window — so SLA percentiles keep
        their recent distribution across a restart instead of restarting
        from an empty ring.
        """
        _atomic_write_json(
            self.telemetry_path,
            {
                "version": STATE_VERSION,
                "kind": "telemetry",
                **telemetry.state_dict(),
            },
        )
        return self.telemetry_path

    def restore_telemetry(self, telemetry: object) -> bool:
        """Merge the persisted metric windows into ``telemetry``, if any.

        Returns ``True`` when a snapshot was merged (counters add,
        histogram windows prepend — see
        :meth:`~repro.telemetry.metrics.MetricRegistry.load_state_dict`),
        ``False`` on a cold start with no telemetry file.
        """
        if not self.telemetry_path.exists():
            return False
        payload = json.loads(self.telemetry_path.read_text(encoding="utf-8"))
        if int(payload.get("version", -1)) != STATE_VERSION:
            raise ProtectionError(
                f"telemetry state has version {payload.get('version')!r}, "
                f"expected {STATE_VERSION}"
            )
        telemetry.load_state_dict(payload)
        return True

    def measured_cost_model(
        self, name: str, radar_config: RadarConfig, alpha: float = 0.2
    ) -> MeasuredScanCostModel:
        """A measured cost model for ``name``, warm if calibration exists.

        Cold path: the usual analytic-prior seeding.  Warm path: the
        persisted EWMA is restored verbatim, so the first budgeted pass is
        priced from what previous runs *measured* on this host.  An entry
        whose recorded pricing fingerprint differs from ``radar_config``
        (e.g. the operator changed ``--group-size``) is treated as absent —
        a per-group price calibrated under another grouping would misprice
        every budget until the EWMA reconverged.
        """
        model = MeasuredScanCostModel.from_radar_config(radar_config, alpha=alpha)
        saved = self.load_calibration(name)
        if saved is not None and saved.get("type") == "measured":
            fingerprint = saved.get("config")
            if fingerprint is None or fingerprint == pricing_fingerprint(radar_config):
                model.load_state_dict(saved)
        return model
