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
  seconds-per-group of a single-setup ``scan`` (the first run starts from
  the analytic prior; each run folds its observed passes back in);
* **runtime state** (``runtime_state.json``) — per named
  :class:`~repro.core.runtime.ProtectedInference`: measured calibration
  and check cadence (``infer-demo``);
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

Every file goes through one version-checked reader and one atomic writer
(temp file + ``os.replace``, so a crash mid-save leaves the previous state
intact), and every restored price through one pricing-fingerprint check.
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
    fingerprint and every restore refuses a price across a mismatch (see
    :func:`_pricing_compatible`) — the same staleness guard the scheduler
    snapshot applies to its shard count.
    """
    return {
        "group_size": int(radar_config.group_size),
        "signature_bits": int(radar_config.signature_bits),
        "use_interleave": bool(radar_config.use_interleave),
    }


def _pricing_compatible(saved: Dict[str, object], radar_config: Optional[RadarConfig]) -> bool:
    """Whether ``saved``'s price may be restored under ``radar_config``
    (an entry without a fingerprint, or a restore without a config, is)."""
    fingerprint = saved.get("config")
    return (
        fingerprint is None
        or radar_config is None
        or fingerprint == pricing_fingerprint(radar_config)
    )


def _check_version(payload: Dict[str, object], kind: str) -> Dict[str, object]:
    if int(payload.get("version", -1)) != STATE_VERSION:
        raise ProtectionError(
            f"{kind} state has version {payload.get('version')!r}, "
            f"expected {STATE_VERSION}"
        )
    return payload


def cost_model_state(cost_model: object) -> Dict[str, object]:
    """Serializable pricing state of any cost model.

    Only the measured model carries true mutable state (its EWMA); any
    other model is a pure function of configuration and is recorded by type
    and price for the report's benefit only.
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
            "config": pricing_fingerprint(managed.protector.config),
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
    prices back, it just cannot reuse shard-indexed counters, and a model
    whose grouping changed keeps its fresh pricing.  Returns
    ``{"restored": [names], "skipped": [names], "partial": [notes]}``.
    """
    _check_version(payload, "engine")
    report: Dict[str, List[str]] = {"restored": [], "skipped": [], "partial": []}
    saved_models: Dict[str, Dict] = dict(payload.get("models", {}))
    for name, saved in saved_models.items():
        if name not in engine:
            report["skipped"].append(name)
            continue
        managed = engine.get(name)
        # -- calibrated pricing -------------------------------------------------
        cost_state = saved.get("cost_model") or {}
        if not _pricing_compatible(saved, managed.protector.config):
            report["partial"].append(
                f"{name}: pricing fingerprint changed ({saved['config']} -> "
                f"{pricing_fingerprint(managed.protector.config)}); "
                "calibrated pricing not restored"
            )
        elif cost_state.get("type") == "measured":
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

    One directory holds at most one engine snapshot, one calibration table,
    one runtime table and one telemetry snapshot; the files are
    human-readable JSON so operators can inspect what a service learned.
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

    # -- the one reader and the named-entry tables ------------------------------
    @staticmethod
    def _read(path: Path, kind: str) -> Optional[Dict[str, object]]:
        """The version-checked payload at ``path``, or ``None`` if absent."""
        if not path.exists():
            return None
        return _check_version(json.loads(path.read_text(encoding="utf-8")), kind)

    def _entries(self, path: Path, kind: str) -> Dict[str, Dict]:
        payload = self._read(path, kind)
        return dict(payload.get("entries", {})) if payload is not None else {}

    def _save_entry(
        self,
        path: Path,
        kind: str,
        name: str,
        entry: Dict[str, object],
        radar_config: Optional[RadarConfig],
    ) -> Path:
        """Read-modify-write one named entry, stamped with ``radar_config``'s
        pricing fingerprint so a restore under another grouping refuses it."""
        if radar_config is not None:
            entry["config"] = pricing_fingerprint(radar_config)
        entries = self._entries(path, kind)
        entries[name] = entry
        _atomic_write_json(
            path, {"version": STATE_VERSION, "kind": kind, "entries": entries}
        )
        return path

    # -- engine snapshots --------------------------------------------------------
    def save_engine(self, engine: VerificationEngine) -> Path:
        """Snapshot the engine's learned state (atomic)."""
        _atomic_write_json(self.engine_path, engine_state_dict(engine))
        return self.engine_path

    def restore_engine(
        self, engine: VerificationEngine
    ) -> Optional[Dict[str, List[str]]]:
        """Warm-start ``engine`` from the persisted snapshot, if any.

        Returns the restore report (see :func:`restore_engine_state`) or
        ``None`` when the directory holds no engine state yet — the
        cold-start case callers should announce differently.
        """
        payload = self._read(self.engine_path, "engine")
        if payload is None:
            return None
        return restore_engine_state(engine, payload)

    # -- per-setup calibration ----------------------------------------------------
    def save_calibration(
        self,
        name: str,
        cost_model: object,
        radar_config: Optional[RadarConfig] = None,
    ) -> Path:
        """Persist one named calibration entry (read-modify-write, atomic)."""
        return self._save_entry(
            self.calibration_path,
            "calibration",
            name,
            cost_model_state(cost_model),
            radar_config,
        )

    def load_calibration(self, name: str) -> Optional[Dict[str, object]]:
        return self._entries(self.calibration_path, "calibration").get(name)

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
        if (
            saved is not None
            and saved.get("type") == "measured"
            and _pricing_compatible(saved, radar_config)
        ):
            model.load_state_dict(saved)
        return model

    # -- protected-inference runtimes ---------------------------------------------
    def save_runtime(
        self,
        name: str,
        runtime: object,
        radar_config: Optional[RadarConfig] = None,
    ) -> Path:
        """Persist one :class:`~repro.core.runtime.ProtectedInference` snapshot
        as a named entry, the same way :meth:`save_calibration` does."""
        return self._save_entry(
            self.runtime_path, "runtime", name, dict(runtime.state_dict()), radar_config
        )

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
        saved = self._entries(self.runtime_path, "runtime").get(name)
        if saved is None or not _pricing_compatible(saved, radar_config):
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
            {"version": STATE_VERSION, "kind": "telemetry", **telemetry.state_dict()},
        )
        return self.telemetry_path

    def restore_telemetry(self, telemetry: object) -> bool:
        """Merge the persisted metric windows into ``telemetry``, if any.

        Returns ``True`` when a snapshot was merged (counters add,
        histogram windows prepend — see
        :meth:`~repro.telemetry.metrics.MetricRegistry.load_state_dict`),
        ``False`` on a cold start with no telemetry file.
        """
        payload = self._read(self.telemetry_path, "telemetry")
        if payload is None:
            return False
        telemetry.load_state_dict(payload)
        return True
