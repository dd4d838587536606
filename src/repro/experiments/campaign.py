"""Attack-campaign driver: adversaries vs a live engine-managed fleet.

Not a paper artifact — this is the operational study behind the telemetry
subsystem (:mod:`repro.telemetry`).  The paper's claim is run-time
*detection and recovery*; every prior harness in this repo measured either
accuracy (Tables I–III) or throughput (scan scheduler / fleet / kernel
studies).  This driver measures the claim itself as an SLA, in two forms:

* **Scenarios** (:func:`run_campaign`) — the PR-5 committed campaign:
  scripted adversaries (:mod:`repro.attacks.scripted` — random flips,
  PBFA, knowledgeable evasions; burst and trickle cadences) against a
  fleet with the full detect → recover → reprotect lifecycle, reported as
  per-model detection-latency percentiles.
* **The configuration matrix** (:func:`run_matrix`) — the adaptive-threat
  study: every cell is one *adversary × cadence × defense* combination,
  where adversaries now include the schedule-aware attackers of
  :mod:`repro.attacks.adaptive` (rotation tracking, budget-starvation
  timing, the oracle upper bound) and defenses pit the fixed round-robin
  rotation against the randomized :class:`~repro.core.planner.JitteredPlanner`
  (plain, telemetry-tuned, and the matched-bound dense variant).  Each
  cell reports its detection-latency percentiles **and** its scheduler's
  declared worst-case bound, so the margin the attacker extracts is
  explicit: the rotation tracker saturates a fixed rotation's bound on
  every salvo (``p99 == bound``), while under jitter no realizable
  attacker saturates the (doubled) bound — only the seeded oracle
  approaches it.

:func:`smoke_matrix` is the deterministic CI subset
(``benchmarks/test_bench_campaign_matrix.py`` regenerates
``results/campaign_matrix.json`` from it after asserting per-cell
finiteness, the bound, and the exploit/defense margins, and
``scripts/check_perf_regression.py`` requires a fresh run to equal it);
:func:`full_matrix` is the offline sweep behind
``repro-radar sla-report --matrix --full``.  Committed artifacts pass
through :func:`deterministic_rows`, which drops wall-clock fields so
reruns with unchanged code are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.adaptive import (
    AdaptiveAdversary,
    BudgetAwareAttacker,
    OracleAttacker,
    RotationTracker,
)
from repro.attacks.scripted import (
    AttackCadence,
    LowBitAdversary,
    PairedFlipAdversary,
    PbfaAdversary,
    RandomFlipAdversary,
    ScriptedAdversary,
)
from repro.core.config import RadarConfig
from repro.core.fleet import VerificationEngine
from repro.core.recovery import RecoveryPolicy
from repro.core.scheduler import ScanPolicy
from repro.data.synthetic import make_tiny_dataset
from repro.errors import ConfigurationError
from repro.models.small import MLP
from repro.quant.layers import quantize_model
from repro.telemetry.monitor import FleetTelemetry

#: Adversary kinds :func:`build_adversary` understands.  The first four are
#: the scripted (schedule-blind) kinds; the last three are the adaptive
#: (schedule-aware) kinds of :mod:`repro.attacks.adaptive`.
ADVERSARY_KINDS = ("random", "pbfa", "paired", "low-bit", "rotation", "budget", "oracle")

#: Kinds whose adversaries observe the scan schedule (need bind + feeds).
ADAPTIVE_KINDS = ("rotation", "budget", "oracle")


def _cadence_label(cadence: AttackCadence) -> str:
    if cadence.salvos == 1:
        return f"burst@{cadence.start_tick}"
    return f"trickle@{cadence.start_tick}+{cadence.interval}x{cadence.salvos}"


@dataclass(frozen=True)
class CampaignScenario:
    """One scripted engagement: an adversary kind, a cadence, a defense.

    ``signature_bits`` is per scenario because the knowledgeable low-bit
    attacker is exactly the case where the paper prescribes 3-bit
    signatures (Section VIII) — the campaign should measure the defense
    the paper would actually deploy against each threat.
    """

    name: str
    kind: str
    cadence: AttackCadence
    num_flips: int = 4
    group_size: int = 16
    signature_bits: int = 2
    victim: str = "model-0"

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ConfigurationError(
                f"unknown adversary kind {self.kind!r}; expected one of "
                f"{ADVERSARY_KINDS}"
            )
        if self.num_flips < 1:
            raise ConfigurationError(f"num_flips must be >= 1, got {self.num_flips}")

    @property
    def cadence_label(self) -> str:
        return _cadence_label(self.cadence)


@dataclass(frozen=True)
class DefenseConfig:
    """One defender configuration of a matrix cell.

    ``budget_ms`` enables the engine's fleet-wide latency budget (the
    surface :class:`~repro.attacks.adaptive.BudgetAwareAttacker` exploits);
    ``tuned`` drives :meth:`~repro.core.planner.JitteredPlanner.tune` from
    :meth:`~repro.telemetry.monitor.FleetTelemetry.tune_jitter` feedback
    every few ticks.
    """

    name: str
    policy: ScanPolicy = ScanPolicy.ROUND_ROBIN
    num_shards: int = 4
    shards_per_pass: int = 1
    budget_ms: Optional[float] = None
    jitter_seed: int = 7
    tuned: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("DefenseConfig.name must be non-empty")
        if self.tuned and ScanPolicy(self.policy) is not ScanPolicy.JITTERED:
            raise ConfigurationError(
                "tuned defenses require the jittered policy — there is no "
                f"jitter to tune under {ScanPolicy(self.policy).value!r}"
            )


def default_defenses() -> Tuple[DefenseConfig, ...]:
    """The matrix's defender axis.

    ``fixed-rr`` is the PR-2 baseline the adaptive attacker exploits;
    ``jittered`` / ``jittered-tuned`` randomize the same four-shard
    rotation (worst-case bound doubles, predictability vanishes);
    ``jittered-dense`` halves the shard count so the jittered bound
    *matches* the fixed baseline's — the equal-bound deployment, paying
    double the per-pass scan cost to hold the bound against an adaptive
    attacker.
    """
    return (
        DefenseConfig(name="fixed-rr", policy=ScanPolicy.ROUND_ROBIN),
        DefenseConfig(name="jittered", policy=ScanPolicy.JITTERED),
        DefenseConfig(name="jittered-tuned", policy=ScanPolicy.JITTERED, tuned=True),
        DefenseConfig(name="jittered-dense", policy=ScanPolicy.JITTERED, num_shards=2),
    )


@dataclass(frozen=True)
class MatrixCell:
    """One cell of the campaign matrix: adversary × cadence × defense."""

    adversary: str
    cadence: AttackCadence
    defense: DefenseConfig
    num_flips: int = 2
    group_size: int = 16
    signature_bits: int = 2
    victim: str = "model-0"

    def __post_init__(self) -> None:
        if self.adversary not in ADVERSARY_KINDS:
            raise ConfigurationError(
                f"unknown adversary kind {self.adversary!r}; expected one of "
                f"{ADVERSARY_KINDS}"
            )
        if self.num_flips < 1:
            raise ConfigurationError(f"num_flips must be >= 1, got {self.num_flips}")

    @property
    def cadence_label(self) -> str:
        return _cadence_label(self.cadence)

    @property
    def case_id(self) -> str:
        """Stable cell key: ``adversary|cadence|defense``."""
        return f"{self.adversary}|{self.cadence_label}|{self.defense.name}"


#: Cadence shared by the smoke cells: four well-separated salvos, starting
#: late enough that a schedule-aware adversary has observed a few passes.
_SMOKE_TRICKLE = AttackCadence.trickle(start_tick=3, interval=6, salvos=4)
_SMOKE_BURST = AttackCadence.burst(4)


def smoke_matrix() -> Tuple[MatrixCell, ...]:
    """The deterministic CI subset of the matrix (fixed cell set).

    Chosen so the committed artifact pins the full adaptive story: the
    rotation tracker saturating the fixed rotation's bound while a blind
    random attacker sits at about half of it; the jittered defenses
    keeping every cell's p99 strictly inside their declared bound; the
    oracle calibrating how close a total-knowledge attacker can get; and
    the budget attacker measured under a budgeted engine.
    """
    fixed, jittered, tuned, dense = default_defenses()
    budgeted_fixed = replace(fixed, name="budgeted-rr", budget_ms=0.02)
    budgeted_jittered = replace(jittered, name="budgeted-jittered", budget_ms=0.02)
    return (
        MatrixCell(adversary="random", cadence=_SMOKE_TRICKLE, defense=fixed),
        MatrixCell(adversary="random", cadence=_SMOKE_TRICKLE, defense=jittered),
        MatrixCell(adversary="rotation", cadence=_SMOKE_TRICKLE, defense=fixed),
        MatrixCell(adversary="rotation", cadence=_SMOKE_TRICKLE, defense=jittered),
        MatrixCell(adversary="rotation", cadence=_SMOKE_TRICKLE, defense=tuned),
        MatrixCell(adversary="rotation", cadence=_SMOKE_TRICKLE, defense=dense),
        MatrixCell(adversary="rotation", cadence=_SMOKE_BURST, defense=fixed),
        MatrixCell(adversary="rotation", cadence=_SMOKE_BURST, defense=jittered),
        MatrixCell(adversary="oracle", cadence=_SMOKE_TRICKLE, defense=fixed),
        MatrixCell(adversary="oracle", cadence=_SMOKE_TRICKLE, defense=jittered),
        MatrixCell(adversary="budget", cadence=_SMOKE_TRICKLE, defense=budgeted_fixed),
        MatrixCell(
            adversary="budget", cadence=_SMOKE_TRICKLE, defense=budgeted_jittered
        ),
    )


def full_matrix() -> Tuple[MatrixCell, ...]:
    """The exhaustive offline sweep: every kind × cadence × defense.

    The budgeted defenses ride along so the budget attacker has its
    starvation surface in every cadence; blind kinds run against them too
    (starvation hurts everyone's latency, not just its exploiter).
    """
    fixed, jittered, tuned, dense = default_defenses()
    defenses = (
        fixed,
        jittered,
        tuned,
        dense,
        replace(fixed, name="budgeted-rr", budget_ms=0.02),
        replace(jittered, name="budgeted-jittered", budget_ms=0.02),
    )
    cadences = (_SMOKE_BURST, _SMOKE_TRICKLE)
    cells = []
    for kind in ADVERSARY_KINDS:
        for cadence in cadences:
            for defense in defenses:
                cells.append(
                    MatrixCell(
                        adversary=kind,
                        cadence=cadence,
                        defense=defense,
                        signature_bits=3 if kind == "low-bit" else 2,
                        num_flips=3 if kind == "low-bit" else 2,
                    )
                )
    return tuple(cells)


def default_scenarios() -> Tuple[CampaignScenario, ...]:
    """The committed campaign: every adversary kind, burst *and* trickle."""
    return (
        CampaignScenario(
            name="random-burst", kind="random", cadence=AttackCadence.burst(2),
            num_flips=6,
        ),
        CampaignScenario(
            name="random-trickle", kind="random",
            cadence=AttackCadence.trickle(start_tick=1, interval=3, salvos=3),
            num_flips=2,
        ),
        CampaignScenario(
            name="pbfa-burst", kind="pbfa", cadence=AttackCadence.burst(2),
            num_flips=3,
        ),
        CampaignScenario(
            name="paired-knowledgeable", kind="paired",
            cadence=AttackCadence.burst(1), num_flips=2,
        ),
        CampaignScenario(
            name="lowbit-trickle", kind="low-bit",
            cadence=AttackCadence.trickle(start_tick=1, interval=2, salvos=2),
            num_flips=3, signature_bits=3,
        ),
    )


def build_adversary(
    scenario,
    images: np.ndarray,
    labels: np.ndarray,
    seed: int,
) -> ScriptedAdversary:
    """The adversary a scenario or matrix cell mounts (fresh per run).

    Accepts anything with ``kind``/``adversary``, ``cadence`` and
    ``num_flips`` attributes — both :class:`CampaignScenario` and
    :class:`MatrixCell`.  Adaptive kinds come back *unbound*; the runner
    binds them to the victim once the fleet exists.
    """
    kind = getattr(scenario, "kind", None) or scenario.adversary
    cadence = scenario.cadence
    num_flips = scenario.num_flips
    if kind == "random":
        return RandomFlipAdversary(cadence, num_flips=num_flips, seed=seed)
    if kind == "pbfa":
        return PbfaAdversary(cadence, images, labels, num_flips=num_flips, seed=seed)
    if kind == "paired":
        return PairedFlipAdversary(
            cadence,
            images,
            labels,
            num_flips=num_flips,
            assumed_group_size=scenario.group_size,
            seed=seed,
        )
    if kind == "rotation":
        return RotationTracker(cadence, num_flips=num_flips, seed=seed)
    if kind == "budget":
        return BudgetAwareAttacker(cadence, num_flips=num_flips, seed=seed)
    if kind == "oracle":
        return OracleAttacker(cadence, num_flips=num_flips, seed=seed)
    return LowBitAdversary(cadence, images, labels, num_flips=num_flips, seed=seed)


def _build_fleet(
    group_size: int,
    signature_bits: int,
    num_models: int,
    num_shards: int,
    budget_s: Optional[float],
    seed: int,
    input_dim: int,
    policy: ScanPolicy = ScanPolicy.ROUND_ROBIN,
    shards_per_pass: int = 1,
    jitter_seed: int = 7,
) -> VerificationEngine:
    """A fresh engine-managed fleet with the full lifecycle enabled."""
    from repro.core.planner import JitteredPlanner

    config = RadarConfig(group_size=group_size, signature_bits=signature_bits)
    engine = VerificationEngine(
        config,
        num_shards=num_shards,
        policy=policy,
        shards_per_pass=shards_per_pass,
        budget_s=budget_s,
        recovery_policy=RecoveryPolicy.RELOAD,
        auto_reprotect=True,
    )
    for index in range(num_models):
        model = MLP(
            input_dim=input_dim,
            num_classes=4,
            hidden_dims=(48, 24),
            seed=seed + index,
        )
        quantize_model(model)
        managed = engine.register(f"model-{index}", model, keep_golden_weights=True)
        if ScanPolicy(policy) is ScanPolicy.JITTERED:
            # One deterministic stream per model: same cell, same schedule.
            planner = managed.scheduler.planner
            if isinstance(planner, JitteredPlanner):
                planner.seed = int(jitter_seed) + index
    return engine


def _drive(
    engine: VerificationEngine,
    telemetry: FleetTelemetry,
    adversary: ScriptedAdversary,
    victim_name: str,
    passes: int,
    tune_every: Optional[int] = None,
) -> None:
    """The inject-then-tick loop, with adaptive-adversary observation feeds.

    Adaptive adversaries see exactly what the threat model grants them:
    per-tick scanned-shard indices of the victim (the side channel) and
    the engine's event stream; the planner's RNG seed never crosses over
    (the oracle gets it explicitly — that is its whole point).
    """
    victim = engine.get(victim_name)
    unsubscribe = None
    if isinstance(adversary, AdaptiveAdversary):
        adversary.bind(victim)
        unsubscribe = engine.bus.subscribe(adversary.observe_event)
    try:
        for tick in range(passes):
            profile = adversary.maybe_attack(victim.model, tick, victim.name)
            if profile is not None:
                telemetry.note_injection(victim.name, flips=len(profile))
            outcomes = engine.tick()
            if isinstance(adversary, AdaptiveAdversary) and victim.name in outcomes:
                adversary.observe_scan(
                    tick, outcomes[victim.name].scan.shard_indices
                )
            if tune_every and (tick + 1) % tune_every == 0:
                telemetry.tune_jitter()
    finally:
        if unsubscribe is not None:
            unsubscribe()


def _sla_rows(
    telemetry: FleetTelemetry,
    base_row: Dict,
    budgeted: bool,
    salvos: int,
) -> List[Dict]:
    """Roll the telemetry report into campaign rows (attacked models only)."""
    rows: List[Dict] = []
    for report in telemetry.sla_report():
        if report["injections"] == 0:
            continue  # bystander models carry no latency SLA
        row = dict(base_row)
        row["model"] = report["model"]
        row["salvos"] = salvos
        row["missed"] = report["pending"]
        row.update(
            {
                key: report[key]
                for key in report
                if key.endswith("_detection_ticks")
                or key.endswith("_detection_ms")
                or key in ("injections", "detections")
            }
        )
        row["mean_recovery_ms"] = report["mean_recovery_ms"]
        row["mean_reprotect_ms"] = report["mean_reprotect_ms"]
        row["mean_stacking_fill"] = report["mean_stacking_fill"]
        if budgeted:
            row["mean_budget_utilization"] = report["mean_budget_utilization"]
        rows.append(row)
    return rows


def run_scenario(
    scenario: CampaignScenario,
    images: np.ndarray,
    labels: np.ndarray,
    num_models: int = 3,
    num_shards: int = 4,
    budget_s: Optional[float] = None,
    extra_passes: int = 2,
    seed: int = 0,
) -> Tuple[List[Dict], FleetTelemetry]:
    """Run one scenario to completion and return its SLA rows.

    The serving window covers the cadence's last salvo plus the victim
    scheduler's worst-case detection lag (one rotation for cyclic
    planners, two for jittered ones) plus ``extra_passes`` of margin, so
    every injection has had the scan coverage needed to be caught — a
    missed injection in the output is a real detector miss, not a
    truncated window.
    """
    engine = _build_fleet(
        scenario.group_size,
        scenario.signature_bits,
        num_models,
        num_shards,
        budget_s,
        seed,
        images[0].size,
    )
    telemetry = FleetTelemetry().attach(engine)
    adversary = build_adversary(scenario, images, labels, seed=seed)
    victim = engine.get(scenario.victim)
    lag = victim.scheduler.worst_case_lag_passes
    passes = scenario.cadence.last_tick + 1 + lag + extra_passes
    passes += getattr(adversary, "max_fire_delay_ticks", 0)
    _drive(engine, telemetry, adversary, scenario.victim, passes)
    base_row = {
        "case": "",
        "scenario": scenario.name,
        "model": "",
        "kind": scenario.kind,
        "cadence": scenario.cadence_label,
        "signature_bits": scenario.signature_bits,
        "group_size": scenario.group_size,
        "num_models": num_models,
        "num_shards": num_shards,
        "passes": passes,
    }
    rows = _sla_rows(
        telemetry, base_row, budgeted=budget_s is not None, salvos=adversary.salvos_fired
    )
    for row in rows:
        row["case"] = f"{scenario.name}:{row['model']}"
    telemetry.detach()
    return rows, telemetry


def run_cell(
    cell: MatrixCell,
    images: np.ndarray,
    labels: np.ndarray,
    num_models: int = 2,
    extra_passes: int = 2,
    seed: int = 0,
) -> List[Dict]:
    """Run one matrix cell and return its rows (one per attacked model).

    Beyond the scenario rows, every cell row carries ``defense`` and
    ``p99_bound_ticks`` — the victim scheduler's declared
    ``worst_case_lag_passes`` — so the artifact states the bound each
    latency must stay within.  Budgeted cells report ``None``: engine
    budget starvation deliberately delays scans past the structural bound
    (that delay is the budget attacker's exploit), so only finiteness and
    zero misses are gated there.
    """
    defense = cell.defense
    budget_s = defense.budget_ms / 1e3 if defense.budget_ms is not None else None
    engine = _build_fleet(
        cell.group_size,
        cell.signature_bits,
        num_models,
        defense.num_shards,
        budget_s,
        seed,
        images[0].size,
        policy=defense.policy,
        shards_per_pass=defense.shards_per_pass,
        jitter_seed=defense.jitter_seed,
    )
    telemetry = FleetTelemetry().attach(engine)
    adversary = build_adversary(cell, images, labels, seed=seed)
    victim = engine.get(cell.victim)
    lag = victim.scheduler.worst_case_lag_passes
    passes = cell.cadence.last_tick + 1 + lag + extra_passes
    passes += getattr(adversary, "max_fire_delay_ticks", 0)
    if budget_s is not None:
        # Budget starvation can stretch detection past the structural lag;
        # give budgeted cells one extra rotation of window.
        passes += lag
    _drive(
        engine,
        telemetry,
        adversary,
        cell.victim,
        passes,
        tune_every=3 if defense.tuned else None,
    )
    base_row = {
        "case": cell.case_id,
        "scenario": cell.case_id,
        "model": "",
        "kind": cell.adversary,
        "adversary": cell.adversary,
        "defense": defense.name,
        "cadence": cell.cadence_label,
        "signature_bits": cell.signature_bits,
        "group_size": cell.group_size,
        "num_models": num_models,
        "num_shards": defense.num_shards,
        "policy": ScanPolicy(defense.policy).value,
        "budget_ms": defense.budget_ms,
        "passes": passes,
        "p99_bound_ticks": None if budget_s is not None else float(lag),
    }
    rows = _sla_rows(
        telemetry, base_row, budgeted=budget_s is not None, salvos=adversary.salvos_fired
    )
    telemetry.detach()
    return rows


def run_campaign(
    scenarios: Optional[Sequence[CampaignScenario]] = None,
    num_models: int = 3,
    num_shards: int = 4,
    budget_s: Optional[float] = None,
    extra_passes: int = 2,
    seed: int = 0,
) -> List[Dict]:
    """Rows of the campaign SLA study (→ ``results/campaign_sla.json``).

    Each scenario runs against its own freshly built fleet (scenarios must
    not contaminate each other's calibration or flip-rate memory); the
    attack batch for the gradient-driven adversaries is one shared
    deterministic synthetic dataset.
    """
    scenarios = tuple(scenarios) if scenarios is not None else default_scenarios()
    if not scenarios:
        raise ConfigurationError("run_campaign needs at least one scenario")
    train, _ = make_tiny_dataset(
        num_classes=4, image_size=8, train_size=96, test_size=32, seed=seed + 17
    )
    rows: List[Dict] = []
    for scenario in scenarios:
        scenario_rows, _ = run_scenario(
            scenario,
            train.images,
            train.labels,
            num_models=num_models,
            num_shards=num_shards,
            budget_s=budget_s,
            extra_passes=extra_passes,
            seed=seed,
        )
        rows.extend(scenario_rows)
    return rows


def run_matrix(
    cells: Optional[Sequence[MatrixCell]] = None,
    num_models: int = 2,
    extra_passes: int = 2,
    seed: int = 0,
) -> List[Dict]:
    """Rows of the campaign matrix (→ ``results/campaign_matrix.json``).

    ``cells`` defaults to the deterministic :func:`smoke_matrix`; pass
    :func:`full_matrix` for the offline sweep.  Every cell gets a fresh
    fleet and a fresh adversary — cells are independent experiments.
    """
    cells = tuple(cells) if cells is not None else smoke_matrix()
    if not cells:
        raise ConfigurationError("run_matrix needs at least one cell")
    seen = set()
    for cell in cells:
        if cell.case_id in seen:
            raise ConfigurationError(f"duplicate matrix cell {cell.case_id!r}")
        seen.add(cell.case_id)
    train, _ = make_tiny_dataset(
        num_classes=4, image_size=8, train_size=96, test_size=32, seed=seed + 17
    )
    rows: List[Dict] = []
    for cell in cells:
        rows.extend(
            run_cell(
                cell,
                train.images,
                train.labels,
                num_models=num_models,
                extra_passes=extra_passes,
                seed=seed,
            )
        )
    return rows


def matrix_summary(rows: Sequence[Dict]) -> List[Dict]:
    """Adaptive-gap digest of matrix rows, one row per (cadence, metric).

    Reports, per cadence that has the needed cells, the margins the
    acceptance criteria name: how far above the blind random attacker the
    rotation tracker lands on the fixed rotation (the exploit), and what
    fraction of each defense's declared worst-case bound the tracker
    saturates (the restoration — 1.0 means the attacker owns the bound).
    """
    by_key: Dict[Tuple[str, str, str], Dict] = {}
    for row in rows:
        adversary = row.get("adversary") or row.get("kind")
        defense = row.get("defense")
        if defense is None:
            continue
        by_key[(adversary, row["cadence"], defense)] = row

    def saturation(row: Optional[Dict]) -> Optional[float]:
        if not row:
            return None
        bound = row.get("p99_bound_ticks")
        if not bound:
            return None
        return row["p99_detection_ticks"] / bound

    summary: List[Dict] = []
    cadences = sorted({cadence for (_, cadence, _) in by_key})
    for cadence in cadences:
        random_fixed = by_key.get(("random", cadence, "fixed-rr"))
        tracker_fixed = by_key.get(("rotation", cadence, "fixed-rr"))
        tracker_jittered = by_key.get(("rotation", cadence, "jittered"))
        entry: Dict = {"cadence": cadence}
        if tracker_fixed and random_fixed:
            entry["exploit_mean_ratio"] = (
                tracker_fixed["mean_detection_ticks"]
                / max(random_fixed["mean_detection_ticks"], 1e-9)
            )
        for label, row in (
            ("fixed", tracker_fixed),
            ("jittered", tracker_jittered),
            ("jittered_tuned", by_key.get(("rotation", cadence, "jittered-tuned"))),
            ("jittered_dense", by_key.get(("rotation", cadence, "jittered-dense"))),
        ):
            value = saturation(row)
            if value is not None:
                entry[f"tracker_bound_saturation_{label}"] = value
        if len(entry) > 1:
            summary.append(entry)
    return summary


#: Row fields that measure wall-clock and therefore can never be
#: byte-identical across reruns; :func:`deterministic_rows` strips them
#: from committed artifacts.
_WALL_CLOCK_SUFFIXES = ("_ms", "_utilization")
_WALL_CLOCK_KEEP = ("budget_ms",)  # configuration, not measurement


def deterministic_rows(rows: Sequence[Dict]) -> List[Dict]:
    """Project campaign rows onto their machine-independent fields.

    Committed artifacts (``results/campaign_sla.json``,
    ``results/campaign_matrix.json``) must be byte-identical across reruns
    of unchanged code; tick-space latencies, counts and structural fields
    are deterministic under fixed seeds, wall-clock milliseconds are not.
    Floats are rounded to 9 decimals so formatting is fixed too.
    """
    projected: List[Dict] = []
    for row in rows:
        out: Dict = {}
        for key, value in row.items():
            if key.endswith(_WALL_CLOCK_SUFFIXES) and key not in _WALL_CLOCK_KEEP:
                continue
            if isinstance(value, float):
                value = float("nan") if math.isnan(value) else round(value, 9)
            out[key] = value
        projected.append(out)
    return projected
