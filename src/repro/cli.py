"""Command-line interface for the RADAR reproduction.

Installed as the ``repro-radar`` console script (or run as
``python -m repro.cli``).  Subcommands map onto the experiment harnesses so
the paper's artifacts can be regenerated without writing any Python:

* ``list-setups`` — show the model-zoo setups and whether they are cached;
* ``overhead`` — Table IV / Table V (analytic system simulation; fast);
* ``storage`` — the Fig. 6 storage sweep (fast);
* ``missrate`` — the Section VI.B random-MSB-flip miss-rate study (fast);
* ``characterize`` — Table I / Table II / Fig. 2 (runs PBFA; slower);
* ``detect`` — the Fig. 4 detection sweep (runs PBFA; slower);
* ``recover`` — the Table III recovery sweep (runs PBFA; slowest).

Three subcommands drive the run-time protection machinery directly:

* ``protect`` — build the golden signatures for a setup and report the
  per-layer grouping plus the amortized scan plan;
* ``scan`` — run amortized scan passes (optionally after injecting random
  MSB flips) and show the per-pass cost / detection-lag timeline; with
  ``--all``, every cached model-zoo setup is registered into one
  :class:`~repro.core.fleet.VerificationEngine` and scanned as a fleet;
* ``serve-demo`` — a self-contained fleet-engine demo: several small models
  served together, one attacked mid-rotation, detected, repaired *and
  re-signed* automatically by the engine's
  detect → recover → reprotect lifecycle.  ``--events`` prints the
  engine's event stream (detection / recovery / reprotect /
  budget_exhausted), and ``--http-port`` serves ``/metrics`` (with the
  per-stage ``stage_duration_s`` tick timings) and ``/healthz`` while it
  runs.

All three accept ``--budget-ms``: instead of fixing the shard structure, the
slice each pass verifies is sized from a latency budget by the analytic scan
cost model (:mod:`repro.core.cost`); for ``serve-demo`` and ``scan --all``
the budget is fleet-wide and split across models by exposure and flagged
history.

``scan``, ``serve-demo`` and ``infer-demo`` accept ``--state-dir``, backed
by :class:`~repro.telemetry.store.StateStore`: a single-setup ``scan``
resumes and updates the setup's measured scan-cost calibration (the first
run starts from the analytic prior), while ``serve-demo`` and ``scan --all``
persist the whole engine's learned state — calibrated cost-model EWMAs,
planner flip rates, scheduler rotation counters, lifecycle states — so a
killed-and-restarted service resumes warm instead of re-calibrating from
the analytic prior.  Both fleet commands build their engine and run its
ticks through one shared path (:func:`_build_engine`, :func:`_run_fleet`).

* ``sla-report`` — run the scripted attack campaign
  (:mod:`repro.experiments.campaign`: random / PBFA / knowledgeable
  adversaries, burst and trickle cadences) against engine-managed fleets
  and print the per-model detection-latency SLA (p50/p95/p99 in serving
  ticks and wall-clock milliseconds) the attached telemetry collected.

Every subcommand prints the same plain-text table the corresponding
benchmark emits and can optionally save the rows as JSON with ``--output``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import reporting
from repro.version import __version__


def _add_common_model_arguments(parser: argparse.ArgumentParser, default_setup: str) -> None:
    parser.add_argument(
        "--setup",
        default=default_setup,
        help="model-zoo setup to use (see 'repro-radar list-setups')",
    )
    parser.add_argument("--rounds", type=int, default=None, help="attack rounds per configuration")
    parser.add_argument("--num-flips", type=int, default=10, help="bit flips per attack round")
    parser.add_argument(
        "--group-sizes", type=int, nargs="+", default=None, help="group sizes G to sweep"
    )
    parser.add_argument("--output", type=Path, default=None, help="write the rows to this JSON file")


def _emit(rows: List[Dict], title: str, output: Optional[Path]) -> None:
    print(reporting.render_table(rows, title=title))
    if output is not None:
        reporting.save_results(rows, output)
        print(f"saved {len(rows)} rows to {output}")


def _announce_restore(engine, restore: Optional[Dict]) -> None:
    """Print whether an engine warm-started from persisted state."""
    if restore is None:
        print("no persisted engine state; cold start (analytic calibration)")
        return
    restored = restore["restored"]
    calibrated = []
    for name in restored:
        observations = engine.get(name).cost_model.observations
        if observations:
            calibrated.append(f"{name} ({observations} obs)")
    print(
        f"resumed warm from persisted state: {len(restored)} models restored"
        + (f", calibrated pricing for {', '.join(calibrated)}" if calibrated else "")
    )
    for note in restore["partial"]:
        print(f"  partial restore: {note}")
    for name in restore["skipped"]:
        print(f"  persisted model {name!r} is not registered; skipped")


def _default_group_sizes(setup: str) -> Sequence[int]:
    if "resnet18" in setup:
        return (64, 128, 256, 512, 1024)
    if "resnet20" in setup:
        return (4, 8, 16, 32, 64)
    return (8, 16, 32)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for strictly positive floats (latency budgets)."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _group_size_arg(text: str) -> int:
    """argparse type for the checksum group size (``G >= 2``)."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"group size must be >= 2, got {value}")
    return value


def _default_group_size(setup: str) -> int:
    """The paper's recommended single G for a setup (Section VII)."""
    if "resnet18" in setup:
        return 512
    if "resnet20" in setup:
        return 8
    return 16


def _radar_config(args: argparse.Namespace, setup: str = ""):
    """The :class:`~repro.core.RadarConfig` the parsed flags ask for.

    ``setup`` picks the paper's default G when ``--group-size`` is unset;
    commands without ``--no-interleave`` / ``--no-masking`` keep both on.
    """
    from repro.core import RadarConfig

    return RadarConfig(
        group_size=(
            args.group_size if args.group_size is not None else _default_group_size(setup)
        ),
        signature_bits=args.signature_bits,
        use_interleave=not getattr(args, "no_interleave", False),
        use_masking=not getattr(args, "no_masking", False),
    )


def _add_scan_arguments(parser: argparse.ArgumentParser, num_shards: int) -> None:
    """Grouping and rotation flags shared by protect, scan and serve-demo."""
    parser.add_argument(
        "--group-size", type=_group_size_arg, default=None,
        help="weights per checksum group (default: the paper's recommendation)",
    )
    parser.add_argument("--signature-bits", type=int, default=2, choices=(1, 2, 3))
    parser.add_argument(
        "--num-shards", type=_positive_int, default=num_shards,
        help="shards the signature groups are partitioned into for amortized scanning",
    )
    parser.add_argument(
        "--scan-policy",
        default="round_robin",
        choices=("round_robin", "priority_exposure", "jittered", "full"),
        help="shard-selection policy of the amortized scheduler",
    )
    parser.add_argument(
        "--shards-per-pass", type=_positive_int, default=1, help="shards verified per scan pass"
    )


def _add_protection_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--setup",
        default="resnet20-cifar",
        help="model-zoo setup to protect (see 'repro-radar list-setups')",
    )
    _add_scan_arguments(parser, num_shards=8)
    parser.add_argument("--no-interleave", action="store_true", help="disable t-interleaving")
    parser.add_argument("--no-masking", action="store_true", help="disable secret-key masking")
    parser.add_argument(
        "--budget-ms", type=_positive_float, default=None,
        help="per-pass latency budget in milliseconds; sizes shards adaptively from the "
        "analytic cost model (overrides --num-shards / --shards-per-pass)",
    )
    parser.add_argument("--output", type=Path, default=None, help="write the rows to this JSON file")


def _build_scheduler(protector, args: argparse.Namespace, cost_model=None):
    """The amortized scheduler a protection subcommand asked for.

    ``--budget-ms`` switches from structural sizing (``--num-shards``) to
    budget-driven sizing via :meth:`ModelProtector.scheduler_for_budget`.
    ``cost_model`` overrides the analytic default (the ``--state-dir``
    warm-calibration path).
    """
    from repro.core import ScanPolicy

    if args.budget_ms is not None:
        return protector.scheduler_for_budget(
            args.budget_ms / 1e3,
            cost_model=cost_model,
            policy=ScanPolicy(args.scan_policy),
        )
    return protector.scheduler(
        num_shards=args.num_shards,
        policy=ScanPolicy(args.scan_policy),
        shards_per_pass=args.shards_per_pass,
        cost_model=cost_model,
    )


def _injection_window_ok(flag: str, at_pass: int, passes: int) -> bool:
    """Whether an injection before 0-based pass ``at_pass`` lands inside
    ``passes``; prints the usage error when it would inject nothing."""
    if 0 <= at_pass < passes:
        return True
    print(
        f"error: {flag} {at_pass} is outside the {passes} scheduled passes; "
        "nothing would be injected",
        file=sys.stderr,
    )
    return False


def _inject_flips(model, name: str, num_flips: int, seed: int) -> None:
    """The simulated attack: ``num_flips`` random MSB flips in ``model``."""
    from repro.attacks import RandomBitFlipAttack, RandomFlipConfig

    RandomBitFlipAttack(
        RandomFlipConfig(num_flips=num_flips, msb_only=True, seed=seed)
    ).run(model, name)


def _build_engine(args: argparse.Namespace, models: Dict, recovery_policy):
    """The fleet engine ``scan --all`` and ``serve-demo`` drive.

    ``models`` maps each name to its ``(model, RadarConfig)``.  RELOAD
    recovery keeps golden weights to reload from.  With ``--state-dir``
    every model calibrates measured pricing (so the saved snapshot has
    learned prices to resume from) and the engine warm-starts from the
    directory's snapshot.  Returns ``(engine, state_store)``; the store is
    ``None`` without ``--state-dir``.
    """
    from repro.core import RecoveryPolicy, ScanCostModel, ScanPolicy, VerificationEngine
    from repro.core.cost import MEASURED_ALPHA

    engine = VerificationEngine(
        num_shards=args.num_shards,
        policy=ScanPolicy(args.scan_policy),
        shards_per_pass=args.shards_per_pass,
        budget_s=args.budget_ms / 1e3 if args.budget_ms is not None else None,
        recovery_policy=recovery_policy,
    )
    for name, (model, config) in models.items():
        engine.register(
            name,
            model,
            config=config,
            keep_golden_weights=recovery_policy is RecoveryPolicy.RELOAD,
            cost_model=(
                ScanCostModel.from_radar_config(config, alpha=MEASURED_ALPHA)
                if args.state_dir is not None
                else None
            ),
        )
    state_store = None
    if args.state_dir is not None:
        from repro.telemetry.store import StateStore

        state_store = StateStore(args.state_dir)
        _announce_restore(engine, state_store.restore_engine(engine))
    print(reporting.render_table(engine.describe(), title="Fleet engine registry"))
    return engine, state_store


def _run_fleet(
    args: argparse.Namespace,
    engine,
    state_store,
    passes: int,
    inject_at: Optional[int],
    inject: Callable[[], None],
    title: str,
) -> Optional[int]:
    """Tick ``engine`` ``passes`` times and emit one row per model per tick.

    ``inject`` runs just before 0-based pass ``inject_at`` (``None``:
    never).  The rows go to ``--output`` and the engine's learned state to
    ``state_store``.  Returns the 1-based pass of the first detection, or
    ``None`` when nothing was detected.
    """
    rows: List[Dict] = []
    detected_at = None
    for pass_index in range(passes):
        if pass_index == inject_at:
            inject()
        for name, outcome in engine.tick().items():
            if outcome.attack_detected and detected_at is None:
                detected_at = pass_index + 1
            recovery = outcome.recovery
            row = {
                "pass": pass_index + 1,
                "model": name,
                "shards": ",".join(str(i) for i in outcome.scan.shard_indices),
                "groups_checked": outcome.scan.groups_checked,
                "flagged_groups": outcome.scan.report.num_flagged_groups,
                "recovered_weights": (
                    0
                    if recovery is None
                    else recovery.reloaded_weights + recovery.zeroed_weights
                ),
                "state": outcome.state.value,
            }
            if outcome.budget_s is not None:
                row["budget_share_ms"] = round(outcome.budget_s * 1e3, 6)
            rows.append(row)
    _emit(rows, title, args.output)
    if state_store is not None:
        print(f"engine state persisted to {state_store.save_engine(engine)}")
    return detected_at


# -- subcommand handlers -------------------------------------------------------

def _cmd_list_setups(args: argparse.Namespace) -> int:
    from repro.models.zoo import ModelZoo, available_setups, _ZOO

    zoo = ModelZoo()
    rows = [
        {
            "setup": name,
            "model": _ZOO[name].model_name,
            "cached": zoo.is_cached(name),
            "description": _ZOO[name].description,
        }
        for name in available_setups()
    ]
    _emit(rows, "Model-zoo setups", args.output)
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.experiments.overhead import (
        table4_amortized,
        table4_time_overhead,
        table5_crc_comparison,
    )

    rows4 = table4_time_overhead()
    _emit(rows4, "Table IV — RADAR time overhead", args.output)
    rows5 = table5_crc_comparison(include_hamming=args.include_hamming)
    _emit(rows5, "Table V — RADAR vs CRC overhead", None)
    if args.amortized:
        rows4a = table4_amortized()
        _emit(
            rows4a,
            "Table IV (amortized) — per-pass overhead, one shard of N per batch",
            None,
        )
    return 0


def _cmd_storage(args: argparse.Namespace) -> int:
    from repro.experiments.overhead import storage_sweep

    rows: List[Dict] = []
    for label, group_sizes in (("resnet20", (4, 8, 16, 32, 64)), ("resnet18", (64, 128, 256, 512, 1024))):
        rows.extend(storage_sweep(label, group_sizes, signature_bits=args.signature_bits))
    _emit(rows, "Signature storage vs group size (Fig. 6 x-axis)", args.output)
    return 0


def _cmd_missrate(args: argparse.Namespace) -> int:
    from repro.experiments.detection import missrate_study

    rows = missrate_study(
        num_weights=args.num_weights,
        group_sizes=tuple(args.group_sizes or (16, 32)),
        flips_per_round=args.num_flips,
        rounds=args.rounds or 100_000,
    )
    _emit(rows, "Random-MSB-flip miss rate (Section VI.B)", args.output)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.experiments.characterization import run_characterization
    from repro.experiments.common import ExperimentContext

    context = ExperimentContext.load(args.setup)
    results = run_characterization(
        context,
        group_sizes=tuple(args.group_sizes or _default_group_sizes(args.setup)),
        num_flips=args.num_flips,
        rounds=args.rounds,
    )
    _emit(results["table1"], "Table I — PBFA bit-position statistics", args.output)
    _emit(results["table2"], "Table II — targeted-weight value ranges", None)
    _emit(results["fig2"], "Fig. 2 — multi-flip group proportion", None)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.experiments.common import ExperimentContext, generate_pbfa_profiles
    from repro.experiments.detection import fig4_detection_sweep

    context = ExperimentContext.load(args.setup)
    profiles = generate_pbfa_profiles(
        context, num_flips=args.num_flips, rounds=args.rounds
    )
    rows = fig4_detection_sweep(
        context, profiles, tuple(args.group_sizes or _default_group_sizes(args.setup))
    )
    _emit(rows, "Fig. 4 — detected bit flips vs group size", args.output)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.experiments.common import ExperimentContext
    from repro.experiments.recovery import table3_recovery

    context = ExperimentContext.load(args.setup)
    rows = table3_recovery(
        context,
        group_sizes=tuple(args.group_sizes or _default_group_sizes(args.setup)[:3]),
        num_flips_values=(5, args.num_flips) if args.num_flips != 5 else (5,),
        rounds=args.rounds,
    )
    _emit(rows, "Table III — accuracy recovery", args.output)
    return 0


def _cmd_protect(args: argparse.Namespace) -> int:
    from repro.core import ModelProtector
    from repro.experiments.common import ExperimentContext

    context = ExperimentContext.load(args.setup)
    protector = ModelProtector(_radar_config(args, args.setup))
    store = protector.protect(context.model)
    rows = [
        {
            "layer": entry.layer_name,
            "weights": entry.layout.num_weights,
            "groups": entry.num_groups,
            "group_size": entry.layout.group_size,
        }
        for entry in store
    ]
    _emit(rows, f"Protected layers of {args.setup}", args.output)
    scheduler = _build_scheduler(protector, args)
    plan = scheduler.describe()
    print(
        f"signature storage: {protector.storage_overhead_kb():.2f} KB "
        f"({store.total_groups()} groups x {store.config.signature_bits} bits)"
    )
    print(
        f"amortized scan plan: {plan['shards']} shards, policy {plan['policy']}, "
        f"~{store.total_groups() * plan['shards_per_pass'] // max(plan['shards'], 1)} groups/pass, "
        f"full model verified within {plan['worst_case_lag_passes']} passes"
    )
    if args.budget_ms is not None:
        print(
            f"latency budget: {plan['budget_ms']:.4f} ms/pass, "
            f"priced per-pass cost {plan['per_pass_cost_ms']:.4f} ms "
            "(analytic cost model)"
        )
    return 0


def _cmd_scan_all(args: argparse.Namespace) -> int:
    """``scan --all``: every cached setup as one fleet through the engine."""
    from repro.core import RecoveryPolicy
    from repro.experiments.common import ExperimentContext
    from repro.models.zoo import ModelZoo, available_setups

    zoo = ModelZoo()
    setups = [args.setup] + [
        setup
        for setup in available_setups()
        if setup != args.setup and zoo.is_cached(setup)
    ]
    models = {
        setup: (ExperimentContext.load(setup).model, _radar_config(args, setup))
        for setup in setups
    }
    engine, state_store = _build_engine(args, models, RecoveryPolicy.ZERO)
    passes = args.passes or max(
        engine.get(setup).scheduler.worst_case_lag_passes for setup in setups
    )
    if args.inject_flips and not _injection_window_ok(
        "--inject-at-pass", args.inject_at_pass, passes
    ):
        return 2
    detected_at = _run_fleet(
        args,
        engine,
        state_store,
        passes,
        inject_at=args.inject_at_pass if args.inject_flips else None,
        inject=lambda: _inject_flips(
            models[args.setup][0], args.setup, args.inject_flips, args.seed
        ),
        title=f"Fleet scan of {len(setups)} setups",
    )
    if args.inject_flips:
        if detected_at is None:
            print("injected flips not yet scanned (increase --passes to cover a full rotation)")
        else:
            print(
                f"attack on {args.setup} injected before pass {args.inject_at_pass + 1}, "
                f"detected, recovered and re-signed at pass {detected_at}"
            )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.core import ModelProtector
    from repro.experiments.common import ExperimentContext

    if args.all:
        return _cmd_scan_all(args)
    context = ExperimentContext.load(args.setup)
    protector = ModelProtector(_radar_config(args, args.setup))
    protector.protect(context.model)
    state_store = None
    cost_model = None
    if args.state_dir is not None:
        from repro.telemetry.store import StateStore

        state_store = StateStore(args.state_dir)
        cost_model = state_store.measured_cost_model(args.setup, protector.config)
        if cost_model.observations:
            print(
                f"resumed calibration for {args.setup!r}: "
                f"{cost_model.seconds_per_group * 1e6:.4g} us/group after "
                f"{cost_model.observations} observed passes"
            )
        else:
            print(
                f"no persisted calibration for {args.setup!r}; starting from "
                "the analytic prior"
            )
    scheduler = _build_scheduler(protector, args, cost_model=cost_model)
    passes = args.passes or scheduler.worst_case_lag_passes
    if args.inject_flips and not _injection_window_ok(
        "--inject-at-pass", args.inject_at_pass, passes
    ):
        return 2
    rows: List[Dict] = []
    detected_at = None
    for pass_index in range(passes):
        if args.inject_flips and pass_index == args.inject_at_pass:
            _inject_flips(context.model, context.model_name, args.inject_flips, args.seed)
        result = scheduler.step(context.model)
        if result.attack_detected and detected_at is None:
            detected_at = result.pass_index
        row = {
            "pass": result.pass_index,
            "shards": ",".join(str(index) for index in result.shard_indices),
            "groups_checked": result.groups_checked,
            "flagged_groups": result.report.num_flagged_groups,
            "rotation_complete": result.rotation_complete,
        }
        if result.planned_cost_s is not None:
            row["planned_cost_ms"] = round(result.planned_cost_s * 1e3, 6)
        rows.append(row)
    _emit(rows, f"Amortized scan of {args.setup} ({scheduler.num_shards} shards)", args.output)
    if state_store is not None:
        path = state_store.save_calibration(
            args.setup, cost_model, radar_config=protector.config
        )
        print(
            f"calibration persisted to {path}: "
            f"{cost_model.seconds_per_group * 1e6:.4g} us/group "
            f"({cost_model.observations} total observations)"
        )
    reference = protector.scan(context.model)
    print(f"full-scan reference: {reference.num_flagged_groups} flagged groups")
    if args.inject_flips:
        if detected_at is None:
            print("injected flips not yet scanned (increase --passes to cover a full rotation)")
        else:
            print(
                f"attack injected before pass {args.inject_at_pass + 1}, "
                f"detected at pass {detected_at} "
                f"(lag {detected_at - args.inject_at_pass - 1} passes)"
            )
    return 0


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    from repro.core import RecoveryPolicy
    from repro.models.small import MLP
    from repro.quant.layers import quantize_model
    from repro.telemetry.monitor import FleetTelemetry

    if not _injection_window_ok("--attack-at-pass", args.attack_at_pass, args.passes):
        return 2
    config = _radar_config(args)
    models = {}
    for index in range(args.models):
        model = MLP(
            input_dim=64, num_classes=4, hidden_dims=(48, 24), seed=args.seed + index
        )
        quantize_model(model)
        models[f"model-{index}"] = (model, config)
    engine, state_store = _build_engine(args, models, RecoveryPolicy.RELOAD)
    telemetry = FleetTelemetry().attach(engine)
    if state_store is not None and state_store.restore_telemetry(telemetry):
        # Histogram windows merge (persisted samples first), so the SLA
        # percentiles below span restarts of this demo.
        print(f"telemetry metrics restored from {state_store.telemetry_path}")
    server = None
    if args.http_port is not None:
        from repro.telemetry.httpd import ObservabilityServer

        server = ObservabilityServer(
            telemetry=telemetry,
            engine=engine,
            port=args.http_port,
        ).start()
        print(f"observability server listening on {server.url}")

    victim = engine.get("model-0")

    def attack() -> None:
        _inject_flips(victim.model, victim.name, args.num_flips, args.seed)
        telemetry.note_injection(victim.name, flips=args.num_flips)

    detected_at = _run_fleet(
        args,
        engine,
        state_store,
        args.passes,
        inject_at=args.attack_at_pass,
        inject=attack,
        title=f"Serving timeline ({args.models} models, {args.num_shards} shards)",
    )
    if args.events:
        event_rows = [
            {
                "tick": event.tick,
                "event": event.type.value,
                "model": event.model,
                "detail": ", ".join(f"{key}={value}" for key, value in event.detail.items()),
            }
            for event in engine.bus.events()
        ]
        if event_rows:
            print(reporting.render_table(event_rows, title="Fleet event stream"))
        else:
            print("no fleet events (clean rotation)")
    if detected_at is None:
        print("attack not detected inside the served window; increase --passes")
    else:
        print(
            f"attack on {victim.name} before pass {args.attack_at_pass + 1}, "
            f"detected and repaired at pass {detected_at} "
            f"(exposure window: {detected_at - args.attack_at_pass - 1} passes; "
            "re-signed by the engine)"
        )
    if state_store is not None:
        print(f"telemetry metrics persisted to {state_store.save_telemetry(telemetry)}")
        ticks = telemetry.registry.histogram(
            "detection_latency_ticks", model=victim.name
        )
        if len(ticks):
            quantiles = ", ".join(
                f"{label}={value:g}" for label, value in ticks.percentiles().items()
            )
            print(
                f"detection latency over {len(ticks)} persisted detection(s) "
                f"(ticks, spans restarts): {quantiles}"
            )
    if server is not None and args.linger_s is not None:
        import time as _time

        try:  # announce inside the try: a scraper may SIGINT once it reads this
            print(f"lingering {args.linger_s:g}s for scrapes on {server.url}")
            _time.sleep(args.linger_s)
        except KeyboardInterrupt:  # a scraper that is done ends the linger early
            print("linger interrupted")
    if server is not None:
        server.close()
    return 0


def _cmd_infer_demo(args: argparse.Namespace) -> int:
    """``infer-demo``: budgeted protected inference with persistent calibration.

    A small in-process MLP is wrapped in
    :class:`~repro.core.runtime.ProtectedInference` under a per-batch
    latency budget, fed random batches, and its *learned* state — the
    measured cost model's EWMA price and the auto-tuned check cadence —
    round-trips through ``--state-dir``: a second run resumes calibrated
    instead of re-learning from the analytic prior.
    """
    import numpy as np

    from repro.core import ProtectedInference, RecoveryPolicy
    from repro.models.small import MLP
    from repro.quant.layers import quantize_model

    config = _radar_config(args)
    model = MLP(input_dim=64, num_classes=4, hidden_dims=(48, 24), seed=args.seed)
    quantize_model(model)
    runtime = ProtectedInference(
        model,
        config=config,
        policy=RecoveryPolicy.ZERO,
        budget_s=args.budget_ms / 1e3,
    )
    state_store = None
    warm = False
    if args.state_dir is not None:
        from repro.telemetry.store import StateStore

        state_store = StateStore(args.state_dir)
        warm = state_store.restore_runtime(
            "infer-demo", runtime, radar_config=runtime.protector.config
        )
    cost = runtime.cost_model
    if warm:
        print(
            f"resumed calibration: {cost.seconds_per_group * 1e6:.4g} us/group after "
            f"{cost.observations} observed checks; cadence re-derived to every "
            f"{runtime.check_every} batch(es)"
        )
    else:
        print(
            "cold start (analytic calibration prior); checking every "
            f"{runtime.check_every} batch(es)"
        )
    rng = np.random.default_rng(args.seed)
    for _ in range(args.batches):
        runtime(rng.normal(size=(args.batch_size, 64)))
    rows = [
        {
            "batches": runtime.log.batches,
            "checks": runtime.log.checks,
            "check_every": runtime.check_every,
            "detections": runtime.log.detections,
            "check_ms_total": round(runtime.log.check_seconds * 1e3, 4),
            "calibrated_us_per_group": round(cost.seconds_per_group * 1e6, 4),
            "observations": cost.observations,
            "warm_start": warm,
        }
    ]
    _emit(
        rows,
        f"Protected inference ({args.batches} batches, "
        f"{args.budget_ms:g} ms/batch budget)",
        args.output,
    )
    if state_store is not None:
        path = state_store.save_runtime(
            "infer-demo", runtime, radar_config=runtime.protector.config
        )
        print(
            f"runtime calibration persisted to {path}: "
            f"{cost.seconds_per_group * 1e6:.4g} us/group "
            f"({cost.observations} total observations, "
            f"cadence {runtime.check_every})"
        )
    return 0


def _cmd_sla_report(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import default_scenarios, run_campaign

    if args.matrix:
        return _cmd_sla_matrix(args)
    scenarios = list(default_scenarios())
    if args.scenario:
        known = {scenario.name: scenario for scenario in scenarios}
        unknown = [name for name in args.scenario if name not in known]
        if unknown:
            print(
                f"error: unknown scenario(s) {', '.join(unknown)}; "
                f"available: {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
        scenarios = [known[name] for name in args.scenario]
    rows = run_campaign(
        scenarios=scenarios,
        num_models=args.models,
        num_shards=args.num_shards,
        budget_s=args.budget_ms / 1e3 if args.budget_ms is not None else None,
        seed=args.seed,
    )
    _emit(
        rows,
        f"Detection-latency SLA — {len(scenarios)} attack scenarios vs a "
        f"{args.models}-model fleet (per-model p50/p95/p99)",
        args.output,
    )
    missed = sum(row["missed"] for row in rows)
    if missed:
        print(f"WARNING: {missed} injection(s) were never detected")
    else:
        print(
            "all injections detected; worst p99 detection latency: "
            f"{max(row['p99_detection_ticks'] for row in rows):.0f} ticks / "
            f"{max(row['p99_detection_ms'] for row in rows):.3f} ms"
        )
    return 0


def _cmd_sla_matrix(args: argparse.Namespace) -> int:
    """``sla-report --matrix``: the adversary × cadence × defense matrix."""
    from repro.experiments.campaign import (
        full_matrix,
        matrix_summary,
        run_matrix,
        smoke_matrix,
    )

    cells = full_matrix() if args.full else smoke_matrix()
    rows = run_matrix(cells, num_models=args.models, seed=args.seed)
    subset = "full" if args.full else "smoke"
    _emit(
        rows,
        f"Campaign matrix ({subset}, {len(cells)} cells) — detection-latency "
        "percentiles per adversary × cadence × defense",
        args.output,
    )
    summary = matrix_summary(rows)
    if summary:
        print(
            reporting.render_table(
                summary,
                title="Adaptive-gap summary (tracker p99 as a fraction of each "
                "defense's worst-case bound; 1.0 = attacker owns the bound)",
            )
        )
    missed = sum(row["missed"] for row in rows)
    unbounded = [
        row["case"]
        for row in rows
        if row["p99_bound_ticks"] is not None
        and row["p99_detection_ticks"] > row["p99_bound_ticks"]
    ]
    if missed or unbounded:
        if missed:
            print(f"WARNING: {missed} injection(s) were never detected")
        for case in unbounded:
            print(f"WARNING: {case} exceeded its declared worst-case bound")
        return 1
    print(
        f"all {len(cells)} cells detected every injection within their "
        "declared bounds"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-radar",
        description="Reproduction of RADAR: run-time adversarial weight attack detection and recovery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list-setups", help="list model-zoo setups")
    list_parser.add_argument("--output", type=Path, default=None)
    list_parser.set_defaults(handler=_cmd_list_setups)

    overhead_parser = subparsers.add_parser("overhead", help="Table IV / V time and storage overhead")
    overhead_parser.add_argument("--include-hamming", action="store_true")
    overhead_parser.add_argument(
        "--amortized", action="store_true",
        help="also print Table IV re-priced for amortized (sharded) checking",
    )
    overhead_parser.add_argument("--output", type=Path, default=None)
    overhead_parser.set_defaults(handler=_cmd_overhead)

    storage_parser = subparsers.add_parser("storage", help="signature storage sweep (Fig. 6)")
    storage_parser.add_argument("--signature-bits", type=int, default=2, choices=(1, 2, 3))
    storage_parser.add_argument("--output", type=Path, default=None)
    storage_parser.set_defaults(handler=_cmd_storage)

    missrate_parser = subparsers.add_parser("missrate", help="random-MSB-flip miss rate (Section VI.B)")
    missrate_parser.add_argument("--num-weights", type=int, default=512)
    missrate_parser.add_argument("--num-flips", type=int, default=10)
    missrate_parser.add_argument("--rounds", type=int, default=None)
    missrate_parser.add_argument("--group-sizes", type=int, nargs="+", default=None)
    missrate_parser.add_argument("--output", type=Path, default=None)
    missrate_parser.set_defaults(handler=_cmd_missrate)

    characterize_parser = subparsers.add_parser(
        "characterize", help="PBFA characterization (Table I / II, Fig. 2)"
    )
    _add_common_model_arguments(characterize_parser, default_setup="resnet20-cifar")
    characterize_parser.set_defaults(handler=_cmd_characterize)

    detect_parser = subparsers.add_parser("detect", help="detection sweep (Fig. 4)")
    _add_common_model_arguments(detect_parser, default_setup="resnet20-cifar")
    detect_parser.set_defaults(handler=_cmd_detect)

    recover_parser = subparsers.add_parser("recover", help="accuracy recovery sweep (Table III)")
    _add_common_model_arguments(recover_parser, default_setup="resnet20-cifar")
    recover_parser.set_defaults(handler=_cmd_recover)

    protect_parser = subparsers.add_parser(
        "protect", help="build golden signatures and show the amortized scan plan"
    )
    _add_protection_arguments(protect_parser)
    protect_parser.set_defaults(handler=_cmd_protect)

    scan_parser = subparsers.add_parser(
        "scan", help="run amortized scan passes (optionally after injecting flips)"
    )
    _add_protection_arguments(scan_parser)
    scan_parser.add_argument(
        "--passes", type=_positive_int, default=None,
        help="scan passes to run (default: one full rotation)",
    )
    scan_parser.add_argument(
        "--inject-flips", type=int, default=0,
        help="random MSB flips to inject before the pass given by --inject-at-pass",
    )
    scan_parser.add_argument(
        "--inject-at-pass", type=int, default=0,
        help="0-based pass before which the flips are injected",
    )
    scan_parser.add_argument("--seed", type=int, default=0)
    scan_parser.add_argument(
        "--state-dir", type=Path, default=None,
        help="persist and resume the setup's calibrated scan cost (with --all: "
        "the fleet engine's learned state) across runs",
    )
    scan_parser.add_argument(
        "--all", action="store_true",
        help="scan every cached model-zoo setup (plus --setup) as one fleet "
        "through the verification engine (each tick runs inline)",
    )
    scan_parser.set_defaults(handler=_cmd_scan)

    serve_parser = subparsers.add_parser(
        "serve-demo",
        help="VerificationEngine demo: a small model fleet, one attacked mid-rotation",
    )
    serve_parser.add_argument("--models", type=_positive_int, default=3, help="models in the fleet")
    _add_scan_arguments(serve_parser, num_shards=4)
    serve_parser.add_argument("--passes", type=_positive_int, default=8, help="serving ticks to simulate")
    serve_parser.add_argument(
        "--attack-at-pass", type=int, default=2,
        help="0-based pass before which model-0 is attacked",
    )
    serve_parser.add_argument("--num-flips", type=int, default=6, help="flips the attack injects")
    serve_parser.add_argument(
        "--budget-ms", type=_positive_float, default=None,
        help="fleet-wide latency budget per serving tick, split across models "
        "by exposure and flagged history",
    )
    serve_parser.add_argument(
        "--events", action="store_true",
        help="print the engine's event stream (detection / recovery / "
        "reprotect / budget_exhausted) after the timeline",
    )
    serve_parser.add_argument(
        "--state-dir", type=Path, default=None,
        help="persist and resume the engine's learned state (calibrated "
        "cost models, planner flip rates, scheduler counters) across runs",
    )
    serve_parser.add_argument(
        "--http-port", type=int, default=None,
        help="serve the observability surface (/metrics Prometheus text, "
        "/healthz) on 127.0.0.1; 0 picks an ephemeral port and prints it",
    )
    serve_parser.add_argument(
        "--linger-s", type=_positive_float, default=None,
        help="keep the --http-port server up this many seconds after the "
        "passes finish (a scrape window; the demo itself runs in "
        "milliseconds); SIGINT ends it early with exit status 0",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--output", type=Path, default=None)
    serve_parser.set_defaults(handler=_cmd_serve_demo)

    infer_parser = subparsers.add_parser(
        "infer-demo",
        help="budgeted protected inference on a small in-process model, "
        "with measured-cost calibration persisted via --state-dir",
    )
    infer_parser.add_argument("--group-size", type=_group_size_arg, default=None)
    infer_parser.add_argument("--signature-bits", type=int, default=2, choices=(1, 2, 3))
    infer_parser.add_argument(
        "--batches", type=_positive_int, default=32, help="inference batches to run"
    )
    infer_parser.add_argument("--batch-size", type=_positive_int, default=8)
    infer_parser.add_argument(
        "--budget-ms", type=_positive_float, default=0.2,
        help="amortized per-batch checking budget; the check cadence "
        "auto-tunes to it from the calibrated measured cost model",
    )
    infer_parser.add_argument(
        "--state-dir", type=Path, default=None,
        help="persist and resume the runtime's measured calibration and "
        "check cadence across runs",
    )
    infer_parser.add_argument("--seed", type=int, default=0)
    infer_parser.add_argument("--output", type=Path, default=None)
    infer_parser.set_defaults(handler=_cmd_infer_demo)

    sla_parser = subparsers.add_parser(
        "sla-report",
        help="run the scripted attack campaign and print per-model "
        "p50/p95/p99 detection-latency SLAs",
    )
    sla_parser.add_argument(
        "--scenario", action="append", default=None,
        help="run only this scenario (repeatable; default: all scenarios)",
    )
    sla_parser.add_argument(
        "--matrix", action="store_true",
        help="run the adversary × cadence × defense configuration matrix "
        "instead of the scripted scenarios (adaptive attackers vs fixed "
        "and jittered rotations)",
    )
    sla_parser.add_argument(
        "--full", action="store_true",
        help="with --matrix: run the exhaustive offline sweep instead of "
        "the deterministic CI smoke subset",
    )
    sla_parser.add_argument(
        "--models", type=_positive_int, default=3, help="models in each scenario's fleet"
    )
    sla_parser.add_argument("--num-shards", type=_positive_int, default=4)
    sla_parser.add_argument(
        "--budget-ms", type=_positive_float, default=None,
        help="fleet-wide latency budget per tick (adds budget-utilisation "
        "telemetry to the report)",
    )
    sla_parser.add_argument("--seed", type=int, default=0)
    sla_parser.add_argument("--output", type=Path, default=None)
    sla_parser.set_defaults(handler=_cmd_sla_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the ``repro-radar`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
