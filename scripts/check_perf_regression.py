#!/usr/bin/env python
"""Perf-regression gate for the run-time verification subsystem.

Compares a freshly measured benchmark run against its committed baseline
under ``results/``.  Absolute milliseconds vary wildly across CI hosts, so
the gate checks *machine-independent* ratios: a fresh speedup may be at
most ``--tolerance`` (a fraction; 0.5 = 50 %) worse than the committed one
before the gate trips.  Structural fields (group counts, lag bounds) must
match exactly — a silent change there means the benchmark is no longer
measuring the same thing.

Five benchmark kinds are understood (``--kind``):

* ``scan-scheduler`` (default) — ``results/scan_scheduler.json`` from
  ``benchmarks/test_bench_scan_scheduler.py``: rows keyed by ``num_shards``,
  ratio metrics ``speedup_vs_full`` / ``speedup_vs_fused``.
* ``fleet`` — ``results/fleet_throughput.json`` from
  ``benchmarks/test_bench_fleet_throughput.py``: rows keyed by
  ``num_models``, ratio metric ``speedup`` (batched vs sequential
  stepping).  ``--min-speedup`` additionally enforces an *absolute* floor
  on the best fleet-sized (>= 4 models) row — the acceptance bar that
  batched cross-model stepping stays >= 2x sequential now that the stacked
  einsum is cache-blocked, regardless of how the baseline drifts.
* ``kernel`` — ``results/scan_kernel.json`` from
  ``benchmarks/test_bench_scan_kernel.py``: rows keyed by ``mode``
  (``full`` / ``slice`` on ResNet-20, ``full-r18`` on ResNet-18 at
  ``G = 512``), ratio metric ``speedup`` (scan kernel vs the per-layer
  checksum oracle).  ``--min-speedup`` enforces an
  absolute floor on *every* row, structure-aware: rows measured on a
  ``structured`` plane (band path available) owe the full
  ``--min-speedup`` (the >= 4x acceptance bar), rows that rode the general
  gather owe only the pre-structure 2x bar.  ``structured`` is also a
  structural field — the baseline losing its structure claim is itself the
  regression.
* ``campaign`` — ``results/campaign_sla.json`` from
  ``benchmarks/test_bench_campaign_sla.py`` **and**
  ``results/campaign_matrix.json`` from
  ``benchmarks/test_bench_campaign_matrix.py``: rows keyed by ``case``.
  Milliseconds vary across hosts (committed campaign artifacts strip them
  entirely so reruns are byte-identical), so this gate is a *validity*
  gate rather than a ratio gate: every case must report a **finite** p99
  detection latency in ticks with **zero** missed injections, and the
  case set must match the committed baseline — a case silently
  disappearing or going undetected is the regression.  Rows that declare
  a ``p99_bound_ticks`` (the matrix cells of unbudgeted defenses) must
  additionally stay **at or under** that bound.  When the rows carry the
  matrix's ``adversary``/``defense`` axes, the gate also pins the
  adaptive-threat margins themselves: per cadence, the rotation tracker
  must beat the blind random attacker against the fixed rotation (mean
  detection latency strictly higher — the exploit is alive) **and**
  saturate the fixed rotation's worst-case bound (p99 == bound), while
  under the jittered planner its p99 must sit strictly *inside* the
  declared bound (the defense restores slack the fixed rotation forfeits).
* ``trace-overhead`` — ``results/trace_overhead.json`` from
  ``benchmarks/test_bench_trace_overhead.py``: rows keyed by ``mode``
  (``disabled`` / ``enabled``).  An *absolute* gate, not a ratio gate:
  each row commits to its own ``max_overhead_pct`` budget (tracing
  disabled must cost < 2 % of a fleet tick, enabled < 10 %) and the
  fresh ``overhead_pct`` must stay under it.  The budget itself is a
  structural field — quietly raising it in the benchmark without
  touching the committed baseline is caught.

Exit status: 0 when no regression (the last line says ``passed``), 1 on
regression or malformed input.

``--promote`` makes updating a baseline an explicit step: after a pass it
copies ``--fresh`` over ``--baseline`` and prints what it wrote.  It
refuses (baseline untouched, exit 1) when the gate failed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple


@dataclass(frozen=True)
class GateSpec:
    """What one benchmark kind's gate checks."""

    key_field: str
    ratio_metrics: Tuple[str, ...]
    structural_fields: Tuple[str, ...]


GATES: Dict[str, GateSpec] = {
    "scan-scheduler": GateSpec(
        key_field="num_shards",
        ratio_metrics=("speedup_vs_full", "speedup_vs_fused"),
        structural_fields=("groups", "groups_per_pass", "worst_case_lag_passes"),
    ),
    "fleet": GateSpec(
        key_field="num_models",
        ratio_metrics=("speedup",),
        structural_fields=("groups_per_tick",),
    ),
    "kernel": GateSpec(
        key_field="mode",
        ratio_metrics=("speedup",),
        structural_fields=("groups", "rows_per_pass", "num_shards", "structured"),
    ),
    "trace-overhead": GateSpec(
        key_field="mode",
        ratio_metrics=(),
        structural_fields=("max_overhead_pct", "spans_per_tick"),
    ),
    "campaign": GateSpec(
        key_field="case",
        ratio_metrics=(),
        structural_fields=(
            "scenario",
            "model",
            "kind",
            "cadence",
            "signature_bits",
            "num_models",
            "num_shards",
        ),
    ),
}

#: Per-row SLA checks of the campaign gate: always-required finite metrics
#: (tick-space latency is deterministic and survives in committed
#: artifacts) and optional ones (wall-clock is checked only when a live
#: run kept it — committed artifacts strip milliseconds for determinism).
CAMPAIGN_FINITE_METRICS = ("p99_detection_ticks",)
CAMPAIGN_OPTIONAL_FINITE_METRICS = ("p99_detection_ms",)

#: Matrix-axis fields that must additionally match structurally when the
#: campaign rows carry them (the matrix artifact does, the scenario
#: artifact does not).
CAMPAIGN_MATRIX_STRUCTURAL = (
    "adversary",
    "defense",
    "policy",
    "budget_ms",
    "passes",
    "seed",
    "ticks",
)

#: Rows at or above this fleet size count toward ``--min-speedup``.
FLEET_SIZE_FLOOR = 4

#: Kernel rows that rode the general gather (``structured: false``) owe
#: only the pre-structure acceptance bar, whatever ``--min-speedup`` asks
#: of the band path.
KERNEL_UNSTRUCTURED_FLOOR = 2.0


def load_rows(path: Path, key_field: str) -> dict:
    payload = json.loads(path.read_text())
    rows = payload["rows"] if isinstance(payload, dict) else payload
    return {row[key_field]: row for row in rows}


def check_campaign_row(key: str, fresh_row: dict, failures: list) -> None:
    """Per-row validity of one campaign/matrix case."""
    for metric in CAMPAIGN_FINITE_METRICS:
        value = fresh_row.get(metric)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(
                f"case={key}: {metric} is {value!r} "
                "(detection never happened or the window was truncated)"
            )
    for metric in CAMPAIGN_OPTIONAL_FINITE_METRICS:
        if metric not in fresh_row:
            continue
        value = fresh_row[metric]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"case={key}: {metric} is {value!r}")
    missed = fresh_row.get("missed", 0)
    if missed:
        failures.append(
            f"case={key}: {missed} injected attack(s) were never detected"
        )
    bound = fresh_row.get("p99_bound_ticks")
    p99 = fresh_row.get("p99_detection_ticks")
    if (
        isinstance(bound, (int, float))
        and math.isfinite(bound)
        and isinstance(p99, (int, float))
        and p99 > bound
    ):
        failures.append(
            f"case={key}: p99 detection latency {p99} ticks exceeds the "
            f"scheduler's declared worst-case bound of {bound} ticks"
        )
    print(
        f"case={key}: p99 {p99} ticks"
        + (f" (bound {bound})" if bound is not None else "")
        + f", missed {missed}"
    )


def check_matrix_margins(fresh: dict, failures: list) -> None:
    """Cross-cell adaptive-threat margins (matrix artifacts only).

    Pins the PR's two headline claims per cadence that has the cells:
    the rotation tracker *defeats* the fixed rotation (strictly worse
    mean latency than a schedule-blind random attacker, p99 saturating
    the worst-case bound), and the jittered planner *restores* slack
    (tracker p99 strictly inside the jittered bound, a strictly smaller
    fraction of it than under the fixed rotation).
    """
    cells = {}
    for row in fresh.values():
        if row.get("defense") is None:
            continue
        cells[(row.get("adversary"), row["cadence"], row["defense"])] = row
    if not cells:
        return
    cadences = sorted({cadence for (_, cadence, _) in cells})
    for cadence in cadences:
        random_fixed = cells.get(("random", cadence, "fixed-rr"))
        tracker_fixed = cells.get(("rotation", cadence, "fixed-rr"))
        tracker_jittered = cells.get(("rotation", cadence, "jittered"))
        if tracker_fixed and random_fixed:
            tracker_mean = tracker_fixed["mean_detection_ticks"]
            random_mean = random_fixed["mean_detection_ticks"]
            if not tracker_mean > random_mean:
                failures.append(
                    f"cadence={cadence}: rotation tracker no longer defeats the "
                    f"fixed rotation (tracker mean {tracker_mean} ticks vs random "
                    f"{random_mean} ticks) — the adaptive exploit went stale"
                )
            else:
                print(
                    f"cadence={cadence}: exploit margin "
                    f"{tracker_mean / random_mean:.2f}x (tracker {tracker_mean} "
                    f"vs random {random_mean} mean ticks on fixed-rr)"
                )
        if tracker_fixed:
            bound = tracker_fixed.get("p99_bound_ticks")
            p99 = tracker_fixed["p99_detection_ticks"]
            if bound and p99 < bound:
                failures.append(
                    f"cadence={cadence}: tracker p99 {p99} no longer saturates "
                    f"the fixed rotation's bound {bound} — the committed margin "
                    "is measuring a weaker attacker than it claims"
                )
        if tracker_jittered:
            bound = tracker_jittered.get("p99_bound_ticks")
            p99 = tracker_jittered["p99_detection_ticks"]
            if bound and not p99 < bound:
                failures.append(
                    f"cadence={cadence}: tracker p99 {p99} reached the jittered "
                    f"bound {bound} — the randomized defense no longer restores "
                    "slack against the adaptive attacker"
                )
            elif bound:
                print(
                    f"cadence={cadence}: jittered defense holds "
                    f"(tracker p99 {p99} < bound {bound})"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kind", choices=sorted(GATES), default="scan-scheduler",
        help="which benchmark's gate to run (default: scan-scheduler)",
    )
    parser.add_argument(
        "--baseline", type=Path, required=True, help="committed results JSON"
    )
    parser.add_argument(
        "--fresh", type=Path, required=True, help="freshly measured results JSON"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed fractional drop in speedup ratios (default 0.5)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="absolute speedup floor, --kind fleet and kernel only: fleet = "
        "the best >= 4-model row must clear it; kernel = every row (full "
        "AND slice) must clear it, with unstructured rows owing only the "
        "pre-structure 2x bar",
    )
    parser.add_argument(
        "--promote", action="store_true",
        help="on a pass, copy --fresh over --baseline; refused (exit 1) "
        "on a failure",
    )
    args = parser.parse_args(argv)

    passed = run_gate(args)
    if not args.promote:
        return 0 if passed else 1
    if not passed:
        print(f"not promoted: the gate failed; {args.baseline} is unchanged")
        return 1
    shutil.copyfile(args.fresh, args.baseline)
    print(f"promoted {args.fresh} -> {args.baseline}")
    return 0


def run_gate(args) -> bool:
    """Run the gate and print its report; returns whether it passed."""
    spec = GATES[args.kind]
    baseline = load_rows(args.baseline, spec.key_field)
    fresh = load_rows(args.fresh, spec.key_field)
    if set(baseline) != set(fresh):
        print(
            f"REGRESSION GATE: {spec.key_field} values differ — "
            f"baseline {sorted(baseline)}, fresh {sorted(fresh)}"
        )
        return False

    failures = []
    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh[key]
        for metric in spec.structural_fields:
            if base_row[metric] != fresh_row[metric]:
                failures.append(
                    f"{spec.key_field}={key}: {metric} changed "
                    f"{base_row[metric]} -> {fresh_row[metric]}"
                )
        for metric in spec.ratio_metrics:
            floor = base_row[metric] * (1.0 - args.tolerance)
            if fresh_row[metric] < floor:
                failures.append(
                    f"{spec.key_field}={key}: {metric} fell to "
                    f"{fresh_row[metric]:.2f}x "
                    f"(baseline {base_row[metric]:.2f}x, floor {floor:.2f}x)"
                )
        if args.kind == "trace-overhead":
            overhead = fresh_row.get("overhead_pct")
            budget = fresh_row.get("max_overhead_pct")
            if not isinstance(overhead, (int, float)) or not math.isfinite(
                overhead
            ):
                failures.append(
                    f"{spec.key_field}={key}: overhead_pct is {overhead!r}"
                )
            elif overhead > budget:
                failures.append(
                    f"{spec.key_field}={key}: tracing overhead "
                    f"{overhead:.3f}% of a fleet tick exceeds the "
                    f"{budget:g}% budget"
                )
            else:
                print(
                    f"{spec.key_field}={key}: tracing overhead "
                    f"{overhead:.3f}% <= {budget:g}% budget"
                )
            continue
        if args.kind == "campaign":
            for metric in CAMPAIGN_MATRIX_STRUCTURAL:
                if metric in base_row and base_row[metric] != fresh_row.get(metric):
                    failures.append(
                        f"{spec.key_field}={key}: {metric} changed "
                        f"{base_row[metric]} -> {fresh_row.get(metric)}"
                    )
            check_campaign_row(key, fresh_row, failures)
            continue
        if spec.ratio_metrics:
            print(
                f"{spec.key_field}={key}: "
                + ", ".join(
                    f"{metric} {fresh_row[metric]:.2f}x (baseline {base_row[metric]:.2f}x)"
                    for metric in spec.ratio_metrics
                )
            )

    if args.kind == "campaign":
        check_matrix_margins(fresh, failures)

    if args.min_speedup is not None:
        if args.kind == "fleet":
            # Fleet floor: the best fleet-sized row must clear it (small
            # fleets amortize the batch dispatch less).
            fleet_rows = {
                key: row for key, row in fresh.items() if key >= FLEET_SIZE_FLOOR
            }
            if not fleet_rows:
                failures.append(
                    f"no rows with {spec.key_field} >= {FLEET_SIZE_FLOOR} to hold "
                    f"the {args.min_speedup:.2f}x floor"
                )
            else:
                best_key, best_row = max(
                    fleet_rows.items(), key=lambda item: item[1]["speedup"]
                )
                if best_row["speedup"] < args.min_speedup:
                    failures.append(
                        f"best fleet speedup {best_row['speedup']:.2f}x "
                        f"({spec.key_field}={best_key}) is below the "
                        f"{args.min_speedup:.2f}x acceptance floor"
                    )
                else:
                    print(
                        f"acceptance floor: best fleet speedup "
                        f"{best_row['speedup']:.2f}x "
                        f"({spec.key_field}={best_key}) >= {args.min_speedup:.2f}x"
                    )
        elif args.kind == "kernel":
            # Kernel floor: every mode (full scan AND scheduler slice) must
            # clear it — the acceptance bar is not mode-averaged.  The full
            # --min-speedup only binds where the structure-aware gather
            # applies; unstructured rows keep the pre-structure bar.
            for key, row in sorted(fresh.items()):
                structured = bool(row.get("structured", False))
                floor = (
                    args.min_speedup
                    if structured
                    else min(args.min_speedup, KERNEL_UNSTRUCTURED_FLOOR)
                )
                label = "structured" if structured else "unstructured"
                if row["speedup"] < floor:
                    failures.append(
                        f"kernel speedup {row['speedup']:.2f}x "
                        f"({spec.key_field}={key}, {label}) is below the "
                        f"{floor:.2f}x acceptance floor"
                    )
                else:
                    print(
                        f"acceptance floor: kernel speedup {row['speedup']:.2f}x "
                        f"({spec.key_field}={key}, {label}) >= {floor:.2f}x"
                    )
        else:
            print(
                "REGRESSION GATE: --min-speedup only applies to "
                "--kind fleet or --kind kernel"
            )
            return False

    if failures:
        print("\nREGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return False
    print(f"\nregression gate passed (tolerance {args.tolerance:.0%})")
    return True


if __name__ == "__main__":
    sys.exit(main())
