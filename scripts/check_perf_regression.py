#!/usr/bin/env python
"""Perf-regression gate: compare fresh benchmark artifacts with their baselines.

Every benchmark asserts its own absolute floors and validity rules and
writes its ``.bench/<name>.json`` artifact only after they hold (see
``benchmarks/conftest.py``), so a fresh artifact always carries floors
that held.  This script does only what no benchmark can: compare a fresh
artifact with the committed baseline of the same name under ``results/``.
:data:`GATES` declares, per artifact name, which checks apply:

* the fresh run must hold the same rows (the same key-field values);
* structural fields (group counts, lag bounds, budgets) must be unchanged —
  a silent change there means the benchmark no longer measures the same
  thing;
* every ratio metric must reach at least :data:`RATIO_FLOOR` of its
  baseline — absolute milliseconds vary wildly across hosts, ratios much
  less;
* deterministic artifacts (the campaign studies) must equal their
  baseline row for row.

Usage::

    python scripts/check_perf_regression.py .bench/scan_kernel.json ...

Exit status: 0 when every artifact passes (the last line says ``passed``),
1 on a regression, an artifact no gate is declared for, or malformed input.

``--promote`` makes updating baselines an explicit step: after a pass it
copies each fresh artifact over its baseline and prints what it wrote.  It
refuses (baselines untouched, exit 1) when the gate failed, or when a
fresh artifact was measured on a host with fewer ``available_cpus`` than
its baseline's; a baseline with no host stamp is promotable.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

#: A fresh ratio may fall to this fraction of its baseline before the gate trips.
RATIO_FLOOR = 0.5


@dataclass(frozen=True)
class GateSpec:
    """What the gate compares for one artifact."""

    key_field: str
    ratio_metrics: Tuple[str, ...] = ()
    structural_fields: Tuple[str, ...] = ()
    #: Deterministic artifact: every row must equal the baseline's.
    exact: bool = False


GATES: Dict[str, GateSpec] = {
    "scan_scheduler": GateSpec(
        "num_shards",
        ("speedup_vs_full", "speedup_vs_fused"),
        ("groups", "groups_per_pass", "worst_case_lag_passes"),
    ),
    "fleet_throughput": GateSpec("num_models", ("speedup",), ("groups_per_tick",)),
    "scan_kernel": GateSpec(
        "mode", ("speedup",), ("groups", "rows_per_pass", "num_shards", "structured")
    ),
    "trace_overhead": GateSpec(
        "mode", structural_fields=("max_overhead_pct", "spans_per_tick")
    ),
    "campaign_sla": GateSpec("case", exact=True),
    "campaign_matrix": GateSpec("case", exact=True),
}


def load_rows(path: Path, key_field: str) -> dict:
    payload = json.loads(path.read_text())
    rows = payload["rows"] if isinstance(payload, dict) else payload
    return {row[key_field]: row for row in rows}


def available_cpus(path: Path) -> Optional[int]:
    """The ``metadata.host.available_cpus`` stamp of an artifact, if any."""
    payload = json.loads(path.read_text())
    metadata = payload.get("metadata", {}) if isinstance(payload, dict) else {}
    return metadata.get("host", {}).get("available_cpus")


def check(fresh_path: Path, baseline_path: Path) -> List[str]:
    """Failures of one fresh artifact against its baseline; prints its ratios."""
    name = fresh_path.stem
    spec = GATES.get(name)
    if spec is None:
        return [f"{name}: no gate declared (known: {', '.join(sorted(GATES))})"]
    if not baseline_path.exists():
        return [f"{name}: no baseline at {baseline_path}"]
    baseline = load_rows(baseline_path, spec.key_field)
    fresh = load_rows(fresh_path, spec.key_field)
    if set(baseline) != set(fresh):
        return [
            f"{name}: {spec.key_field} values differ — "
            f"baseline {sorted(baseline)}, fresh {sorted(fresh)}"
        ]
    failures = []
    for key, base_row in sorted(baseline.items()):
        fresh_row = fresh[key]
        label = f"{name} {spec.key_field}={key}"
        if spec.exact and fresh_row != base_row:
            changed = sorted(
                field
                for field in base_row.keys() | fresh_row.keys()
                if base_row.get(field) != fresh_row.get(field)
            )
            failures.append(f"{label}: changed {', '.join(changed)}")
        for field in spec.structural_fields:
            if base_row[field] != fresh_row.get(field):
                failures.append(
                    f"{label}: {field} changed "
                    f"{base_row[field]} -> {fresh_row.get(field)}"
                )
        for metric in spec.ratio_metrics:
            floor = base_row[metric] * RATIO_FLOOR
            value = fresh_row.get(metric)
            if not (isinstance(value, (int, float)) and value >= floor):
                failures.append(
                    f"{label}: {metric} fell to {value!r} "
                    f"(baseline {base_row[metric]:.2f}x, floor {floor:.2f}x)"
                )
            else:
                print(
                    f"{label}: {metric} {value:.2f}x "
                    f"(baseline {base_row[metric]:.2f}x)"
                )
    if not spec.ratio_metrics:
        print(f"{name}: {len(fresh)} rows compared with the baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", type=Path, nargs="+",
        help="freshly measured artifacts, e.g. .bench/scan_kernel.json",
    )
    parser.add_argument(
        "--baseline-dir", type=Path, default=RESULTS_DIR,
        help="where the committed baselines of the same names live "
        "(default: results/)",
    )
    parser.add_argument(
        "--promote", action="store_true",
        help="on a pass, copy each fresh artifact over its baseline; refused "
        "(exit 1) on a failure or from a host with fewer CPUs",
    )
    args = parser.parse_args(argv)
    pairs = [(fresh, args.baseline_dir / fresh.name) for fresh in args.fresh]

    failures = [failure for fresh, base in pairs for failure in check(fresh, base)]
    if failures:
        print("\nREGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
    else:
        print(f"\nregression gate passed (ratio floor {RATIO_FLOOR:.0%} of baseline)")
    if not args.promote:
        return 1 if failures else 0
    if failures:
        print("not promoted: the gate failed; the baselines are unchanged")
        return 1
    for fresh, base in pairs:
        base_cpus = available_cpus(base)
        fresh_cpus = available_cpus(fresh)
        if base_cpus is not None and (fresh_cpus or 0) < base_cpus:
            print(
                f"not promoted: {fresh} was measured on {fresh_cpus} CPUs, its "
                f"baseline on {base_cpus}; the baselines are unchanged"
            )
            return 1
    for fresh, base in pairs:
        shutil.copyfile(fresh, base)
        print(f"promoted {fresh} -> {base}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
