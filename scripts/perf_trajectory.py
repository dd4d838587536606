#!/usr/bin/env python
"""Print the perf trajectory: every speedup row across ``results/*.json``.

Each perf-optimization PR leaves a committed baseline artifact under
``results/`` with one or more ``*speedup*`` ratio columns (scan scheduler,
fleet engine, scan kernel, narrow accumulation).  This
script concatenates them into one table so a CI log — or a human skimming
it — sees the whole performance envelope at a glance, without opening
five JSON files.

Purely informational: it never fails the build (missing or malformed
artifacts are reported and skipped).  The enforcement lives in
``check_perf_regression.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Row fields worth echoing as the row's identity, in display order.
KEY_FIELDS = (
    "mode",
    "num_models",
    "num_shards",
    "model",
    "structured",
    "available_cpus",
)


def iter_speedup_rows(path: Path):
    """Yield ``(label, metric, value)`` for every speedup column in a file."""
    payload = json.loads(path.read_text())
    rows = payload.get("rows", []) if isinstance(payload, dict) else payload
    for row in rows:
        if not isinstance(row, dict):
            continue
        metrics = sorted(key for key in row if "speedup" in key)
        if not metrics:
            continue
        label = ", ".join(
            f"{field}={row[field]}" for field in KEY_FIELDS if field in row
        )
        for metric in metrics:
            value = row[metric]
            if isinstance(value, (int, float)):
                yield label, metric, float(value)


def main() -> int:
    table = []
    for path in sorted(RESULTS_DIR.glob("*.json")):
        try:
            for label, metric, value in iter_speedup_rows(path):
                table.append((path.name, label, metric, value))
        except (json.JSONDecodeError, OSError) as error:
            print(f"  (skipped {path.name}: {error})")
    if not table:
        print("no speedup rows found under", RESULTS_DIR)
        return 0
    widths = [
        max(len(row[column]) for row in table)
        for column in range(3)
    ]
    print("perf trajectory — committed speedup rows across results/:")
    for name, label, metric, value in table:
        print(
            f"  {name:<{widths[0]}}  {label:<{widths[1]}}  "
            f"{metric:<{widths[2]}}  {value:6.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
