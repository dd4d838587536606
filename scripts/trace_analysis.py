#!/usr/bin/env python
"""Analyze a flight-recorder JSONL trace export.

Reads the span stream ``serve-demo --trace-dir`` (or
``FlightRecorder.dump_jsonl``) produced and prints:

* a per-stage latency table — count, total, mean and nearest-rank
  p50/p95/p99 per span name (``engine.tick``, ``tick.plan``,
  ``tick.assemble``, ``scan.kernel``, ...);
* a critical-path breakdown — each stage's share of total ``engine.tick``
  wall-clock, so "where does a tick go?" has a one-table answer;
* an orphan check — every span's ``parent_id`` must resolve within its
  trace (every stage chains back to its tick).  ``--strict`` turns
  orphans into exit code 1.

The percentile formula is *identical* to
:meth:`repro.telemetry.metrics.RingHistogram.percentile` (nearest rank:
``ordered[max(ceil(q / 100 * n), 1) - 1]``), so the ``engine.tick`` p99
printed here matches the ``tick_duration_s`` quantile on ``/metrics``
sample-for-sample — as long as the recorder did not drop spans and the
histogram window did not wrap.

Stdlib only; no repo imports, so it can chew on a trace copied off a box
that never had the package installed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Stages that are children of one tick and sum (roughly) to its duration.
TICK_STAGES = (
    "tick.plan",
    "tick.assemble",
    "scan.kernel",
    "tick.verdict",
    "lifecycle.transition",
)


def load_spans(path: Path) -> List[dict]:
    spans: List[dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(
                    f"{path}:{line_number}: not valid JSON: {error}"
                )
            if not isinstance(span, dict) or "name" not in span:
                raise SystemExit(f"{path}:{line_number}: not a span object")
            spans.append(span)
    return spans


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The exact formula RingHistogram.percentile uses (NaN when empty)."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


def stage_table(spans: Sequence[dict]) -> List[Dict[str, object]]:
    by_name: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        duration = span.get("duration_s")
        if isinstance(duration, (int, float)):
            by_name[span["name"]].append(float(duration))
    rows = []
    for name in sorted(by_name):
        samples = by_name[name]
        rows.append(
            {
                "stage": name,
                "count": len(samples),
                "total_ms": sum(samples) * 1e3,
                "mean_ms": sum(samples) / len(samples) * 1e3,
                "p50_ms": nearest_rank(samples, 50) * 1e3,
                "p95_ms": nearest_rank(samples, 95) * 1e3,
                "p99_ms": nearest_rank(samples, 99) * 1e3,
            }
        )
    rows.sort(key=lambda row: row["total_ms"], reverse=True)
    return rows


def critical_path(spans: Sequence[dict]) -> List[Dict[str, object]]:
    """Each stage's share of total ``engine.tick`` wall-clock."""
    tick_total = sum(
        float(span["duration_s"])
        for span in spans
        if span.get("name") == "engine.tick"
        and isinstance(span.get("duration_s"), (int, float))
    )
    if tick_total <= 0:
        return []
    rows = []
    accounted = 0.0
    for stage in TICK_STAGES:
        stage_total = sum(
            float(span["duration_s"])
            for span in spans
            if span.get("name") == stage
            and isinstance(span.get("duration_s"), (int, float))
        )
        if stage_total == 0:
            continue
        accounted += stage_total
        rows.append(
            {
                "stage": stage,
                "total_ms": stage_total * 1e3,
                "share_pct": stage_total / tick_total * 100.0,
            }
        )
    rows.append(
        {
            "stage": "(unattributed)",
            "total_ms": max(tick_total - accounted, 0.0) * 1e3,
            "share_pct": max(1.0 - accounted / tick_total, 0.0) * 100.0,
        }
    )
    return rows


def find_orphans(spans: Sequence[dict]) -> List[dict]:
    known = {
        (span.get("trace_id"), span.get("span_id"))
        for span in spans
        if span.get("span_id")
    }
    return [
        span
        for span in spans
        if span.get("parent_id")
        and (span.get("trace_id"), span.get("parent_id")) not in known
    ]


def render(rows: List[Dict[str, object]]) -> str:
    if not rows:
        return "(empty)"
    columns = list(rows[0])

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    widths = {
        column: max(len(column), *(len(fmt(row[column])) for row in rows))
        for column in columns
    }
    lines = ["  ".join(column.ljust(widths[column]) for column in columns)]
    for row in rows:
        lines.append(
            "  ".join(fmt(row[column]).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="JSONL trace export")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any span's parent does not resolve in the trace",
    )
    args = parser.parse_args(argv)

    spans = load_spans(args.trace)
    if not spans:
        print(f"{args.trace}: no spans")
        return 0
    traces = {span.get("trace_id") for span in spans}
    print(f"{len(spans)} span(s) across {len(traces)} trace(s)\n")

    print("Per-stage latency (nearest-rank percentiles):")
    print(render(stage_table(spans)))

    path_rows = critical_path(spans)
    if path_rows:
        print("\nCritical path (share of engine.tick wall-clock):")
        print(render(path_rows))

    ticks = [
        float(span["duration_s"])
        for span in spans
        if span.get("name") == "engine.tick"
        and isinstance(span.get("duration_s"), (int, float))
    ]
    if ticks:
        print(
            f"\nengine.tick p99: {nearest_rank(ticks, 99) * 1e3:.4f} ms "
            f"over {len(ticks)} tick(s)"
        )

    orphans = find_orphans(spans)
    if orphans:
        names = ", ".join(
            sorted({str(span.get("name")) for span in orphans})
        )
        print(
            f"\nWARNING: {len(orphans)} orphaned span(s) "
            f"(parent_id unresolved): {names}"
        )
        if args.strict:
            return 1
    else:
        print("\nparent check: every span's parent resolves (no orphans)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
