"""Plain-text table rendering, result persistence and timing for the harnesses.

Every experiment returns a list of row dictionaries; :func:`render_table`
prints them in the same layout as the corresponding paper table/figure so
the benchmark output can be pasted directly into EXPERIMENTS.md.  Every
timed study measures through :func:`paired_timings` and reports its
ratios as :func:`pair_ratio` medians with their interquartile range.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


def _format_value(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def render_table(
    rows: Sequence[Dict],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render a list of row dicts as an aligned plain-text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(column) for column in columns]
    body = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines) + "\n"


def compare_with_paper(measured: float, paper: float, label: str) -> Dict:
    """A row comparing a measured value against the paper's reported value."""
    return {
        "metric": label,
        "paper": paper,
        "measured": measured,
        "ratio": measured / paper if paper else float("nan"),
    }


def host_stamp() -> Dict[str, object]:
    """Where a timing artifact was measured: CPUs, CPU model, numpy, python.

    Timings only compare between like hosts, so every non-deterministic
    artifact records the host it ran on.
    """
    try:
        available_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        available_cpus = os.cpu_count() or 1
    return {
        "available_cpus": available_cpus,
        "cpu_model": _cpu_model(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def paired_timings(
    *workloads: Callable[[], object], rounds: int, iterations: int = 1
) -> List[List[float]]:
    """Per-round seconds per call of each workload, timed in alternating order.

    Every workload runs once untimed first (scratch buffers, caches).  Each
    round then times ``iterations`` calls of every workload back to back,
    in forward order on even rounds and reverse order on odd ones, so a
    slow spell of a shared host lands on every side of a ratio instead of
    on one workload's whole measurement.  Returns one list of ``rounds``
    samples per workload; round ``r`` of two lists is a timing pair.
    """
    for workload in workloads:
        workload()
    samples: List[List[float]] = [[] for _ in workloads]
    order = list(range(len(workloads)))
    for round_index in range(rounds):
        for side in order if round_index % 2 == 0 else order[::-1]:
            workload = workloads[side]
            started = time.perf_counter()
            for _ in range(iterations):
                workload()
            samples[side].append((time.perf_counter() - started) / iterations)
    return samples


def pair_ratio(
    numerator: Sequence[float], denominator: Sequence[float]
) -> Tuple[float, float]:
    """Median and interquartile range of the per-pair ratios of two sample lists."""
    ratios = np.asarray(numerator) / np.asarray(denominator)
    low, high = np.percentile(ratios, [25, 75])
    return float(np.median(ratios)), float(high - low)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def save_results(
    rows: Sequence[Dict],
    path: Path,
    metadata: Optional[Dict] = None,
    deterministic: bool = False,
) -> None:
    """Persist experiment rows (plus optional metadata) as JSON.

    ``deterministic=True`` fixes the serialization completely — sorted
    keys and floats rounded to 9 decimals — so rerunning an unchanged
    experiment rewrites the file byte-identically.  Campaign artifacts
    use it (together with stripping wall-clock fields, see
    :func:`repro.experiments.campaign.deterministic_rows`) to keep
    ``results/`` diffs meaningful: a changed byte means a changed
    measurement, never serialization noise.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if deterministic:
        rows = [
            {
                key: round(value, 9) if isinstance(value, float) else value
                for key, value in row.items()
            }
            for row in rows
        ]
    payload = {"rows": list(rows)}
    if metadata:
        payload["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=str, sort_keys=deterministic)


def load_results(path: Path) -> List[Dict]:
    """Load rows previously written by :func:`save_results`."""
    with open(Path(path), "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload.get("rows", [])
