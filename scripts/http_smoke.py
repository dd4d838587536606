#!/usr/bin/env python
"""End-to-end smoke test of the observability HTTP surface.

Launches ``repro-radar serve-demo`` as a real subprocess (an attacked,
budgeted fleet whose ticks run inline) with an ephemeral ``--http-port``,
then — while the demo lingers — exercises the surface the way a scraper
would:

1. poll ``/healthz`` until it answers 200 with ``status: ok``;
2. fetch ``/metrics`` and parse it with the repo's *strict* Prometheus
   text-format 0.0.4 parser (:func:`repro.telemetry.exposition.parse_prometheus`);
3. assert the metric families the dashboards key on are present:
   detection latency, budget utilization, tick duration, the per-stage
   tick timings, the tick counter and the lifecycle event counter;
4. assert ``stage_duration_s`` carries a series for every tick stage
   (``plan``, ``assemble``, ``kernel``, ``verdict``, ``lifecycle``);
5. wait for the demo to exit cleanly.

Exit status 0 on success; any failure prints the reason and exits 1.
Used by the ``observability-smoke`` CI job; runs locally the same way:

    python scripts/http_smoke.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.exposition import parse_prometheus  # noqa: E402

#: Metric families that must be present and parseable on /metrics.
REQUIRED_FAMILIES = (
    "detection_latency_s",
    "budget_utilization",
    "tick_duration_s",
    "stage_duration_s",
    "ticks_total",
    "fleet_events_total",
)

#: The ``stage`` labels ``stage_duration_s`` must carry (the engine's
#: ``TICK_STAGES``, spelled out so a renamed stage fails the smoke).
REQUIRED_STAGES = ("plan", "assemble", "kernel", "verdict", "lifecycle")

LINGER_S = 20.0


def fail(reason: str) -> None:
    print(f"SMOKE FAILED: {reason}", file=sys.stderr)
    sys.exit(1)


def fetch(url: str, timeout_s: float = 5.0) -> tuple:
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return response.status, response.read().decode("utf-8")


def poll(url: str, deadline_s: float, what: str) -> str:
    last_error = "no attempt"
    while time.monotonic() < deadline_s:
        try:
            status, body = fetch(url)
            if status == 200:
                return body
            last_error = f"HTTP {status}"
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            last_error = str(error)
        time.sleep(0.2)
    fail(f"{what} never became ready: {last_error}")


def main() -> int:
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve-demo",
        "--models",
        "3",
        "--passes",
        "24",
        "--budget-ms",
        "2.0",
        "--http-port",
        "0",
        "--linger-s",
        f"{LINGER_S:g}",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))
        if part
    )
    print("launching:", " ".join(command))
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    try:
        # The demo prints the ephemeral port before the first pass.
        url = None
        launch_deadline = time.monotonic() + 60.0
        for line in process.stdout:
            print(f"  demo | {line.rstrip()}")
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                url = match.group(1)
                break
            if time.monotonic() > launch_deadline:
                break
        if url is None:
            fail("serve-demo never announced its observability URL")
        # Don't let the demo block on a full stdout pipe while we scrape.
        deadline = time.monotonic() + 60.0
        poll(f"{url}/healthz", deadline, "/healthz")
        print("healthz: ok")

        # Detection latency appears once the attack is caught; poll until
        # the full family set is scrapeable.
        parsed = None
        missing = list(REQUIRED_FAMILIES)
        while time.monotonic() < deadline:
            body = poll(f"{url}/metrics", deadline, "/metrics")
            if not body:
                # An empty registry renders an empty exposition; the demo
                # has not finished its first tick yet.
                time.sleep(0.3)
                continue
            parsed = parse_prometheus(body)
            missing = [
                family
                for family in REQUIRED_FAMILIES
                if family not in parsed["families"]
            ]
            if not missing:
                break
            time.sleep(0.3)
        if parsed is None:
            fail("/metrics never served a non-empty exposition")
        if missing:
            fail(f"/metrics is missing families: {missing}")
        stages = {
            sample["labels"].get("stage")
            for sample in parsed["samples"]
            if sample["name"] == "stage_duration_s_count"
        }
        missing_stages = [stage for stage in REQUIRED_STAGES if stage not in stages]
        if missing_stages:
            fail(f"stage_duration_s has no series for stages {missing_stages}")
        print(
            f"metrics: strict parse ok, {len(parsed['families'])} families, "
            f"all {len(REQUIRED_FAMILIES)} required present, "
            f"stage_duration_s for all {len(REQUIRED_STAGES)} stages"
        )

        remainder = process.communicate(timeout=LINGER_S + 60.0)[0]
        for line in remainder.splitlines():
            print(f"  demo | {line}")
        if process.returncode != 0:
            fail(f"serve-demo exited with {process.returncode}")
        print("exit: clean")
        print("SMOKE PASSED")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)


if __name__ == "__main__":
    sys.exit(main())
