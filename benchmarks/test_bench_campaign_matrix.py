"""EXP-CAMPAIGN-MATRIX — the adversary × cadence × defense matrix.

Not a paper artifact: this is the adaptive-threat acceptance study behind
the jittered planner (:class:`repro.core.planner.JitteredPlanner`).  The
deterministic smoke subset (:func:`repro.experiments.campaign.smoke_matrix`)
runs schedule-aware adversaries (:mod:`repro.attacks.adaptive`) against
fixed and randomized scan rotations and asserts the two headline margins
at every cadence that holds the cells:

* **the exploit is real** — the rotation tracker's mean detection latency
  against the fixed round-robin rotation is strictly worse than a
  schedule-blind random attacker's, and its p99 *saturates* the
  scheduler's declared worst-case bound (the attacker owns the bound);
* **the defense restores slack** — under the jittered planner every cell's
  p99 stays finite and at or under its (doubled) declared bound, the
  tracker's p99 lands strictly *inside* it, and the matched-bound dense
  variant holds the original bound outright.

The artifact is written only after the margins hold;
``results/campaign_matrix.json`` is the committed artifact (wall-clock
fields stripped so reruns are byte-identical), and
``scripts/check_perf_regression.py`` requires a fresh run's rows to equal
it.  The full offline sweep is ``repro-radar sla-report --matrix --full``.
"""

from __future__ import annotations

import math

import pytest

from benchmarks.conftest import emit, save
from repro.experiments.campaign import (
    deterministic_rows,
    matrix_summary,
    run_matrix,
    smoke_matrix,
)


@pytest.mark.benchmark(group="campaign-matrix")
def test_matrix_pins_adaptive_margins(benchmark):
    cells = smoke_matrix()
    rows = run_matrix(cells, seed=0)
    emit(
        "Campaign matrix (smoke) — adversary × cadence × defense detection "
        "latency with declared worst-case bounds",
        deterministic_rows(rows),
    )

    assert len(rows) == len(cells), "every cell must produce exactly one SLA row"
    by_cell = {(row["adversary"], row["cadence"], row["defense"]): row for row in rows}
    for row in rows:
        case = row["case"]
        assert row["missed"] == 0, f"{case}: injections went undetected"
        assert row["injections"] >= 1, f"{case}: cell never attacked"
        assert math.isfinite(row["p99_detection_ticks"]), (
            f"{case}: p99 detection latency is not finite"
        )
        bound = row["p99_bound_ticks"]
        if bound is not None:
            assert row["p99_detection_ticks"] <= bound, (
                f"{case}: p99 {row['p99_detection_ticks']} exceeds the "
                f"declared worst-case bound {bound}"
            )

    # The exploit: strictly worse than blind, saturating the bound.  The
    # defense: strict slack inside the jittered bound, and a strictly
    # smaller bound fraction than the fixed rotation forfeits (1.0).
    for cadence in sorted({row["cadence"] for row in rows}):
        random_fixed = by_cell.get(("random", cadence, "fixed-rr"))
        tracker_fixed = by_cell.get(("rotation", cadence, "fixed-rr"))
        tracker_jittered = by_cell.get(("rotation", cadence, "jittered"))
        if tracker_fixed and random_fixed:
            assert (
                tracker_fixed["mean_detection_ticks"]
                > random_fixed["mean_detection_ticks"]
            ), f"{cadence}: the rotation tracker no longer beats a blind attacker"
        if tracker_fixed:
            assert (
                tracker_fixed["p99_detection_ticks"] == tracker_fixed["p99_bound_ticks"]
            ), f"{cadence}: the rotation tracker no longer saturates the fixed bound"
        if tracker_jittered:
            jittered_fraction = (
                tracker_jittered["p99_detection_ticks"]
                / tracker_jittered["p99_bound_ticks"]
            )
            assert jittered_fraction < 1.0, (
                f"{cadence}: the jittered planner no longer holds slack"
            )
            if tracker_fixed:
                assert jittered_fraction < (
                    tracker_fixed["p99_detection_ticks"]
                    / tracker_fixed["p99_bound_ticks"]
                )

    trickle = "trickle@3+6x4"
    tracker_fixed = by_cell[("rotation", trickle, "fixed-rr")]
    tracker_dense = by_cell[("rotation", trickle, "jittered-dense")]
    oracle_jittered = by_cell[("oracle", trickle, "jittered")]
    assert ("random", trickle, "fixed-rr") in by_cell
    assert ("rotation", trickle, "jittered") in by_cell
    # Matched-bound deployment: same declared bound as fixed-rr, yet the
    # tracker can no longer saturate it.
    assert tracker_dense["p99_bound_ticks"] == tracker_fixed["p99_bound_ticks"]
    assert tracker_dense["p99_detection_ticks"] < tracker_dense["p99_bound_ticks"]
    # Even total planner knowledge stays within the declared bound.
    assert oracle_jittered["p99_detection_ticks"] <= oracle_jittered["p99_bound_ticks"]

    summary = matrix_summary(rows)
    assert summary, "matrix_summary must digest the smoke cells"
    print()
    for entry in summary:
        print(entry)

    # Register one representative cell with pytest-benchmark for trends.
    benchmark.pedantic(
        lambda: run_matrix([cells[2]], seed=1), rounds=3, iterations=1
    )
    save(deterministic_rows(rows), "campaign_matrix.json", deterministic=True)
