"""Tests for :mod:`repro.attacks.scripted` and :mod:`repro.experiments.campaign`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    AttackCadence,
    PbfaAdversary,
    RandomFlipAdversary,
)
from repro.data.synthetic import make_tiny_dataset
from repro.errors import AttackError, ConfigurationError
from repro.experiments.campaign import (
    ADVERSARY_KINDS,
    CampaignScenario,
    DefenseConfig,
    MatrixCell,
    build_adversary,
    default_defenses,
    default_scenarios,
    deterministic_rows,
    full_matrix,
    matrix_summary,
    run_campaign,
    run_matrix,
    run_scenario,
    smoke_matrix,
)
from repro.experiments.reporting import save_results
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers


@pytest.fixture(scope="module")
def attack_batch():
    train, _ = make_tiny_dataset(
        num_classes=4, image_size=8, train_size=64, test_size=16, seed=3
    )
    return train.images, train.labels


def _quantized_mlp(seed=0, input_dim=192):
    model = MLP(input_dim=input_dim, num_classes=4, hidden_dims=(32, 16), seed=seed)
    quantize_model(model)
    return model


class TestAttackCadence:
    def test_burst_fires_once(self):
        cadence = AttackCadence.burst(3)
        assert [tick for tick in range(8) if cadence.fires_at(tick)] == [3]
        assert cadence.last_tick == 3

    def test_trickle_fires_on_interval(self):
        cadence = AttackCadence.trickle(start_tick=1, interval=3, salvos=3)
        assert [tick for tick in range(12) if cadence.fires_at(tick)] == [1, 4, 7]
        assert cadence.last_tick == 7

    def test_validation(self):
        with pytest.raises(AttackError):
            AttackCadence(start_tick=-1)
        with pytest.raises(AttackError):
            AttackCadence(interval=0)
        with pytest.raises(AttackError):
            AttackCadence(salvos=0)


class TestScriptedAdversaries:
    def test_random_adversary_fires_per_cadence(self):
        model = _quantized_mlp()
        adversary = RandomFlipAdversary(
            AttackCadence.trickle(start_tick=0, interval=2, salvos=2), num_flips=3
        )
        profiles = []
        for tick in range(6):
            profile = adversary.maybe_attack(model, tick, "m")
            if profile is not None:
                profiles.append((tick, profile))
        assert [tick for tick, _ in profiles] == [0, 2]
        assert adversary.salvos_fired == 2
        assert all(len(profile) == 3 for _, profile in profiles)

    def test_salvo_seeds_differ_across_trickle_rounds(self):
        model = _quantized_mlp()
        adversary = RandomFlipAdversary(
            AttackCadence.trickle(start_tick=0, interval=1, salvos=2), num_flips=2
        )
        first = adversary.maybe_attack(model, 0, "m")
        second = adversary.maybe_attack(model, 1, "m")
        flips = lambda profile: {
            (flip.layer_name, flip.flat_index) for flip in profile
        }
        assert flips(first) != flips(second)

    def test_pbfa_adversary_mounts_msb_flips(self, attack_batch):
        images, labels = attack_batch
        model = _quantized_mlp(input_dim=images[0].size)
        adversary = PbfaAdversary(
            AttackCadence.burst(0), images, labels, num_flips=2
        )
        profile = adversary.maybe_attack(model, 0, "m")
        assert len(profile) == 2

    def test_data_driven_adversary_requires_batch(self):
        with pytest.raises(AttackError):
            PbfaAdversary(
                AttackCadence.burst(0), np.empty((0, 4)), np.empty((0,), dtype=np.int64)
            )


class TestCampaignScenarios:
    def test_defaults_are_scenario_diverse(self):
        scenarios = default_scenarios()
        assert len(scenarios) >= 3
        kinds = {scenario.kind for scenario in scenarios}
        assert {"random", "pbfa"} <= kinds
        cadences = {scenario.cadence.salvos > 1 for scenario in scenarios}
        assert cadences == {True, False}  # both burst and trickle present
        # The low-bit scenario deploys the paper's 3-bit defense.
        lowbit = [s for s in scenarios if s.kind == "low-bit"]
        assert lowbit and all(s.signature_bits == 3 for s in lowbit)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignScenario(name="x", kind="nope", cadence=AttackCadence.burst(0))

    def test_build_adversary_covers_every_kind(self, attack_batch):
        images, labels = attack_batch
        for scenario in default_scenarios():
            adversary = build_adversary(scenario, images, labels, seed=0)
            assert adversary.kind == scenario.kind


class TestRunScenario:
    def test_burst_scenario_detects_with_finite_latency(self, attack_batch):
        images, labels = attack_batch
        scenario = CampaignScenario(
            name="unit-burst", kind="random", cadence=AttackCadence.burst(1),
            num_flips=5,
        )
        rows, telemetry = run_scenario(scenario, images, labels, seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "model-0"
        assert row["missed"] == 0
        assert row["injections"] == 1
        assert np.isfinite(row["p99_detection_ticks"])
        assert np.isfinite(row["p99_detection_ms"])
        assert row["p99_detection_ticks"] >= 1
        # Telemetry was detached from the (closed) engine.
        assert telemetry.engine is None

    def test_window_covers_trickle_plus_rotation(self, attack_batch):
        images, labels = attack_batch
        scenario = CampaignScenario(
            name="unit-trickle", kind="random",
            cadence=AttackCadence.trickle(start_tick=1, interval=2, salvos=3),
            num_flips=2,
        )
        rows, _ = run_scenario(scenario, images, labels, num_shards=4, seed=1)
        row = rows[0]
        assert row["salvos"] == 3
        assert row["injections"] == 3
        assert row["missed"] == 0
        # last salvo at tick 5, +1, + rotation lag (4) + margin (2)
        assert row["passes"] == 5 + 1 + 4 + 2

    def test_budgeted_scenario_reports_utilization(self, attack_batch):
        images, labels = attack_batch
        scenario = CampaignScenario(
            name="unit-budget", kind="random", cadence=AttackCadence.burst(1),
            num_flips=4,
        )
        # A generous budget that stays feasible after measured calibration.
        rows, _ = run_scenario(scenario, images, labels, budget_s=0.5, seed=2)
        assert "mean_budget_utilization" in rows[0]


class TestRunCampaign:
    def test_default_campaign_meets_the_sla_gate(self):
        rows = run_campaign(seed=0)
        assert len(rows) == len(default_scenarios())
        for row in rows:
            assert row["missed"] == 0, row["case"]
            assert np.isfinite(row["p99_detection_ticks"]), row["case"]
            assert np.isfinite(row["p99_detection_ms"]), row["case"]
            assert np.isfinite(row["mean_reprotect_ms"]), row["case"]
            assert 0 < row["mean_stacking_fill"] <= 1

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(scenarios=())


class TestMatrixConfiguration:
    def test_smoke_matrix_is_fixed_and_story_complete(self):
        cells = smoke_matrix()
        ids = [cell.case_id for cell in cells]
        assert len(ids) == len(set(ids)), "cell ids must be unique"
        # The committed artifact needs the comparison cells the gate pins.
        assert "random|trickle@3+6x4|fixed-rr" in ids
        assert "rotation|trickle@3+6x4|fixed-rr" in ids
        assert "rotation|trickle@3+6x4|jittered" in ids
        assert any(cell.defense.budget_ms is not None for cell in cells)
        assert any(cell.adversary == "oracle" for cell in cells)

    def test_full_matrix_is_exhaustive(self):
        cells = full_matrix()
        kinds = {cell.adversary for cell in cells}
        assert kinds == set(ADVERSARY_KINDS)
        defenses = {cell.defense.name for cell in cells}
        assert {"fixed-rr", "jittered", "jittered-dense"} <= defenses
        cadences = {cell.cadence.salvos > 1 for cell in cells}
        assert cadences == {True, False}

    def test_defense_validation(self):
        with pytest.raises(ConfigurationError):
            DefenseConfig(name="")
        with pytest.raises(ConfigurationError):
            MatrixCell(
                adversary="nope",
                cadence=AttackCadence.burst(0),
                defense=default_defenses()[0],
            )

    def test_duplicate_cells_rejected(self, attack_batch):
        cell = smoke_matrix()[0]
        with pytest.raises(ConfigurationError):
            run_matrix([cell, cell])

    def test_build_adversary_covers_adaptive_kinds(self, attack_batch):
        images, labels = attack_batch
        for kind in ("rotation", "budget", "oracle"):
            cell = MatrixCell(
                adversary=kind,
                cadence=AttackCadence.burst(2),
                defense=default_defenses()[0],
            )
            adversary = build_adversary(cell, images, labels, seed=0)
            assert adversary.kind == kind


class TestMatrixRows:
    def test_matrix_rows_carry_gate_fields_and_bounds(self, attack_batch):
        images, labels = attack_batch
        cells = smoke_matrix()[:4]
        rows = run_matrix(cells, seed=0)
        assert len(rows) == len(cells)
        for row in rows:
            for field in (
                "case", "scenario", "model", "kind", "adversary", "defense",
                "cadence", "signature_bits", "num_models", "num_shards",
                "policy", "passes", "mean_detection_ticks", "p99_bound_ticks",
            ):
                assert field in row, f"{row['case']}: missing {field}"
            assert row["missed"] == 0
            bound = row["p99_bound_ticks"]
            if bound is not None:
                assert row["p99_detection_ticks"] <= bound

    def test_matrix_summary_reports_the_adaptive_gap(self):
        rows = run_matrix(smoke_matrix(), seed=0)
        summary = matrix_summary(rows)
        trickle = [s for s in summary if s["cadence"] == "trickle@3+6x4"]
        assert trickle
        entry = trickle[0]
        assert entry["exploit_mean_ratio"] > 1
        assert entry["tracker_bound_saturation_fixed"] == 1.0
        assert (
            entry["tracker_bound_saturation_jittered"]
            < entry["tracker_bound_saturation_fixed"]
        )

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            run_matrix([])


class TestDeterministicArtifacts:
    def test_deterministic_rows_strip_wall_clock_fields(self):
        rows = deterministic_rows(
            [
                {
                    "case": "x",
                    "p99_detection_ticks": 4.0,
                    "p99_detection_ms": 1.23,
                    "mean_budget_utilization": 0.5,
                    "budget_ms": 0.02,
                    "mean_stacking_fill": 1 / 3,
                }
            ]
        )
        (row,) = rows
        assert "p99_detection_ms" not in row
        assert "mean_budget_utilization" not in row
        assert row["budget_ms"] == 0.02  # configuration survives
        assert row["mean_stacking_fill"] == round(1 / 3, 9)

    def test_matrix_artifact_is_byte_identical_across_reruns(
        self, attack_batch, tmp_path
    ):
        cells = smoke_matrix()[:3]
        paths = []
        for attempt in range(2):
            rows = deterministic_rows(run_matrix(cells, seed=0))
            path = tmp_path / f"matrix_{attempt}.json"
            save_results(rows, path, deterministic=True)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
