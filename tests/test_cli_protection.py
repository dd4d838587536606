"""CLI tests for the protection subcommands (protect / scan / serve-demo)."""

from __future__ import annotations

import json
import re
import shlex
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.data.synthetic import make_tiny_dataset
from repro.models.training import TrainConfig
from repro.models.zoo import ZooEntry, register_setup


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    entry = ZooEntry(
        name="unit-cli-tiny",
        model_name="mlp",
        model_kwargs=(("input_dim", 3 * 8 * 8), ("num_classes", 4), ("hidden_dims", (32,))),
        dataset_builder=lambda: make_tiny_dataset(
            num_classes=4, image_size=8, train_size=256, test_size=128, seed=17
        ),
        train_config=TrainConfig(epochs=2, batch_size=64, lr=3e-3, optimizer="adam", seed=5),
    )
    register_setup(entry, overwrite=True)
    cache_dir = tmp_path_factory.mktemp("cli-protection-cache")
    import os

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield entry.name
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


class TestProtectCommand:
    def test_protect_reports_layers_and_plan(self, tiny_setup, tmp_path, capsys):
        output = tmp_path / "protect.json"
        code = main(
            [
                "protect",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "4",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "signature storage" in out
        assert "amortized scan plan" in out
        rows = json.loads(output.read_text())["rows"]
        assert all({"layer", "weights", "groups"} <= set(row) for row in rows)


    def test_protect_full_policy_plans_every_group_per_pass(
        self, tiny_setup, tmp_path, capsys
    ):
        output = tmp_path / "protect_full.json"
        code = main(
            [
                "protect",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "4",
                "--scan-policy", "full",
                "--output", str(output),
            ]
        )
        assert code == 0
        total = sum(row["groups"] for row in json.loads(output.read_text())["rows"])
        out = capsys.readouterr().out
        assert (
            f"4 shards, policy full, ~{total} groups/pass, "
            "full model verified within 1 passes"
        ) in out


class TestScanCommand:
    def test_clean_scan_completes_a_rotation(self, tiny_setup, capsys):
        code = main(
            ["scan", "--setup", tiny_setup, "--group-size", "16", "--num-shards", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "full-scan reference: 0 flagged groups" in out

    def test_injected_flips_are_reported(self, tiny_setup, tmp_path, capsys):
        output = tmp_path / "scan.json"
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "4",
                "--passes", "8",
                "--inject-flips", "4",
                "--inject-at-pass", "1",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attack injected before pass 2" in out
        rows = json.loads(output.read_text())["rows"]
        assert len(rows) == 8
        assert sum(row["flagged_groups"] for row in rows) > 0

    def test_scan_all_runs_the_fleet_engine(self, tiny_setup, tmp_path, capsys):
        output = tmp_path / "scan_all.json"
        code = main(
            [
                "scan",
                "--all",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "4",
                "--inject-flips", "4",
                "--inject-at-pass", "0",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet engine registry" in out
        assert "detected, recovered and re-signed at pass" in out
        rows = json.loads(output.read_text())["rows"]
        assert rows and all(row["model"] == tiny_setup for row in rows)
        assert sum(row["flagged_groups"] for row in rows) > 0
        assert rows[-1]["state"] == "protected"


class TestServeDemoCommand:
    def test_demo_detects_and_repairs_the_attacked_model(self, tmp_path, capsys):
        output = tmp_path / "serve.json"
        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--num-shards", "4",
                "--passes", "8",
                "--attack-at-pass", "2",
                "--num-flips", "4",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet engine registry" in out
        assert "detected and repaired at pass" in out
        rows = json.loads(output.read_text())["rows"]
        flagged = [row for row in rows if row["flagged_groups"] > 0]
        assert flagged and all(row["model"] == "model-0" for row in flagged)
        assert sum(row["recovered_weights"] for row in rows) > 0
        # The engine re-signs after recovery, so every model ends PROTECTED.
        assert all(row["state"] == "protected" for row in rows[-2:])

    def test_demo_with_priority_policy(self, capsys):
        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--num-shards", "3",
                "--passes", "6",
                "--scan-policy", "priority_exposure",
            ]
        )
        assert code == 0
        assert "Serving timeline" in capsys.readouterr().out

    def test_demo_prints_the_event_stream(self, capsys):
        code = main(
            [
                "serve-demo",
                "--models", "3",
                "--num-shards", "4",
                "--passes", "8",
                "--attack-at-pass", "1",
                "--num-flips", "4",
                "--events",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet event stream" in out
        # The lifecycle leaves a full detection -> recovery -> reprotect trail.
        assert "detection" in out and "recovery" in out and "reprotect" in out


class TestInjectionWindow:
    """An injection pass outside the run is a usage error, not a silent no-op."""

    @pytest.mark.parametrize("attack_at", ["9", "-1"])
    def test_serve_demo_rejects_attack_outside_the_passes(self, attack_at, capsys):
        code = main(
            ["serve-demo", "--models", "2", "--passes", "4", "--attack-at-pass", attack_at]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert (
            f"error: --attack-at-pass {attack_at} is outside the 4 scheduled passes"
            in captured.err
        )
        assert "Serving timeline" not in captured.out

    def test_scan_rejects_injection_outside_the_passes(self, tiny_setup, capsys):
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--passes", "3",
                "--inject-flips", "2",
                "--inject-at-pass", "3",
            ]
        )
        assert code == 2
        assert "--inject-at-pass 3 is outside the 3 scheduled passes" in (
            capsys.readouterr().err
        )


class TestServeDemoObservability:
    """--http-port on serve-demo."""

    def test_http_port_serves_every_stage_histogram(self, monkeypatch, capsys):
        # The demo closes its server before returning, so scrape from the
        # close call: by then every pass has ticked.
        from repro.core.fleet import TICK_STAGES
        from repro.telemetry.exposition import find_sample, parse_prometheus
        from repro.telemetry.httpd import ObservabilityServer

        scraped = []
        close = ObservabilityServer.close

        def scrape_then_close(server):
            if server.engine is not None:
                url = f"{server.url}/metrics"
                with urllib.request.urlopen(url, timeout=5.0) as reply:
                    scraped.append(reply.read().decode("utf-8"))
            close(server)

        monkeypatch.setattr(ObservabilityServer, "close", scrape_then_close)
        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--num-shards", "4",
                "--passes", "6",
                "--attack-at-pass", "2",
                "--num-flips", "4",
                "--http-port", "0",
            ]
        )
        assert code == 0
        assert "observability server listening on" in capsys.readouterr().out
        [body] = scraped
        parsed = parse_prometheus(body)
        for stage in TICK_STAGES:
            assert find_sample(parsed, "stage_duration_s_count", stage=stage) == 6.0

    def test_interrupted_linger_closes_the_server_and_exits_clean(
        self, monkeypatch, capsys
    ):
        import time

        from repro.telemetry.httpd import ObservabilityServer

        closed = []
        close = ObservabilityServer.close

        def record_close(server):
            closed.append(server.url)
            close(server)

        def interrupted_sleep(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(ObservabilityServer, "close", record_close)
        monkeypatch.setattr(time, "sleep", interrupted_sleep)
        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--num-shards", "4",
                "--passes", "4",
                "--http-port", "0",
                "--linger-s", "20",
            ]
        )
        assert code == 0
        assert len(closed) == 1
        assert "linger interrupted" in capsys.readouterr().out

    def test_http_port_announces_and_serves(self, tmp_path, capsys):
        # Port 0 binds an ephemeral port; the demo must announce it so a
        # scraper (or the smoke script) can find the surface.
        code = main(
            [
                "serve-demo",
                "--models", "2",
                "--num-shards", "4",
                "--passes", "4",
                "--http-port", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "observability server listening on http://127.0.0.1:" in out


class TestBudgetFlags:
    """--budget-ms on protect / scan / serve-demo."""

    def test_protect_with_budget_reports_the_priced_plan(self, tiny_setup, capsys):
        code = main(
            [
                "protect",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--budget-ms", "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "amortized scan plan" in out
        assert "latency budget: 0.0100 ms/pass" in out
        assert "priced per-pass cost" in out

    def test_scan_with_budget_stays_within_it(self, tiny_setup, tmp_path, capsys):
        output = tmp_path / "scan_budget.json"
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--budget-ms", "0.01",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "full-scan reference: 0 flagged groups" in out
        rows = json.loads(output.read_text())["rows"]
        assert rows, "a budgeted scan still runs a full rotation of passes"
        assert all(row["planned_cost_ms"] <= 0.01 for row in rows)
        assert rows[-1]["rotation_complete"]

    def test_scan_budget_overrides_num_shards(self, tiny_setup, tmp_path):
        output = tmp_path / "scan_budget_shards.json"
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "2",
                "--budget-ms", "0.01",
                "--output", str(output),
            ]
        )
        assert code == 0
        rows = json.loads(output.read_text())["rows"]
        # 2 shards of the ~392-group model would cost ~0.028 ms per pass;
        # the budget forces a finer slicing instead.
        assert len(rows) > 2

    def test_infeasible_budget_fails_with_clear_error(self, tiny_setup, capsys):
        with pytest.raises(Exception, match="cannot cover a single group"):
            main(
                [
                    "protect",
                    "--setup", tiny_setup,
                    "--group-size", "16",
                    "--budget-ms", "0.0000001",
                ]
            )

    def test_serve_demo_with_fleet_budget(self, tmp_path, capsys):
        output = tmp_path / "serve_budget.json"
        code = main(
            [
                "serve-demo",
                "--models", "3",
                "--num-shards", "4",
                "--passes", "10",
                "--attack-at-pass", "2",
                "--num-flips", "4",
                "--budget-ms", "0.03",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detected and repaired at pass" in out
        rows = json.loads(output.read_text())["rows"]
        assert all("budget_share_ms" in row for row in rows)
        # Shares per tick never exceed the fleet budget.
        by_tick = {}
        for row in rows:
            by_tick.setdefault(row["pass"], 0.0)
            by_tick[row["pass"]] += row["budget_share_ms"]
        assert all(total <= 0.03 + 1e-9 for total in by_tick.values())


class TestStateDirPersistence:
    def test_scan_resumes_calibration(self, tiny_setup, tmp_path, capsys):
        state_dir = tmp_path / "state"
        # First scan starts from the analytic prior and persists observations.
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "3",
                "--state-dir", str(state_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "calibration persisted" in out
        assert (state_dir / "calibration.json").exists()

        # Second scan resumes warm: observed passes are already on record.
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--num-shards", "3",
                "--state-dir", str(state_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed calibration" in out
        assert "observed passes" in out

    def test_scan_all_state_dir_persists_measured_pricing(self, tiny_setup, tmp_path, capsys):
        state_dir = tmp_path / "fleet"
        args = [
            "scan", "--all",
            "--setup", tiny_setup,
            "--group-size", "16",
            "--num-shards", "4",
            "--passes", "4",
            "--state-dir", str(state_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cold start" in out
        state = json.loads((state_dir / "engine_state.json").read_text())
        saved = state["models"][tiny_setup]["cost_model"]
        assert saved["type"] == "measured"
        assert saved["observations"] >= 4
        # Restart resumes the calibrated pricing.
        assert main(args) == 0
        assert "calibrated pricing" in capsys.readouterr().out

    def test_serve_demo_restart_resumes_warm(self, tmp_path, capsys):
        state_dir = tmp_path / "fleet-state"
        args = [
            "serve-demo",
            "--models", "2",
            "--passes", "6",
            "--num-shards", "4",
            "--state-dir", str(state_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cold start" in out
        assert "engine state persisted" in out
        assert (state_dir / "engine_state.json").exists()

        # The "restarted" service resumes with its calibrated cost models:
        # no cold-start re-calibration from the analytic prior.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed warm" in out
        assert "calibrated pricing" in out

        state = json.loads((state_dir / "engine_state.json").read_text())
        for saved in state["models"].values():
            assert saved["cost_model"]["type"] == "measured"
            # Two runs of 6 passes each have been folded into the EWMA.
            assert saved["cost_model"]["observations"] >= 12

    def test_serve_demo_refuses_pricing_from_another_grouping(self, tmp_path, capsys):
        state_dir = tmp_path / "regrouped"
        base = [
            "serve-demo", "--models", "2", "--passes", "4", "--attack-at-pass", "1",
            "--state-dir", str(state_dir),
        ]
        assert main(base + ["--group-size", "16"]) == 0
        capsys.readouterr()
        # A per-group price learned at G=16 would misprice G=32 groups.
        assert main(base + ["--group-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "resumed warm" in out
        assert "calibrated pricing for" not in out
        assert "pricing fingerprint changed" in out
        state = json.loads((state_dir / "engine_state.json").read_text())
        for saved in state["models"].values():
            assert saved["config"]["group_size"] == 32
            assert saved["cost_model"]["observations"] == 4

    def test_protect_has_no_state_dir(self, tiny_setup, tmp_path):
        with pytest.raises(SystemExit):
            main(["protect", "--setup", tiny_setup, "--state-dir", str(tmp_path)])

    def test_infer_demo_state_roundtrip(self, capsys, tmp_path):
        state_dir = tmp_path / "state"
        args = [
            "infer-demo",
            "--batches", "8",
            "--batch-size", "4",
            "--state-dir", str(state_dir),
        ]
        assert main(args) == 0
        assert "cold start" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed calibration" in out


class TestSeedFlag:
    """``--seed`` makes a run reproducible and picks the injected flips."""

    @staticmethod
    def _rows(capsys, tmp_path, argv, seed):
        output = tmp_path / f"seed-{seed}-{len(list(tmp_path.iterdir()))}.json"
        assert main([*argv, "--seed", str(seed), "--output", str(output)]) == 0
        capsys.readouterr()
        return json.loads(output.read_text())["rows"]

    def test_scan_seed(self, tiny_setup, tmp_path, capsys):
        argv = [
            "scan",
            "--setup", tiny_setup,
            "--group-size", "16",
            "--num-shards", "4",
            "--passes", "4",
            "--inject-flips", "6",
            "--inject-at-pass", "0",
        ]
        first = self._rows(capsys, tmp_path, argv, 3)
        assert self._rows(capsys, tmp_path, argv, 3) == first
        other = self._rows(capsys, tmp_path, argv, 4)
        assert [row["flagged_groups"] for row in other] != [
            row["flagged_groups"] for row in first
        ]

    def test_serve_demo_seed(self, tmp_path, capsys):
        argv = [
            "serve-demo",
            "--models", "2",
            "--num-shards", "4",
            "--passes", "4",
            "--attack-at-pass", "1",
            "--num-flips", "6",
        ]
        first = self._rows(capsys, tmp_path, argv, 3)
        assert self._rows(capsys, tmp_path, argv, 3) == first
        other = self._rows(capsys, tmp_path, argv, 4)
        flips = [(row["flagged_groups"], row["recovered_weights"]) for row in first]
        assert [
            (row["flagged_groups"], row["recovered_weights"]) for row in other
        ] != flips

    def test_infer_demo_seed(self, tmp_path, capsys):
        # infer-demo injects nothing; its check timings and the cadence
        # they calibrate are wall-clock, so only the seeded fields compare.
        argv = ["infer-demo", "--batches", "6", "--batch-size", "4"]
        seeded = ("batches", "detections", "warm_start")
        first = self._rows(capsys, tmp_path, argv, 3)
        again = self._rows(capsys, tmp_path, argv, 3)
        assert [{key: row[key] for key in seeded} for row in again] == [
            {key: row[key] for key in seeded} for row in first
        ]
        assert first[0]["detections"] == 0


class TestSlaReportCommand:
    def test_sla_report_prints_percentiles(self, tmp_path, capsys):
        output = tmp_path / "sla.json"
        code = main(
            [
                "sla-report",
                "--scenario", "random-burst",
                "--scenario", "random-trickle",
                "--scenario", "pbfa-burst",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p50_detection_ticks" in out
        assert "p99_detection_ms" in out
        assert "all injections detected" in out
        rows = json.loads(output.read_text())["rows"]
        assert {row["scenario"] for row in rows} == {
            "random-burst", "random-trickle", "pbfa-burst"
        }
        for row in rows:
            assert row["missed"] == 0
            assert row["p99_detection_ticks"] == row["p99_detection_ticks"]  # finite

    def test_seed_fixes_the_injections(self, tmp_path, capsys):
        """Same ``--seed``: identical tick-space rows; another seed moves the flips."""
        from repro.experiments.campaign import deterministic_rows

        def report(seed, name):
            output = tmp_path / name
            argv = ["sla-report", "--scenario", "random-burst", "--scenario",
                    "random-trickle", "--seed", str(seed), "--output", str(output)]
            assert main(argv) == 0
            return deterministic_rows(json.loads(output.read_text())["rows"])

        first, again, other = report(0, "a.json"), report(0, "b.json"), report(1, "c.json")
        capsys.readouterr()
        assert first == again
        assert [row["injections"] for row in other] == [row["injections"] for row in first]
        # The flips land elsewhere, so the rotation reaches them after other lags.
        assert [row["mean_detection_ticks"] for row in other] != [
            row["mean_detection_ticks"] for row in first
        ]

    def test_unknown_scenario_is_an_error(self, capsys):
        code = main(["sla-report", "--scenario", "no-such-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestFlagCoverage:
    """Flags no other test drives, and the README's documented invocations."""

    def test_overhead_amortized_with_hamming(self, capsys):
        assert main(["overhead", "--amortized", "--include-hamming"]) == 0
        out = capsys.readouterr().out
        assert "Hamming-SECDED" in out
        assert "Table IV (amortized)" in out

    def test_sla_report_matrix_smoke(self, tmp_path, capsys):
        output = tmp_path / "matrix.json"
        assert main(["sla-report", "--matrix", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "Campaign matrix (smoke" in out
        assert "within their declared bounds" in out
        rows = json.loads(output.read_text())["rows"]
        assert rows and all(row["missed"] == 0 for row in rows)

    def test_scan_with_every_grouping_and_rotation_flag(self, tiny_setup, tmp_path, capsys):
        output = tmp_path / "scan_flags.json"
        code = main(
            [
                "scan",
                "--setup", tiny_setup,
                "--group-size", "16",
                "--no-interleave",
                "--no-masking",
                "--signature-bits", "3",
                "--num-shards", "4",
                "--shards-per-pass", "2",
                "--scan-policy", "jittered",
                "--passes", "4",
                "--inject-flips", "3",
                "--inject-at-pass", "0",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attack injected before pass 1" in out
        rows = json.loads(output.read_text())["rows"]
        assert len(rows) == 4
        assert all(len(row["shards"].split(",")) == 2 for row in rows)
        assert sum(row["flagged_groups"] for row in rows) > 0

    def test_every_readme_invocation_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        joined = readme.replace("\\\n", " ")
        invocations = re.findall(r"python -m repro\.cli ([a-z][^`#\n]*)", joined)
        assert len(invocations) >= 10
        parser = build_parser()
        for invocation in invocations:
            try:
                parser.parse_args(shlex.split(invocation))
            except SystemExit:
                pytest.fail(f"README invocation does not parse: {invocation!r}")
