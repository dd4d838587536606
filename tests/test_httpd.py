"""The observability HTTP surface, exercised over real sockets.

Every test binds an ephemeral port on loopback and scrapes with urllib —
the same path a Prometheus server or load balancer takes.  The server is
read-only by design, so the contract under test is purely "what does each
route answer, with what status, in what format".
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import RadarConfig, VerificationEngine
from repro.core.fleet import TICK_STAGES
from repro.errors import ProtectionError
from repro.models.small import MLP
from repro.quant.layers import quantize_model, quantized_layers
from repro.telemetry.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    find_sample,
    parse_prometheus,
)
from repro.telemetry.httpd import ObservabilityServer
from repro.telemetry.metrics import MetricRegistry
from repro.telemetry.monitor import FleetTelemetry


def _small_model(seed: int) -> MLP:
    model = MLP(input_dim=48, num_classes=4, hidden_dims=(24,), seed=seed)
    quantize_model(model)
    return model


def _get(url: str):
    """(status, content_type, body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read().decode(
            "utf-8"
        )


class TestRegistryOnlyServer:
    def test_metrics_round_trip_and_content_type(self):
        registry = MetricRegistry()
        registry.counter("scrapes").inc(2)
        with ObservabilityServer(registry=registry) as server:
            status, content_type, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert find_sample(parse_prometheus(body), "scrapes_total") == 2.0

    def test_engine_routes_answer_503_without_an_engine(self):
        with ObservabilityServer(registry=MetricRegistry()) as server:
            health_status, _, health_body = _get(f"{server.url}/healthz")
        assert health_status == 503
        assert json.loads(health_body)["status"] == "no-engine"

    def test_trace_is_404(self):
        with ObservabilityServer(registry=MetricRegistry()) as server:
            status, _, body = _get(f"{server.url}/trace")
        assert status == 404
        assert "unknown path" in json.loads(body)["error"]

    def test_unknown_path_is_404(self):
        with ObservabilityServer(registry=MetricRegistry()) as server:
            status, _, body = _get(f"{server.url}/does-not-exist")
        assert status == 404
        assert "unknown path" in json.loads(body)["error"]

    def test_something_must_be_attached(self):
        with pytest.raises(ProtectionError):
            ObservabilityServer()


class TestEngineBackedServer:
    @pytest.fixture()
    def engine(self):
        engine = VerificationEngine(RadarConfig(group_size=8), num_shards=4)
        engine.register("m0", _small_model(1))
        engine.register("m1", _small_model(2))
        return engine

    def test_healthz_reports_tick_and_models(self, engine):
        telemetry = FleetTelemetry().attach(engine)
        engine.tick()
        with ObservabilityServer(telemetry=telemetry, engine=engine) as server:
            status, _, body = _get(f"{server.url}/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["tick"] == engine.tick_index
        assert payload["models"] == 2

    def test_metrics_track_engine_ticks(self, engine):
        telemetry = FleetTelemetry().attach(engine)
        for _ in range(3):
            engine.tick()
        with ObservabilityServer(telemetry=telemetry, engine=engine) as server:
            _, _, body = _get(f"{server.url}/metrics")
        parsed = parse_prometheus(body)
        assert find_sample(parsed, "ticks_total") == 3.0
        assert parsed["families"]["tick_duration_s"] == "summary"

    def test_metrics_serve_every_tick_stage(self, engine):
        telemetry = FleetTelemetry().attach(engine)
        engine.tick()
        with ObservabilityServer(telemetry=telemetry, engine=engine) as server:
            _, _, body = _get(f"{server.url}/metrics")
        parsed = parse_prometheus(body)
        assert parsed["families"]["stage_duration_s"] == "summary"
        for stage in TICK_STAGES:
            assert find_sample(parsed, "stage_duration_s_count", stage=stage) == 1.0
            assert find_sample(parsed, "stage_duration_s_sum", stage=stage) >= 0.0


class TestLifecycle:
    def test_close_is_idempotent_and_stops_serving(self):
        server = ObservabilityServer(registry=MetricRegistry()).start()
        url = server.url
        status, _, _ = _get(f"{url}/metrics")
        assert status == 200
        server.close()
        server.close()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(f"{url}/metrics", timeout=1.0)

    def test_close_before_start_releases_the_socket(self):
        server = ObservabilityServer(registry=MetricRegistry())
        server.close()  # never started: must still release the bind

    def test_start_is_idempotent(self):
        with ObservabilityServer(registry=MetricRegistry()) as server:
            assert server.start() is server
            status, _, _ = _get(f"{server.url}/metrics")
            assert status == 200

    def test_ephemeral_port_is_real(self):
        with ObservabilityServer(registry=MetricRegistry()) as server:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
