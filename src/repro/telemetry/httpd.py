"""Observability HTTP surface: ``/metrics`` and ``/healthz``.

A deliberately small stdlib server — the forerunner of the ROADMAP's full
HTTP control plane (register/scan/reprotect will land there, not here).
This layer is *read-only*: nothing a scraper does can mutate the engine,
so the server thread needs no locking beyond what the registry's own
atomic primitives already give (counters and gauges are single writes;
histogram windows tolerate torn reads by construction — a scrape races a
tick at worst into an off-by-one-sample quantile).

Routes:

* ``/metrics`` — the attached :class:`~repro.telemetry.metrics.MetricRegistry`
  rendered as Prometheus text format 0.0.4
  (:func:`~repro.telemetry.exposition.render_prometheus`);
* ``/healthz`` — JSON liveness: engine presence, tick index and model
  count.  ``200`` while an engine is attached, ``503`` after
  :meth:`ObservabilityServer.close` detaches it — so a rolling restart's
  load balancer sees the drain.

Where a tick's time went is on ``/metrics`` too: the engine's per-stage
timings render as the ``stage_duration_s{stage=...}`` summaries.

The server binds ``127.0.0.1`` by default and port ``0`` picks an
ephemeral port (tests; ``serve-demo --http-port 0`` prints the choice).
``ThreadingHTTPServer`` with daemon threads keeps a slow scraper from
wedging shutdown.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import ProtectionError
from repro.telemetry.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus


class _Handler(BaseHTTPRequestHandler):
    # The default handler logs every request to stderr; a scraper polling
    # /metrics every few seconds would bury the demo's own output.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, status: int, payload: object) -> None:
        self._reply(
            status,
            "application/json; charset=utf-8",
            json.dumps(payload, sort_keys=True).encode("utf-8"),
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        owner: "ObservabilityServer" = self.server.owner  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                registry = owner.registry
                if registry is None:
                    self._reply_json(503, {"error": "no metric registry attached"})
                    return
                self._reply(
                    200,
                    PROMETHEUS_CONTENT_TYPE,
                    render_prometheus(registry).encode("utf-8"),
                )
            elif path == "/healthz":
                self._reply_json(*owner.health())
            else:
                self._reply_json(404, {"error": f"unknown path {path}"})
        except Exception as error:  # surface, don't kill the serving thread
            try:
                self._reply_json(500, {"error": f"{type(error).__name__}: {error}"})
            except Exception:
                pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # A restarted demo on a fixed --http-port must not fail on TIME_WAIT.
    allow_reuse_address = True


class ObservabilityServer:
    """A background HTTP thread exposing one engine's observability surface.

    Everything is optional: a registry-only server exposes ``/metrics``
    and 503s ``/healthz``; attaching ``telemetry`` uses its registry
    unless an explicit one is given.
    """

    def __init__(
        self,
        telemetry=None,
        registry=None,
        engine=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if registry is None and telemetry is not None:
            registry = telemetry.registry
        if registry is None and engine is None:
            raise ProtectionError(
                "ObservabilityServer needs a registry, telemetry or engine"
            )
        self.registry = registry
        self.engine = engine
        self._httpd = _Server((host, int(port)), _Handler)
        self._httpd.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def health(self):
        """(status, payload) for ``/healthz``."""
        engine = self.engine
        if engine is None:
            return 503, {"status": "no-engine"}
        return 200, {
            "status": "ok",
            "tick": engine.tick_index,
            "models": len(engine),
        }

    def start(self) -> "ObservabilityServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-observability-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and detach the engine (idempotent)."""
        self.engine = None
        if self._thread is None:
            self._httpd.server_close()
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
