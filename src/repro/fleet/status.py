"""HTTP status endpoint for a running fleet service.

A :class:`StatusServer` exposes the live ``repro.fleet/v1`` rollup over
plain stdlib HTTP — no web framework, just
:class:`http.server.ThreadingHTTPServer` on a daemon thread:

* ``GET /status`` (or ``/``) — the current fleet rollup as JSON.
* ``GET /healthz`` — ``{"ok": true}`` liveness probe.

Rollups are built through
:meth:`~repro.fleet.service.FleetService.rollup_threadsafe`, which hops
onto the service's event loop so shard registries are never read while a
worker batch is mutating them.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.errors import tcp_port
from repro.fleet.service import FleetService


class StatusServer:
    """Serve fleet rollups on ``http://host:port/status``.

    Pass ``port=0`` to bind an ephemeral port (read it back from
    :attr:`port` after :meth:`start`).  A port outside 0-65535 raises
    :class:`ParameterError` here, not a socket error at :meth:`start`.
    """

    def __init__(
        self, service: FleetService, port: int = 0, host: str = "127.0.0.1"
    ) -> None:
        self.service = service
        self._requested = (host, tcp_port("port", port))
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (0 until :meth:`start`)."""
        return self._server.server_address[1] if self._server else 0

    def start(self) -> "StatusServer":
        if self._server is not None:
            return self
        service = self.service

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0].rstrip("/") or "/status"
                if path == "/healthz":
                    self._reply(200, {"ok": True})
                elif path == "/status":
                    try:
                        self._reply(200, service.rollup_threadsafe())
                    except Exception as exc:  # pragma: no cover - defensive
                        self._reply(500, {"error": str(exc)})
                else:
                    self._reply(404, {"error": "unknown path %r" % self.path})

            def _reply(self, code: int, payload: object) -> None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args: object) -> None:
                pass  # keep the monitor's stdout clean

        self._server = ThreadingHTTPServer(self._requested, Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-fleet-status",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None

    def __enter__(self) -> "StatusServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
