"""Threaded stdlib HTTP transport for :class:`ServeService`.

A deliberately small JSON-over-HTTP surface on
:class:`http.server.ThreadingHTTPServer` (one thread per connection;
they all funnel into the engine's bounded queue, so concurrency is
governed by backpressure, not by thread count):

- ``GET  /healthz``  → service identity and liveness;
- ``GET  /metrics``  → counters + latency histograms (JSON);
- ``POST /predict``  → ``{"rows": [[...], ...]}`` → labels/uncertainty;
- ``POST /predict/<name>``  → same, if ``<name>`` is the served model
  (404 otherwise);
- ``POST /feedback[/<name>]`` → ``{"limit": N}`` → labeling queue drain.

Routing, validation, and the error-status contract (400 validation,
503 shed, 504 timeout, 404 unknown route, 500 other serve failures)
live in the sockets-free :class:`~repro.serve.router.RequestDispatcher`;
this module only frames bytes.  It is the one HTTP transport
``python -m repro serve`` runs, and a request served here yields the
same JSON payload as :meth:`ServeService.predict` in process.

Shutdown drains: :meth:`ServeHTTPServer.close` first stops accepting
connections, then quiesces the service so every request already in the
engine's queue is batched, processed, and answered before the engine
goes down — in-flight callers get real replies, not abandoned futures.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exceptions import ValidationError
from .router import RequestDispatcher
from .service import ServeService

__all__ = ["ServeHTTPServer", "serve_http"]

#: Largest request body accepted, to bound memory per connection.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Socket plumbing only; all semantics live in the dispatcher."""

    server: "ServeHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends; with Nagle on, a keep-alive
    # reply waits for the client's delayed ACK (~40 ms on Linux).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # silence per-request stderr lines; metrics cover observability

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection's framing is lost.
            self.close_connection = True
            if length < 0:
                raise ValidationError("invalid Content-Length")
            raise ValidationError(f"request body too large ({length} bytes > {MAX_BODY_BYTES})")
        raw = self.rfile.read(length) if length else b"{}"
        return parse_json_body(raw)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        status, payload = self.server.dispatcher.get(self.path)
        self._send_json(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        dispatcher = self.server.dispatcher
        try:
            payload = self._read_body()
        except ValidationError as error:
            status, body = dispatcher.error_response(error)
        else:
            status, body = dispatcher.post(self.path, payload)
        self._send_json(status, body)


def parse_json_body(raw: bytes) -> dict:
    """Decode a request body to the JSON object the API requires (else a 400)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValidationError(f"request body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    return payload


class ServeHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one service."""

    daemon_threads = True

    def __init__(self, service: ServeService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self.dispatcher = RequestDispatcher(service)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns it (caller keeps the server)."""
        thread = threading.Thread(target=self.serve_forever, name="repro-serve-http", daemon=True)
        thread.start()
        return thread

    def close(self, *, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, then close the engine.

        Order matters: new connections are refused first, then
        ``quiesce`` waits (up to ``drain_timeout``) for every request
        already accepted into the engine queue to be batched and
        answered, and only then does the engine shut down.  Closing the
        engine first would strand queued requests behind the shutdown
        sentinel — their handler threads would time out holding open
        connections (the pre-PR-9 behaviour).
        """
        self.shutdown()
        self.server_close()
        try:
            self.service.quiesce(drain_timeout)
        finally:
            self.service.close()


def serve_http(
    service: ServeService, host: str = "127.0.0.1", port: int = 0
) -> ServeHTTPServer:
    """Bind and background-start an HTTP server for ``service``.

    ``port=0`` lets the OS pick a free port (read it from ``server.url``),
    which is what tests and single-machine demos want.
    """
    server = ServeHTTPServer(service, host, port)
    server.serve_background()
    return server
