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

:class:`JSONRequestHandler` and :class:`ThreadedHTTPServer` are the
socket plumbing this listener shares with the artifact store's
(:mod:`repro.store.server`): HTTP/1.1 keep-alive with Nagle off, JSON
reply framing, ``Content-Length`` parsing, a per-connection deadline
(:data:`IDLE_TIMEOUT_S`), a quiet end for a client that leaves before
its reply, and typed JSON bodies with a status line for the stdlib's
own protocol errors.

Shutdown drains: :meth:`ServeHTTPServer.close` first stops accepting
connections, then quiesces the service so every request already in the
engine's queue is batched, processed, and answered before the engine
goes down — in-flight callers get real replies, not abandoned futures.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exceptions import ValidationError
from .router import RequestDispatcher
from .service import ServeService

__all__ = ["JSONRequestHandler", "ThreadedHTTPServer", "ServeHTTPServer", "serve_http"]

#: Largest request body accepted, to bound memory per connection.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a connection may wait on one socket read or write before the
#: server closes it, so a client that stalls mid-request or idles on
#: keep-alive cannot park a handler thread for good.  It must stay well
#: above the keep-alive gaps of real clients (perfbench ``serve_http``
#: holds two connections open from warm-up through the timed phase).
IDLE_TIMEOUT_S = 60.0


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Socket plumbing shared by the serve and store listeners."""

    protocol_version = "HTTP/1.1"
    # A request line that names no version is answered as HTTP/1.0, with
    # a status line, instead of the stdlib's bare HTTP/0.9 body.
    default_request_version = "HTTP/1.0"
    # Headers and body go out in two sends; with Nagle on, a keep-alive
    # reply waits for the client's delayed ACK (~40 ms on Linux).
    disable_nagle_algorithm = True
    # The stdlib's handle_one_request turns a TimeoutError into a close.
    timeout = IDLE_TIMEOUT_S

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # silence per-request stderr lines; metrics cover observability

    def handle(self) -> None:
        try:
            super().handle()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client left before its reply; there is no one to answer

    def send_response_only(self, code, message=None) -> None:
        # "GET / HTTP/0.9" would otherwise get a reply with no status line.
        if self.request_version == "HTTP/0.9":
            self.request_version = self.default_request_version
        super().send_response_only(code, message)

    def send_error(self, code, message=None, explain=None) -> None:
        """Answer a stdlib protocol error (400, 414, 431, 501, 505) as typed JSON."""
        self.close_connection = True
        if self.command == "HEAD" or code < 200 or code in (204, 205, 304):
            self.send_response(code)
            self.send_header("Connection", "close")
            self.end_headers()
            return
        self.send_json(code, {"error": message or HTTPStatus(code).phrase, "type": "ProtocolError"})

    def send_head(
        self, status: int, content_type: str, length: int, headers: dict[str, str] | None = None
    ) -> None:
        """Status line and headers of a reply whose ``length`` body bytes follow."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()

    def send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_head(status, "application/json", len(body))
        self.wfile.write(body)

    def content_length(self, limit: int | None = None) -> int:
        """The declared body length; a 400 for a bad one or one above ``limit``.

        A body that will not be read leaves the connection's framing
        lost, so the connection is marked to close before raising.
        """
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length >= 0 and (limit is None or length <= limit):
            return length
        self.close_connection = True
        if length < 0:
            raise ValidationError("invalid Content-Length")
        raise ValidationError(f"request body too large ({length} bytes > {limit})")


class ThreadedHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` with daemon handler threads."""

    daemon_threads = True

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns it (caller keeps the server)."""
        thread = threading.Thread(
            target=self.serve_forever, name=f"repro-{type(self).__name__}", daemon=True
        )
        thread.start()
        return thread


class _Handler(JSONRequestHandler):
    """Serve routes; all semantics live in the dispatcher."""

    server: "ServeHTTPServer"

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        self.send_json(*self.server.dispatcher.get(self.path))

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        dispatcher = self.server.dispatcher
        try:
            length = self.content_length(MAX_BODY_BYTES)
            payload = parse_json_body(self.rfile.read(length) if length else b"{}")
        except ValidationError as error:
            status, body = dispatcher.error_response(error)
        else:
            status, body = dispatcher.post(self.path, payload)
        self.send_json(status, body)


def parse_json_body(raw: bytes) -> dict:
    """Decode a request body to the JSON object the API requires (else a 400)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValidationError(f"request body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    return payload


class ServeHTTPServer(ThreadedHTTPServer):
    """The threaded HTTP server bound to one service."""

    def __init__(self, service: ServeService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self.dispatcher = RequestDispatcher(service)

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
