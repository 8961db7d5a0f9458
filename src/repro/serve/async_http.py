"""Event-loop HTTP transport: one thread, thousands of connections.

The threaded transport spends a thread per connection; under connection
churn and slow clients that is the bottleneck long before the model is.
This module serves the same JSON API from a single event-loop thread on
stdlib :mod:`selectors`:

- **non-blocking everything** — accept, read, and write are all
  non-blocking; a slow (byte-dribbling) client costs a buffer, not a
  thread;
- **per-connection state machines** — each connection incrementally
  accumulates bytes until a full request (header block + declared body)
  is buffered, handles it, and only then parses the next, so a
  connection has at most one request in flight and pipelined bytes wait
  their turn in the read buffer;
- **bounded hand-off** — predict requests enter the existing
  :class:`~repro.serve.engine.InferenceEngine` micro-batcher through its
  bounded queue via :meth:`ServeService.begin_predict`; the batcher's
  completion callback pushes the finished request onto a thread-safe
  deque and pokes a wakeup socketpair, so the loop never blocks waiting
  for a model and the engine never blocks waiting for a socket;
- **write backpressure** — responses queue in a per-connection write
  buffer flushed as ``EVENT_WRITE`` readiness allows;
- **deadlines, not threads** — per-request timeouts (504) and
  idle-connection reaping are wall-clock deadlines
  (:mod:`repro.runtime.clock`) checked between selector wakeups.

Semantics — routing, validation, error statuses, response payloads —
come from the same :class:`~repro.serve.router.RequestDispatcher` and
:func:`~repro.serve.service.render_prediction` the threaded transport
uses, so the two servers emit bitwise-identical JSON bodies (asserted by
the transport-equivalence tests).
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
from collections import deque

from ..exceptions import RequestTimeoutError, ServeError, ValidationError
from ..runtime.clock import Deadline, monotonic
from .http import MAX_BODY_BYTES, parse_json_body
from .router import RequestDispatcher, RouteNotFound
from .service import ServeService, render_prediction

__all__ = ["AsyncHTTPServer", "serve_async_http"]

_RECV_CHUNK = 65536
_MAX_HEADER_BYTES = 65536

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _Inflight:
    """One submitted predict request a connection is waiting on."""

    __slots__ = ("pending", "service", "model", "version", "deadline", "timeout", "close_requested")

    def __init__(self, pending, service, model, version, timeout, close_requested):
        self.pending = pending
        self.service = service
        self.model = model
        self.version = version
        self.timeout = timeout
        self.deadline = Deadline(timeout)
        self.close_requested = close_requested


class _Connection:
    """Per-socket state machine: read buffer → at most one inflight → write buffer."""

    __slots__ = ("sock", "rbuf", "wbuf", "inflight", "close_after_write", "last_activity", "open", "events")

    def __init__(self, sock):
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.inflight: _Inflight | None = None
        self.close_after_write = False
        self.last_activity = monotonic()
        self.open = True
        self.events = selectors.EVENT_READ


class AsyncHTTPServer:
    """Selectors-based single-thread HTTP server over one service.

    Parameters
    ----------
    service:
        The :class:`ServeService` to serve; owned by the server
        (``close()`` closes it).
    host:
        Interface to bind.
    port:
        TCP port; ``0`` lets the OS choose (read it from :attr:`url`).
    idle_timeout:
        Seconds a connection may sit with no traffic and no inflight
        request before it is reaped; ``None`` disables reaping.
    max_connections:
        Accepted-connection cap; connections beyond it are refused at
        accept time so memory stays bounded under connection floods.
    """

    def __init__(
        self,
        service: ServeService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        idle_timeout: float | None = 30.0,
        max_connections: int = 1024,
    ):
        self.service = service
        self.dispatcher = RequestDispatcher(service)
        self.idle_timeout = idle_timeout
        self.max_connections = max_connections
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._completions: deque = deque()
        self._connections: set[_Connection] = set()
        self._closing = threading.Event()
        self._drain_deadline: Deadline | None = None
        self._thread: threading.Thread | None = None

    # -- public surface ----------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Run the event loop on a daemon thread; returns it."""
        thread = threading.Thread(target=self._run, name="repro-serve-async", daemon=True)
        self._thread = thread
        thread.start()
        return thread

    def close(self, *, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain inflight requests and buffers, close the engine.

        Mirrors the threaded server's contract: connections already
        waiting on the engine get real replies (written out before their
        sockets close) as long as they arrive within ``drain_timeout``.
        """
        deadline = Deadline(drain_timeout)
        self._drain_deadline = deadline
        self._closing.set()
        self._wake()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join((deadline.remaining() or 0.0) + 5.0)
        else:
            self._teardown()
        try:
            self.service.quiesce(deadline.remaining())
        finally:
            self.service.close()

    # -- event loop --------------------------------------------------------

    def _run(self) -> None:
        sel = self._selector
        sel.register(self._listener, selectors.EVENT_READ, "listener")
        sel.register(self._wake_r, selectors.EVENT_READ, "wakeup")
        accepting = True
        try:
            while True:
                for key, mask in sel.select(self._next_timeout()):
                    if key.data == "listener":
                        self._accept()
                    elif key.data == "wakeup":
                        self._drain_wakeups()
                    else:
                        conn = key.data
                        if mask & selectors.EVENT_WRITE:
                            self._guarded(conn, self._flush)
                        if conn.open and mask & selectors.EVENT_READ:
                            self._guarded(conn, self._on_read)
                self._drain_completions()
                self._expire()
                if self._closing.is_set():
                    if accepting:
                        accepting = False
                        sel.unregister(self._listener)
                        self._listener.close()
                    if self._drained() or (
                        self._drain_deadline is not None and self._drain_deadline.exceeded()
                    ):
                        break
        finally:
            self._teardown()

    def _guarded(self, conn: _Connection, step) -> None:
        """Run ``step(conn)``; an unexpected error drops that connection, not the loop."""
        try:
            step(conn)
        except Exception:
            self._close_conn(conn)

    def _drained(self) -> bool:
        return all(conn.inflight is None and not conn.wbuf for conn in self._connections)

    def _next_timeout(self) -> float:
        timeout = 0.5
        now = monotonic()
        for conn in self._connections:
            if conn.inflight is not None:
                remaining = conn.inflight.deadline.remaining()
                if remaining is not None:
                    timeout = min(timeout, remaining)
            elif self.idle_timeout is not None:
                timeout = min(timeout, conn.last_activity + self.idle_timeout - now)
        if self._closing.is_set():
            timeout = min(timeout, 0.05)
        return max(0.0, timeout)

    def _teardown(self) -> None:
        for conn in list(self._connections):
            self._close_conn(conn)
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()

    # -- accepting ---------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            if self._closing.is_set() or len(self._connections) >= self.max_connections:
                sock.close()
                continue
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock)
            self._connections.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close_conn(self, conn: _Connection) -> None:
        if not conn.open:
            return
        conn.open = False
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._connections.discard(conn)

    def _set_events(self, conn: _Connection, events: int) -> None:
        if conn.open and conn.events != events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    # -- reading / incremental parsing -------------------------------------

    def _on_read(self, conn: _Connection) -> None:
        try:
            while True:
                chunk = conn.sock.recv(_RECV_CHUNK)
                if chunk == b"":
                    # Peer closed: any inflight reply has nowhere to go.
                    self._close_conn(conn)
                    return
                conn.rbuf += chunk
                if len(chunk) < _RECV_CHUNK:
                    break
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._close_conn(conn)
            return
        conn.last_activity = monotonic()
        self._parse(conn)

    def _parse(self, conn: _Connection) -> None:
        """Advance the state machine: handle every complete buffered request."""
        while conn.open and conn.inflight is None and not conn.close_after_write:
            split = conn.rbuf.find(b"\r\n\r\n")
            if split < 0:
                if len(conn.rbuf) > _MAX_HEADER_BYTES:
                    self._respond(
                        conn,
                        400,
                        {"error": "request headers too large", "type": "ValidationError"},
                        close=True,
                    )
                return
            lines = bytes(conn.rbuf[:split]).split(b"\r\n")
            try:
                method, path, _version = lines[0].decode("latin-1").split(" ", 2)
            except (UnicodeDecodeError, ValueError):
                conn.rbuf.clear()
                self._respond(
                    conn, 400, {"error": "malformed request line", "type": "ValidationError"}, close=True
                )
                return
            headers = {}
            for line in lines[1:]:
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                length = -1
            if length < 0:
                conn.rbuf.clear()
                self._respond(
                    conn, 400, {"error": "invalid Content-Length", "type": "ValidationError"}, close=True
                )
                return
            if length > MAX_BODY_BYTES:
                conn.rbuf.clear()
                error = ValidationError(f"request body too large ({length} bytes > {MAX_BODY_BYTES})")
                status, payload = self.dispatcher.error_response(error)
                self._respond(conn, status, payload, close=True)
                return
            total = split + 4 + length
            if len(conn.rbuf) < total:
                return  # body still dribbling in
            body = bytes(conn.rbuf[split + 4 : total])
            del conn.rbuf[:total]
            close_requested = headers.get("connection", "").lower() == "close"
            self._handle(conn, method, path, body, close_requested)

    # -- request handling ---------------------------------------------------

    def _handle(
        self, conn: _Connection, method: str, path: str, body: bytes, close_requested: bool
    ) -> None:
        dispatcher = self.dispatcher
        if method == "GET":
            status, payload = dispatcher.get(path)
            self._respond(conn, status, payload, close=close_requested)
            return
        if method != "POST":
            status, payload = dispatcher.not_found(f"no route {path!r}")
            self._respond(conn, status, payload, close=close_requested)
            return
        try:
            payload = parse_json_body(body if body else b"{}")
            kind, name = dispatcher.parse_post_route(path)
            if kind != "predict":
                # feedback is a quick, blocking call; run it inline
                # through the shared dispatcher so both transports
                # return bitwise-identical bodies.
                status, out = dispatcher.post(path, payload)
                self._respond(conn, status, out, close=close_requested)
                return
            rows = dispatcher.rows_of(payload)
            service = dispatcher.service_for(name)
            pending, model, version = service.begin_predict(rows, self._make_on_complete(conn))
        except RouteNotFound as error:
            status, out = dispatcher.not_found(str(error))
            self._respond(conn, status, out, close=close_requested)
            return
        except (ValidationError, ServeError) as error:
            status, out = dispatcher.error_response(error)
            self._respond(conn, status, out, close=close_requested)
            return
        conn.inflight = _Inflight(
            pending, service, model, version, service.config.request_timeout, close_requested
        )

    def _make_on_complete(self, conn: _Connection):
        def on_complete(pending):
            # Batcher thread → loop thread: enqueue and poke the wakeup pipe.
            self._completions.append((conn, pending))
            self._wake()

        return on_complete

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full ⇒ the loop is already waking up

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _drain_completions(self) -> None:
        while True:
            try:
                conn, pending = self._completions.popleft()
            except IndexError:
                return
            inflight = conn.inflight
            if not conn.open or inflight is None or inflight.pending is not pending:
                continue  # connection died, or the request already timed out
            conn.inflight = None
            if pending.error is not None:
                status, payload = self._error_payload(pending.error)
            else:
                status, payload = 200, render_prediction(inflight.model, inflight.version, pending.result)
            self._respond(conn, status, payload, close=inflight.close_requested)
            self._guarded(conn, self._parse)  # a pipelined next request may already be buffered

    def _error_payload(self, error: BaseException) -> tuple[int, dict]:
        try:
            return self.dispatcher.error_response(error)
        except BaseException:
            return 500, {"error": str(error), "type": type(error).__name__}

    def _expire(self) -> None:
        now = monotonic()
        for conn in list(self._connections):
            if not conn.open:
                continue
            inflight = conn.inflight
            if inflight is not None:
                remaining = inflight.deadline.remaining()
                if remaining is not None and remaining <= 0:
                    conn.inflight = None  # a late completion will be ignored
                    inflight.service.metrics_registry.counter("timeouts").inc()
                    error = RequestTimeoutError(
                        f"no reply within {inflight.timeout:.3f}s (service overloaded or wedged)"
                    )
                    status, payload = self.dispatcher.error_response(error)
                    self._respond(conn, status, payload, close=inflight.close_requested)
                    self._guarded(conn, self._parse)
            elif (
                self.idle_timeout is not None
                and not conn.wbuf
                and now - conn.last_activity > self.idle_timeout
            ):
                self._close_conn(conn)

    # -- writing -----------------------------------------------------------

    def _respond(self, conn: _Connection, status: int, payload: dict, *, close: bool = False) -> None:
        """Queue one JSON response on the connection's write buffer."""
        if not conn.open:
            return
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if close or self._closing.is_set():
            head += "Connection: close\r\n"
            conn.close_after_write = True
        head += "\r\n"
        conn.wbuf += head.encode("latin-1") + body
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        if not conn.open:
            return
        try:
            while conn.wbuf:
                sent = conn.sock.send(conn.wbuf)
                if sent == 0:
                    break
                del conn.wbuf[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._close_conn(conn)
            return
        conn.last_activity = monotonic()
        if conn.wbuf:
            self._set_events(conn, selectors.EVENT_READ | selectors.EVENT_WRITE)
        else:
            self._set_events(conn, selectors.EVENT_READ)
            if conn.close_after_write:
                self._close_conn(conn)


def serve_async_http(
    service: ServeService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    idle_timeout: float | None = 30.0,
    max_connections: int = 1024,
) -> AsyncHTTPServer:
    """Bind and background-start the event-loop server for ``service``."""
    server = AsyncHTTPServer(
        service, host, port, idle_timeout=idle_timeout, max_connections=max_connections
    )
    server.serve_background()
    return server
