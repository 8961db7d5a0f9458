"""Tests for repro.serve.async_http — the event-loop HTTP transport.

Exercised over real TCP sockets against a served ensemble, one scenario
per promise the transport makes: correct JSON round trips, HTTP/1.1
keep-alive and pipelining, incremental parsing of byte-dribbled
requests, survival of mid-request disconnects, idle reaping, oversized
and malformed request rejection, request timeouts as 504, and a drain
on close that answers in-flight requests instead of abandoning them.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro.serve import AsyncHTTPServer, ServeConfig, ServeService, serve_async_http
from repro.serve.http import MAX_BODY_BYTES


def _host_port(url: str) -> tuple[str, int]:
    host, _, port = url.split("//", 1)[-1].partition(":")
    return host, int(port)


def _request_bytes(method: str, path: str, body: bytes = b"", headers: dict | None = None) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test", f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class _Client:
    """A raw HTTP/1.1 test client with a *buffered* reader.

    Buffering matters: pipelined responses can land in one TCP segment,
    so the reader must keep leftover bytes for the next read instead of
    discarding them with the recv buffer.
    """

    def __init__(self, url: str, timeout: float = 5.0):
        self.sock = socket.create_connection(_host_port(url), timeout=timeout)
        self.sock.settimeout(timeout)
        self.reader = self.sock.makefile("rb")

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_response(self) -> tuple[int, dict, bytes]:
        """Read one full response; returns (status, headers, body)."""
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed before a response")
        status = int(status_line.split(b" ", 2)[1])
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.reader.read(int(headers.get("content-length", "0")))
        return status, headers, body

    def exchange(self, method: str, path: str, payload=None, **kwargs):
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        self.send_raw(_request_bytes(method, path, body, **kwargs))
        return self.read_response()

    def at_eof(self) -> bool:
        """True once the server has closed its side of the connection."""
        return self.reader.read(1) == b""

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:
            pass
        self.sock.close()

    def __enter__(self) -> "_Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.fixture()
def async_server(served_scream_registry):
    service = ServeService.from_registry(
        "scream",
        directory=served_scream_registry.directory,
        config=ServeConfig(max_batch=16),
    )
    server = serve_async_http(service)
    yield server
    server.close()


class TestAsyncEndpoints:
    def test_healthz_predict_metrics_round_trip(self, async_server, fitted_automl, scream_data):
        with _Client(async_server.url) as client:
            status, _, body = client.exchange("GET", "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok" and health["model"] == "scream"

            points = scream_data.X[:5]
            status, _, body = client.exchange("POST", "/predict", {"rows": points.tolist()})
            assert status == 200
            response = json.loads(body)
            assert response["labels"] == fitted_automl.predict(points).tolist()
            np.testing.assert_array_equal(
                np.asarray(response["proba"]), fitted_automl.predict_proba(points)
            )

            status, _, body = client.exchange("GET", "/metrics")
            assert status == 200
            assert json.loads(body)["counters"]["requests"] >= 1

    def test_named_route_and_feedback(self, async_server, scream_data):
        with _Client(async_server.url) as client:
            status, _, body = client.exchange(
                "POST", "/predict/scream", {"rows": scream_data.X[:2].tolist()}
            )
            assert status == 200 and json.loads(body)["model"] == "scream"
            status, _, body = client.exchange("POST", "/feedback", {"limit": 4})
            assert status == 200 and "candidates" in json.loads(body)

    def test_keep_alive_serves_many_requests_per_connection(self, async_server, scream_data):
        rows = scream_data.X[:1].tolist()
        with _Client(async_server.url) as client:
            for _ in range(5):
                status, headers, _ = client.exchange("POST", "/predict", {"rows": rows})
                assert status == 200
                assert headers.get("connection", "") != "close"

    def test_pipelined_requests_answered_in_order(self, async_server, scream_data):
        """Two requests in one write: the state machine takes them one at a time."""
        first = _request_bytes(
            "POST", "/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode()
        )
        second = _request_bytes("GET", "/healthz")
        with _Client(async_server.url) as client:
            client.send_raw(first + second)
            status, _, body = client.read_response()
            assert status == 200 and "labels" in json.loads(body)
            status, _, body = client.read_response()
            assert status == 200 and json.loads(body)["status"] == "ok"

    def test_connection_close_header_honored(self, async_server):
        with _Client(async_server.url) as client:
            status, headers, _ = client.exchange(
                "GET", "/healthz", headers={"Connection": "close"}
            )
            assert status == 200
            assert headers.get("connection") == "close"
            assert client.at_eof()  # server actually closed


class TestAsyncRobustness:
    def test_dribbled_request_completes(self, async_server, scream_data):
        """A slow client costs a buffer, not a failure: bytes arrive in 8-byte chunks."""
        request = _request_bytes(
            "POST", "/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode()
        )
        with _Client(async_server.url) as client:
            for start in range(0, len(request), 8):
                client.send_raw(request[start : start + 8])
                threading.Event().wait(0.001)
            status, _, body = client.read_response()
            assert status == 200 and "labels" in json.loads(body)

    def test_mid_request_disconnect_does_not_wedge_server(self, async_server, scream_data):
        request = _request_bytes(
            "POST", "/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode()
        )
        for _ in range(3):
            sock = socket.create_connection(_host_port(async_server.url), timeout=5.0)
            sock.sendall(request[: len(request) // 2])
            sock.close()  # gave up mid-send
        with _Client(async_server.url) as client:  # the server is still fine
            status, _, _ = client.exchange("POST", "/predict", {"rows": scream_data.X[:1].tolist()})
            assert status == 200

    def test_malformed_request_line_is_400_and_close(self, async_server):
        with _Client(async_server.url) as client:
            client.send_raw(b"garbage\r\n\r\n")
            status, headers, body = client.read_response()
            assert status == 400
            assert json.loads(body)["type"] == "ValidationError"
            assert headers.get("connection") == "close"

    def test_invalid_content_length_is_400(self, async_server):
        with _Client(async_server.url) as client:
            client.send_raw(b"POST /predict HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            status, _, body = client.read_response()
            assert status == 400
            assert json.loads(body)["error"] == "invalid Content-Length"

    def test_oversized_body_rejected_without_reading_it(self, async_server):
        declared = MAX_BODY_BYTES + 1
        with _Client(async_server.url) as client:
            client.send_raw(f"POST /predict HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n".encode())
            status, _, body = client.read_response()
            assert status == 400
            payload = json.loads(body)
            assert payload["type"] == "ValidationError"
            assert payload["error"] == f"request body too large ({declared} bytes > {MAX_BODY_BYTES})"

    def test_oversized_headers_rejected(self, async_server):
        with _Client(async_server.url) as client:
            client.send_raw(b"GET /healthz HTTP/1.1\r\nX-Junk: " + b"a" * 70000)
            status, _, body = client.read_response()
            assert status == 400
            assert "headers too large" in json.loads(body)["error"]

    def test_unknown_route_and_method_are_404(self, async_server):
        with _Client(async_server.url) as client:
            status, _, body = client.exchange("GET", "/nope")
            assert status == 404 and json.loads(body)["type"] == "NotFound"
        with _Client(async_server.url) as client:
            status, _, _ = client.exchange("PUT", "/predict", {"rows": [[0.0]]})
            assert status == 404

    def test_unexpected_handler_error_drops_one_connection_not_the_loop(self, async_server):
        dispatcher = async_server.dispatcher
        original = dispatcher.get
        calls = []

        def raise_once(path):
            calls.append(path)
            if len(calls) == 1:
                raise RuntimeError("injected handler failure")
            return original(path)

        dispatcher.get = raise_once
        with _Client(async_server.url, timeout=2.0) as client:
            client.send_raw(_request_bytes("GET", "/healthz"))
            assert client.at_eof()  # that connection is dropped...
        with _Client(async_server.url, timeout=2.0) as client:
            status, _, _ = client.exchange("GET", "/healthz")
            assert status == 200  # ...and the loop keeps serving
        thread = threading.Thread(target=async_server.close)
        thread.start()
        thread.join(10.0)
        assert not thread.is_alive()

    def test_idle_connections_are_reaped(self, served_scream_registry):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=8),
        )
        server = serve_async_http(service, idle_timeout=0.2)
        try:
            with _Client(server.url) as idle:
                # No bytes sent: after idle_timeout the server closes our end.
                assert idle.at_eof()
            with _Client(server.url) as fresh:  # new connections still served
                status, _, _ = fresh.exchange("GET", "/healthz")
                assert status == 200
        finally:
            server.close()


class TestAsyncTimeoutsAndDrain:
    def test_wedged_engine_yields_504_and_timeout_counter(self, served_scream_registry, scream_data):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=1, request_timeout=0.2),
        )
        release = threading.Event()
        original = service.bundle.automl.predict_batch

        def wedged(X):
            release.wait(10.0)
            return original(X)

        service.bundle.automl.predict_batch = wedged
        server = serve_async_http(service)
        try:
            with _Client(server.url) as client:
                status, _, body = client.exchange(
                    "POST", "/predict", {"rows": scream_data.X[:1].tolist()}
                )
                assert status == 504
                payload = json.loads(body)
                assert payload["type"] == "RequestTimeoutError"
                assert "no reply within 0.200s" in payload["error"]
            assert service.metrics_registry.counter("timeouts").value == 1
        finally:
            release.set()
            service.bundle.automl.predict_batch = original
            server.close()

    def test_close_drains_inflight_requests(self, served_scream_registry, scream_data):
        """A request already accepted into the engine gets a real reply on close."""
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=1, request_timeout=10.0),
        )
        gate = threading.Event()
        entered = threading.Event()
        original = service.bundle.automl.predict_batch

        def gated(X):
            entered.set()
            gate.wait(10.0)
            return original(X)

        service.bundle.automl.predict_batch = gated
        server = serve_async_http(service)
        try:
            client = _Client(server.url, timeout=10.0)
            client.send_raw(
                _request_bytes(
                    "POST", "/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode()
                )
            )
            assert entered.wait(5.0)  # the batcher holds our request
            closer = threading.Thread(target=server.close, kwargs={"drain_timeout": 10.0})
            closer.start()
            threading.Event().wait(0.2)
            gate.set()  # let the model answer
            status, _, body = client.read_response()
            assert status == 200
            assert "labels" in json.loads(body)
            client.close()
            closer.join(10.0)
            assert not closer.is_alive()
        finally:
            gate.set()
            service.bundle.automl.predict_batch = original

    def test_serve_background_thread_and_url(self, served_scream_registry):
        service = ServeService.from_registry(
            "scream", directory=served_scream_registry.directory
        )
        server = AsyncHTTPServer(service)
        thread = server.serve_background()
        try:
            assert thread.is_alive()
            assert server.url.startswith("http://127.0.0.1:")
        finally:
            server.close()
        assert not thread.is_alive()
