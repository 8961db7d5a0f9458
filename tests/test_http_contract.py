"""Transport-equivalence and error-contract tests, threaded vs async.

Both HTTP servers delegate semantics to the shared
:class:`~repro.serve.router.RequestDispatcher`, so they must be
observably the same service:

- the documented error contract (400 malformed/oversized, 404 unknown
  route or model, 503 shed, 504 timeout) holds **on real sockets** for
  both transports, with identical JSON error bodies;
- a seeded workload replayed against both servers yields **bitwise
  identical** response payloads, and the two services' counters
  reconcile;
- shutdown *drains*: requests already accepted into the engine queue
  get real replies before the engine goes down (regression for the
  pre-PR-9 threaded server, which abandoned queued futures), and a
  request stranded behind the shutdown sentinel is failed fast with a
  typed error instead of holding its waiter until timeout.
"""

import http.client
import json
import socket
import statistics
import threading

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.loadgen import HttpTarget
from repro.rng import check_random_state
from repro.runtime.clock import Stopwatch
from repro.serve import (
    InferenceEngine,
    ServeConfig,
    ServeService,
    serve_async_http,
    serve_http,
)
from repro.serve.engine import _PendingRequest
from repro.serve.http import MAX_BODY_BYTES


def _start_server(transport: str, service: ServeService):
    return serve_http(service) if transport == "threaded" else serve_async_http(service)


def _raw_exchange(url: str, data: bytes, *, timeout: float = 5.0) -> tuple[int, bytes]:
    """Send raw bytes, read one response off a buffered reader."""
    host, _, port = url.split("//", 1)[-1].partition(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(data)
        with sock.makefile("rb") as reader:
            status_line = reader.readline()
            status = int(status_line.split(b" ", 2)[1])
            headers = {}
            while True:
                line = reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = reader.read(int(headers.get("content-length", "0")))
    return status, body


def _post_bytes(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


@pytest.fixture(params=["threaded", "async"])
def transport(request):
    return request.param


@pytest.fixture()
def server(transport, served_scream_registry):
    service = ServeService.from_registry(
        "scream",
        directory=served_scream_registry.directory,
        config=ServeConfig(max_batch=16),
    )
    server = _start_server(transport, service)
    yield server
    server.close()


class TestErrorContract:
    """One request per documented failure, identical on both transports."""

    def test_malformed_json_is_400(self, server):
        status, body = _raw_exchange(server.url, _post_bytes("/predict", b"not json"))
        assert status == 400
        payload = json.loads(body)
        assert payload["type"] == "ValidationError"
        assert payload["error"].startswith("request body is not valid JSON:")

    def test_non_object_json_is_400(self, server):
        status, body = _raw_exchange(server.url, _post_bytes("/predict", b"[1, 2]"))
        assert status == 400
        assert json.loads(body)["error"] == "request body must be a JSON object"

    def test_missing_rows_is_400(self, server):
        status, body = _raw_exchange(server.url, _post_bytes("/predict", b"{}"))
        assert status == 400
        assert '"rows"' in json.loads(body)["error"]

    def test_wrong_feature_count_is_400(self, server):
        status, body = _raw_exchange(
            server.url, _post_bytes("/predict", json.dumps({"rows": [[1.0]]}).encode())
        )
        assert status == 400
        assert "features" in json.loads(body)["error"]

    def test_unknown_route_is_404(self, server):
        status, body = _raw_exchange(server.url, _post_bytes("/nope", b"{}"))
        assert status == 404
        assert json.loads(body)["type"] == "NotFound"

    def test_unknown_model_is_404(self, server):
        status, body = _raw_exchange(
            server.url, _post_bytes("/predict/ghost", json.dumps({"rows": [[0.0]]}).encode())
        )
        assert status == 404
        assert "no model route 'ghost'" in json.loads(body)["error"]

    def test_oversized_body_is_400(self, server):
        declared = MAX_BODY_BYTES + 1
        request = (
            f"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {declared}\r\n\r\n"
        ).encode("latin-1")
        status, body = _raw_exchange(server.url, request)
        assert status == 400
        payload = json.loads(body)
        assert payload["error"] == f"request body too large ({declared} bytes > {MAX_BODY_BYTES})"

    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_invalid_content_length_is_400(self, server, declared):
        request = (
            f"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {declared}\r\n\r\n{{}}"
        ).encode("latin-1")
        status, body = _raw_exchange(server.url, request)
        assert status == 400
        assert json.loads(body) == {"error": "invalid Content-Length", "type": "ValidationError"}

    def test_mid_request_disconnect_leaves_server_healthy(self, server, scream_data):
        request = _post_bytes("/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode())
        host, _, port = server.url.split("//", 1)[-1].partition(":")
        for _ in range(3):
            sock = socket.create_connection((host, int(port)), timeout=5.0)
            sock.sendall(request[: len(request) // 2])
            sock.close()  # client gave up mid-send
        status, body = _raw_exchange(server.url, request)
        assert status == 200 and "labels" in json.loads(body)


class TestOverloadContract:
    def test_shed_503_and_timeout_504(self, transport, served_scream_registry, scream_data):
        """A wedged model: queued requests 504, overflow requests 503."""
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=1, queue_bound=1, request_timeout=0.4),
        )
        gate = threading.Event()
        entered = threading.Event()
        original = service.bundle.automl.predict_batch

        def wedged(X):
            entered.set()
            gate.wait(15.0)
            return original(X)

        service.bundle.automl.predict_batch = wedged
        server = _start_server(transport, service)
        request = _post_bytes("/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode())
        results: dict[str, tuple[int, bytes]] = {}

        def fire(tag):
            results[tag] = _raw_exchange(server.url, request, timeout=10.0)

        try:
            thread_a = threading.Thread(target=fire, args=("a",))
            thread_a.start()
            assert entered.wait(5.0)  # the batcher now holds A
            thread_b = threading.Thread(target=fire, args=("b",))
            thread_b.start()
            for _ in range(500):  # wait until B occupies the queue slot
                if service.engine._queue.qsize() >= 1:
                    break
                threading.Event().wait(0.005)
            assert service.engine._queue.qsize() >= 1
            status_c, body_c = _raw_exchange(server.url, request, timeout=10.0)
            assert status_c == 503
            assert json.loads(body_c)["type"] == "BackpressureError"
            thread_a.join(10.0)
            thread_b.join(10.0)
            for tag in ("a", "b"):
                status, body = results[tag]
                assert status == 504, f"request {tag}: expected 504, got {status}"
                payload = json.loads(body)
                assert payload["type"] == "RequestTimeoutError"
                assert "no reply within 0.400s" in payload["error"]
            counters = service.metrics_registry.snapshot()["counters"]
            assert counters["shed"] == 1
            assert counters["timeouts"] == 2
        finally:
            gate.set()
            service.bundle.automl.predict_batch = original
            server.close()


class TestTransportEquivalence:
    def test_seeded_workload_served_bitwise_identically(
        self, served_scream_registry, scream_data
    ):
        """Same requests, two transports → byte-identical (status, body) pairs."""
        config = ServeConfig(max_batch=16)
        rng = check_random_state(42)
        starts = rng.integers(0, scream_data.X.shape[0] - 2, size=30)
        requests = [scream_data.X[start : start + 2].tolist() for start in starts]

        def serve_all(start_server):
            service = ServeService.from_registry(
                "scream", directory=served_scream_registry.directory, config=config
            )
            server = start_server(service)
            target = HttpTarget(server.url)
            try:
                replies = [
                    target.exchange(rows, timeout=5.0, plan={}) for rows in requests
                ]
            finally:
                server.close()
            return replies, service.metrics_registry.snapshot()["counters"]

        threaded_replies, threaded_counters = serve_all(serve_http)
        async_replies, async_counters = serve_all(serve_async_http)

        assert threaded_replies == async_replies  # statuses AND bodies, bitwise
        assert all(status == 200 for status, _ in threaded_replies)
        # The two services saw identical traffic and account for it identically.
        for key in ("requests", "points", "shed", "timeouts", "errors"):
            assert threaded_counters[key] == async_counters[key], key
        assert threaded_counters["requests"] == len(requests)
        assert threaded_counters["points"] == 2 * len(requests)


class TestKeepAliveLatency:
    def test_back_to_back_requests_skip_the_delayed_ack(self, served_scream_registry, scream_data):
        """Reply headers and body must not wait for the client's delayed ACK.

        The threaded handler writes headers and body in two sends.  With
        Nagle's algorithm on, the second send of every keep-alive reply
        waits for the client to ACK the first, which Linux delays by at
        least 40 ms.
        """
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=16),
        )
        server = serve_http(service)
        host, _, port = server.url.split("//", 1)[-1].partition(":")
        body = json.dumps({"rows": scream_data.X[:1].tolist()})
        connection = http.client.HTTPConnection(host, int(port), timeout=5.0)
        elapsed = []
        try:
            for _ in range(10):
                watch = Stopwatch()
                connection.request("POST", "/predict", body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                elapsed.append(watch.elapsed())
        finally:
            connection.close()
            server.close()
        assert statistics.median(elapsed) < 0.035, elapsed


class TestShutdownDrains:
    def test_threaded_close_answers_inflight_requests(
        self, served_scream_registry, scream_data
    ):
        """Regression: close() used to kill the engine under queued requests."""
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
            gate.wait(15.0)
            return original(X)

        service.bundle.automl.predict_batch = gated
        server = serve_http(service)
        request = _post_bytes("/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode())
        result: dict[str, tuple[int, bytes]] = {}

        def fire():
            result["r"] = _raw_exchange(server.url, request, timeout=15.0)

        client = threading.Thread(target=fire)
        try:
            client.start()
            assert entered.wait(5.0)  # request is inside the engine
            closer = threading.Thread(target=server.close, kwargs={"drain_timeout": 10.0})
            closer.start()
            threading.Event().wait(0.2)  # close() is now draining
            gate.set()
            client.join(10.0)
            closer.join(10.0)
            assert not client.is_alive() and not closer.is_alive()
            status, body = result["r"]
            assert status == 200  # a real reply, not an abandoned future
            assert "labels" in json.loads(body)
        finally:
            gate.set()
            service.bundle.automl.predict_batch = original

    def test_engine_close_fails_stranded_requests_fast(
        self, served_scream_registry, scream_data
    ):
        """A request enqueued behind the shutdown sentinel gets a typed error.

        The race this drains: a submit that passed the closed-check
        before ``close()`` set it can enqueue *after* the sentinel; the
        batcher has already exited, so nothing will ever batch it.  The
        pre-PR-9 engine abandoned such requests (their waiters hung
        until timeout); now ``close()`` drains the queue and fails them
        with :class:`ServeError`, completion callbacks included.
        """
        bundle = served_scream_registry.load("scream")
        engine = InferenceEngine(bundle, ServeConfig(max_batch=1))
        gate = threading.Event()
        entered = threading.Event()
        original = bundle.automl.predict_batch

        def gated(X):
            entered.set()
            gate.wait(15.0)
            return original(X)

        engine.bundle.automl.predict_batch = gated
        delivered = []
        try:
            first = engine.submit(scream_data.X[:1])
            assert entered.wait(5.0)  # the batcher is wedged inside the gate
            closer = threading.Thread(target=engine.close)
            closer.start()
            for _ in range(500):  # close() has posted the shutdown sentinel
                if engine._closed.is_set() and engine._queue.qsize() >= 1:
                    break
                threading.Event().wait(0.005)
            assert engine._queue.qsize() >= 1
            # The racing submit: enqueued after the sentinel, never batchable.
            stranded = _PendingRequest(
                np.atleast_2d(scream_data.X[:1]), Stopwatch(), on_complete=delivered.append
            )
            with engine._inflight_cond:
                engine._inflight += 1
            engine._queue.put_nowait(stranded)
            errors_before = engine.metrics.counter("errors").value
            gate.set()  # batcher finishes its batch, sees the sentinel, exits
            closer.join(10.0)
            assert not closer.is_alive()
            assert first.event.is_set() and first.error is None  # queued work completed
            assert stranded.event.is_set(), "stranded request was abandoned"
            assert isinstance(stranded.error, ServeError)
            assert "closed before" in str(stranded.error)
            assert delivered == [stranded]  # the completion callback fired too
            assert engine.metrics.counter("errors").value == errors_before + 1
            assert engine.quiesce(2.0), "inflight accounting leaked"
        finally:
            gate.set()
            engine.bundle.automl.predict_batch = original
            engine.close()
