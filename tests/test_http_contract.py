"""The threaded HTTP listeners' wire contract, on real sockets.

The serve server delegates semantics to the sockets-free
:class:`~repro.serve.router.RequestDispatcher`, and these tests check
what only a socket can show:

- the documented error contract (400 malformed/oversized, 404 unknown
  route or model, 503 shed, 504 timeout) with typed JSON error bodies;
- connection handling: pipelined requests answered in order, a
  malformed or versionless request line answered with a typed 400 while
  the server keeps serving, and ``Connection: close`` honoured;
- on both listeners (serve and the artifact store, which share one
  handler base): a connection that stalls mid-request or idles on
  keep-alive is closed at the deadline, a client that leaves before its
  reply is no server error, and a socket-level Hypothesis fuzzer
  (request lines, header blocks, ``Content-Length`` values, truncated
  bodies) under which every exchange ends in a complete ``HTTP/1.x``
  status line or a clean close and the server stays healthy;
- a seeded workload served over HTTP yields payloads **bitwise equal**
  to :meth:`ServeService.predict` in process, and the two services'
  counters reconcile;
- shutdown *drains*: requests already accepted into the engine queue
  get real replies before the engine goes down, and a request stranded
  behind the shutdown sentinel is failed fast with a typed error instead
  of holding its waiter until timeout.
"""

import hashlib
import http.client
import json
import socket
import statistics
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ServeError
from repro.loadgen import HttpTarget
from repro.rng import check_random_state
from repro.runtime.clock import Deadline, Stopwatch
from repro.serve import InferenceEngine, ServeConfig, ServeService, serve_http
from repro.serve.engine import _PendingRequest
from repro.serve.http import MAX_BODY_BYTES, JSONRequestHandler
from repro.store import BLOB_DIGEST_HEADER, StoreService, serve_store_http


def _host_port(url: str) -> tuple[str, int]:
    host, _, port = url.split("//", 1)[-1].partition(":")
    return host, int(port)


def _read_response(reader) -> tuple[int, dict, bytes]:
    """One full response off a buffered reader: ``(status, headers, body)``."""
    status = int(reader.readline().split(b" ", 2)[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length", "0")))


def _raw_exchange(url: str, data: bytes, *, timeout: float = 5.0) -> tuple[int, bytes]:
    """Send raw bytes, read one response off a buffered reader."""
    with socket.create_connection(_host_port(url), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(data)
        with sock.makefile("rb") as reader:
            status, _, body = _read_response(reader)
    return status, body


def _post_bytes(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


@pytest.fixture(params=[pytest.param(serve_http, id="threaded")])
def start_server(request):
    return request.param


@pytest.fixture()
def server(start_server, served_scream_registry):
    service = ServeService.from_registry(
        "scream",
        directory=served_scream_registry.directory,
        config=ServeConfig(max_batch=16),
    )
    server = start_server(service)
    yield server
    server.close()


@pytest.fixture(params=["threaded", "store"])
def listener(request, served_scream_registry, tmp_path):
    """Each listener on the shared handler base: serve (``threaded``) and store."""
    if request.param == "threaded":
        service = ServeService.from_registry(
            "scream", directory=served_scream_registry.directory, config=ServeConfig(max_batch=16)
        )
        server = serve_http(service)
    else:
        server = serve_store_http(StoreService(tmp_path / "store"))
    yield server
    server.close()


def _handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.endswith("(process_request_thread)")]


def _wait_for_no_handler_threads(seconds: float = 5.0) -> None:
    deadline = Deadline(seconds)
    while _handler_threads() and deadline.remaining() > 0:
        threading.Event().wait(0.02)
    assert _handler_threads() == []


class TestErrorContract:
    """One request per documented failure, each with a typed JSON body."""

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
        for _ in range(3):
            sock = socket.create_connection(_host_port(server.url), timeout=5.0)
            sock.sendall(request[: len(request) // 2])
            sock.close()  # client gave up mid-send
        status, body = _raw_exchange(server.url, request)
        assert status == 200 and "labels" in json.loads(body)


class TestConnectionHandling:
    """Framing on one connection: order, a bad request line, an asked-for close."""

    def test_pipelined_requests_answered_in_order(self, server, scream_data):
        first = _post_bytes("/predict", json.dumps({"rows": scream_data.X[:1].tolist()}).encode())
        second = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        with socket.create_connection(_host_port(server.url), timeout=5.0) as sock:
            sock.sendall(first + second)  # both requests in one write
            with sock.makefile("rb") as reader:
                status, _, body = _read_response(reader)
                assert status == 200 and "labels" in json.loads(body)
                status, _, body = _read_response(reader)
                assert status == 200 and json.loads(body)["status"] == "ok"

    def test_malformed_request_line_is_400_and_serving_goes_on(self, server):
        # Four words, or one word that names no HTTP version: either way
        # the reply has a status line and a typed JSON body.
        for line in (b"GET /healthz extra HTTP/1.1", b"garbage"):
            with socket.create_connection(_host_port(server.url), timeout=5.0) as sock:
                sock.sendall(line + b"\r\n\r\n")
                with sock.makefile("rb") as reader:
                    assert reader.peek(9)[:9] == b"HTTP/1.1 ", line
                    status, headers, body = _read_response(reader)
                    assert status == 400
                    assert headers.get("connection") == "close"
                    assert json.loads(body)["type"] == "ProtocolError"
                    assert reader.read() == b""  # the server closed its side
        status, body = _raw_exchange(server.url, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_connection_close_header_honored(self, server):
        request = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        with socket.create_connection(_host_port(server.url), timeout=5.0) as sock:
            sock.sendall(request)
            with sock.makefile("rb") as reader:
                status, headers, _ = _read_response(reader)
                assert status == 200
                assert headers.get("connection") == "close"
                assert reader.read() == b""  # the server actually closed


_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=8)
_FUZZ_KEY = hashlib.sha256(b"fuzz").hexdigest()

#: Per listener: the paths its routes know, and the statuses it may send.
#: Both send the stdlib's protocol errors (414 URI too long, 431 headers,
#: 501 method, 505 version) and 100 Continue beside their own statuses.
_FUZZ_SURFACES = {
    ServeService: (
        ["/predict", "/predict/scream", "/feedback", "/healthz", "/metrics"],
        {100, 200, 400, 404, 414, 431, 501, 505},
    ),
    StoreService: (
        [f"/artifacts/{_FUZZ_KEY}", "/artifacts/abc", "/stat", "/healthz"],
        {100, 200, 400, 404, 413, 414, 431, 501, 503, 505},
    ),
}


def _lines(paths, versions):
    return st.builds(
        lambda method, path, version: " ".join(part for part in (method, path, version) if part),
        st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE"]),
        st.sampled_from([*paths, "/nope", "*"]) | _TOKEN.map(lambda tail: "/" + tail),
        st.sampled_from(versions),
    )


def _request_lines(paths):
    return st.one_of(
        _lines(paths, ["HTTP/1.1", "HTTP/1.0"]),
        _lines(paths, ["HTTP/0.9", "HTTP/2.0", "HTTP/1.1 x", "http/1.1", ""]),
        st.text(st.characters(max_codepoint=255), max_size=40),
    )


_HEADERS = st.lists(
    st.tuples(
        st.sampled_from(
            ["Host", "Connection", "Content-Type", "Expect", "Transfer-Encoding", BLOB_DIGEST_HEADER]
        )
        | _TOKEN,
        st.sampled_from(
            ["close", "keep-alive", "100-continue", "chunked", "application/json", "",
             hashlib.sha256(b"{}").hexdigest()]
        )
        | st.text(st.characters(max_codepoint=255), max_size=12),
    ),
    max_size=5,
)
_CONTENT_LENGTHS = st.none() | st.integers(-3, 400).map(str) | _TOKEN
_BODIES = st.sampled_from([b"", b"{}", b'{"rows": [[1, 2, 3, 4]]}', b'{"limit": 2}', b"[1]"]) | st.binary(
    max_size=200
)


def _fuzz_exchange(url: str, data: bytes) -> bytes:
    """Send ``data``, half-close, and read to EOF; raise on a wedge or a reset."""
    with socket.create_connection(_host_port(url), timeout=5.0) as sock:
        sock.settimeout(5.0)  # a wedged server surfaces as socket.timeout
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)  # a truncated body ends here, not by timeout
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    data=st.data(),
    headers=_HEADERS,
    content_length=_CONTENT_LENGTHS,
    body=_BODIES,
    keep=st.floats(0.0, 1.0),
)
def test_socket_fuzz_ends_in_a_status_line_or_a_clean_close(
    listener, data, headers, content_length, body, keep
):
    """Arbitrary request bytes: a status line or a clean close, and serving goes on.

    Every non-empty reply starts with a complete ``HTTP/1.x`` status line,
    even for a request line that names no HTTP/1.x version.  No handler
    may raise: ``handle_error`` is the stdlib's hook for an exception
    that escaped one.
    """
    paths, statuses = _FUZZ_SURFACES[type(listener.service)]
    line = data.draw(_request_lines(paths), label="line")
    raised = []
    listener.handle_error = lambda request, address: raised.append(sys.exc_info()[1])
    block = [line] + [f"{name}: {value}" for name, value in headers]
    if content_length is not None:
        block.append(f"Content-Length: {content_length}")
    truncated = body[: round(len(body) * keep)]
    sent = ("\r\n".join(block) + "\r\n\r\n").encode("latin-1") + truncated
    received = _fuzz_exchange(listener.url, sent)
    if received:
        assert received.startswith((b"HTTP/1.0 ", b"HTTP/1.1 ")), received[:80]
        assert b"\r\n" in received, received[:80]  # the status line is complete
        assert int(received.split(b" ", 2)[1]) in statuses, received[:200]
    assert raised == []
    status, payload = _raw_exchange(listener.url, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    assert status == 200 and json.loads(payload)["status"] == "ok"


class TestConnectionFaults:
    """Each listener's connection faults, handled once in the shared handler base."""

    def test_stalled_body_is_closed_at_the_deadline(self, listener, monkeypatch):
        monkeypatch.setattr(JSONRequestHandler, "timeout", 0.5)
        request = (
            f"PUT /artifacts/{_FUZZ_KEY} HTTP/1.1\r\nHost: t\r\n"
            f"{BLOB_DIGEST_HEADER}: {_FUZZ_KEY}\r\nContent-Length: 100\r\n\r\n"
            if isinstance(listener.service, StoreService)
            else "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n"
        ).encode("latin-1")
        with socket.create_connection(_host_port(listener.url), timeout=5.0) as sock:
            sock.settimeout(5.0)  # without a server deadline, recv times out here
            sock.sendall(request + b'{"ro')  # 4 of the 100 declared body bytes
            assert sock.recv(65536) == b""  # closed by the server, unanswered
        _wait_for_no_handler_threads()

    def test_idle_keep_alive_is_closed_at_the_deadline(self, listener, monkeypatch):
        monkeypatch.setattr(JSONRequestHandler, "timeout", 0.5)
        with socket.create_connection(_host_port(listener.url), timeout=5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            with sock.makefile("rb") as reader:
                status, headers, _ = _read_response(reader)
                assert status == 200 and "connection" not in headers  # kept alive
                assert reader.read() == b""  # then closed by the server while idle
        _wait_for_no_handler_threads()

    def test_client_gone_before_its_reply_is_no_server_error(self, listener, monkeypatch, capsys):
        raised = []
        handle_error = listener.handle_error

        def recording(request, address):
            raised.append(sys.exc_info()[1])
            handle_error(request, address)  # the stdlib prints the traceback

        listener.handle_error = recording
        entered, gate = threading.Event(), threading.Event()
        healthz = listener.service.healthz

        def gated():
            entered.set()
            gate.wait(10.0)
            return healthz()

        monkeypatch.setattr(listener.service, "healthz", gated)
        sock = socket.create_connection(_host_port(listener.url), timeout=5.0)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert entered.wait(5.0)  # the handler is computing the reply
            # Linger 0: close sends a reset, so the reply's write must fail.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        finally:
            sock.close()
            gate.set()
        _wait_for_no_handler_threads()
        assert raised == []
        assert "Traceback" not in capsys.readouterr().err


class TestOverloadContract:
    def test_shed_503_and_timeout_504(self, start_server, served_scream_registry, scream_data):
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
        server = start_server(service)
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
        """Same requests over HTTP and in process → byte-identical payloads."""
        config = ServeConfig(max_batch=16)
        rng = check_random_state(42)
        starts = rng.integers(0, scream_data.X.shape[0] - 2, size=30)
        requests = [scream_data.X[start : start + 2].tolist() for start in starts]

        def load():
            return ServeService.from_registry(
                "scream", directory=served_scream_registry.directory, config=config
            )

        http_service = load()
        server = serve_http(http_service)
        target = HttpTarget(server.url)
        try:
            http_replies = [target.exchange(rows, timeout=5.0, plan={}) for rows in requests]
        finally:
            server.close()
        with load() as local_service:
            # The handler's own encoding: json.dumps(payload).encode("utf-8").
            local_replies = [
                (200, json.dumps(local_service.predict(rows)).encode("utf-8")) for rows in requests
            ]
        assert http_replies == local_replies  # statuses AND bodies, bitwise
        # The two services saw identical traffic and account for it identically.
        http_counters = http_service.metrics_registry.snapshot()["counters"]
        local_counters = local_service.metrics_registry.snapshot()["counters"]
        for key in ("requests", "points", "shed", "timeouts", "errors"):
            assert http_counters[key] == local_counters[key], key
        assert http_counters["requests"] == len(requests)
        assert http_counters["points"] == 2 * len(requests)


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
        with :class:`ServeError`.
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
            stranded = _PendingRequest(np.atleast_2d(scream_data.X[:1]), Stopwatch())
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
            assert engine.metrics.counter("errors").value == errors_before + 1
            assert engine.quiesce(2.0), "inflight accounting leaked"
        finally:
            gate.set()
            engine.bundle.automl.predict_batch = original
            engine.close()
