"""Tests for repro.serve.router — the transport-shared request dispatcher.

Covers the dispatcher's contract for the one service a listener serves:
route parsing, payload validation, and the typed-error → status mapping
that both transports share.  Malformed ``rows`` bodies get a typed 400
on real sockets (and leave the event-loop transport serving), and a
Hypothesis fuzzer checks that no JSON body on any path escapes the
status contract.
"""

import http.client
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    BackpressureError,
    RequestTimeoutError,
    ServeError,
    ValidationError,
)
from repro.serve import RequestDispatcher, ServeConfig, ServeService, serve_async_http, serve_http
from repro.serve.http import parse_json_body
from repro.serve.router import RouteNotFound


def _stub_service(version=1, name="m"):
    """Just enough surface for routing tests: no engine, no model."""
    return SimpleNamespace(
        version=version,
        bundle=SimpleNamespace(name=name),
        healthz=lambda: {"status": "ok", "version": version},
        metrics=lambda: {"counters": {"requests": 0}},
    )


class TestRequestDispatcher:
    def test_parse_post_route(self):
        dispatcher = RequestDispatcher(_stub_service())
        assert dispatcher.parse_post_route("/predict") == ("predict", None)
        assert dispatcher.parse_post_route("/predict/") == ("predict", None)
        assert dispatcher.parse_post_route("/predict/m") == ("predict", "m")
        assert dispatcher.parse_post_route("/feedback") == ("feedback", None)
        assert dispatcher.parse_post_route("/feedback/m") == ("feedback", "m")
        for path in ("/nope", "/predict/m/extra", "/", ""):
            with pytest.raises(RouteNotFound):
                dispatcher.parse_post_route(path)

    def test_service_for_plain_service_checks_name(self):
        service = _stub_service(name="only")
        dispatcher = RequestDispatcher(service)
        assert dispatcher.service_for(None) is service
        assert dispatcher.service_for("only") is service
        with pytest.raises(RouteNotFound, match="no model route 'other'"):
            dispatcher.service_for("other")

    def test_payload_validation(self):
        with pytest.raises(ValidationError, match='"rows"'):
            RequestDispatcher.rows_of({})
        assert RequestDispatcher.rows_of({"rows": [[1.0]]}) == [[1.0]]
        assert RequestDispatcher.limit_of({}) is None
        assert RequestDispatcher.limit_of({"limit": 3}) == 3
        for bad in (-1, "five", 1.5, True):
            with pytest.raises(ValidationError, match='"limit"'):
                RequestDispatcher.limit_of({"limit": bad})

    def test_error_status_contract(self):
        cases = [
            (ValidationError("bad"), 400, "ValidationError"),
            (BackpressureError("full"), 503, "BackpressureError"),
            (RequestTimeoutError("late"), 504, "RequestTimeoutError"),
            (ServeError("broke"), 500, "ServeError"),
        ]
        for error, status, type_name in cases:
            got_status, payload = RequestDispatcher.error_response(error)
            assert got_status == status
            assert payload == {"error": str(error), "type": type_name}
        with pytest.raises(KeyError):  # unmapped errors re-raise, never 200
            RequestDispatcher.error_response(KeyError("untyped"))

    def test_get_routes(self):
        dispatcher = RequestDispatcher(_stub_service())
        assert dispatcher.get("/healthz") == (200, {"status": "ok", "version": 1})
        assert dispatcher.get("/metrics") == (200, {"counters": {"requests": 0}})
        status, payload = dispatcher.get("/nope")
        assert status == 404 and payload["type"] == "NotFound"

    def test_post_against_live_service(self, served_scream_registry, scream_data):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=8),
        )
        with service:
            dispatcher = RequestDispatcher(service)
            status, payload = dispatcher.post("/predict", {"rows": scream_data.X[:2].tolist()})
            assert status == 200 and payload["model"] == "scream"
            status, payload = dispatcher.post("/predict/scream", {"rows": scream_data.X[:2].tolist()})
            assert status == 200
            status, payload = dispatcher.post("/predict/ghost", {"rows": [[0.0]]})
            assert status == 404 and payload["type"] == "NotFound"
            status, payload = dispatcher.post("/predict", {})
            assert status == 400 and payload["type"] == "ValidationError"
            status, payload = dispatcher.post("/feedback", {"limit": 5})
            assert status == 200 and "candidates" in payload


def _scream_service(registry) -> ServeService:
    return ServeService.from_registry(
        "scream", directory=registry.directory, config=ServeConfig(max_batch=8)
    )


def _post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, dict]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


#: Bodies whose rows are not a rectangular array of numbers.
MALFORMED_ROWS = [
    b'{"rows": "abc"}',
    b'{"rows": [[1, 2], [3]]}',
    b'{"rows": [["x", 1, 2, 3]]}',
    b'{"rows": {"a": 1}}',
    b'{"rows": [["1","2","3","4"]]}',
    b'{"rows": [["1",2,3,4]]}',
    ('{"rows": [[' + "9" * 400 + ", 1, 2, 3]]}").encode(),
]


class TestMalformedRows:
    """Bad ``rows`` get a typed 400 on real sockets, and serving goes on."""

    @pytest.mark.parametrize("factory", [serve_http, serve_async_http], ids=["threaded", "async"])
    def test_bad_rows_are_400_and_the_server_keeps_serving(
        self, factory, served_scream_registry, scream_data
    ):
        server = factory(_scream_service(served_scream_registry))
        host, port = server.url.split("//", 1)[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
        try:
            for body in MALFORMED_ROWS:
                status, payload = _post(conn, "/predict", body)
                assert status == 400, body
                assert payload["type"] == "ValidationError", body
            fresh = http.client.HTTPConnection(host, int(port), timeout=5.0)
            try:
                rows = json.dumps({"rows": scream_data.X[:2].tolist()}).encode()
                status, payload = _post(fresh, "/predict", rows)
            finally:
                fresh.close()
            assert status == 200 and payload["model"] == "scream"
        finally:
            conn.close()
            server.close()

    def test_loop_routes_are_gone(self, served_scream_registry):
        with _scream_service(served_scream_registry) as service:
            dispatcher = RequestDispatcher(service)
            assert dispatcher.post("/loop/tick", {})[0] == 404
            assert dispatcher.get("/loop/status")[0] == 404


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)
_NUMBER_ROWS = st.lists(st.lists(st.floats() | st.integers(), max_size=6), max_size=4)
_BODIES = _JSON | st.fixed_dictionaries(
    {}, optional={"rows": _NUMBER_ROWS | _JSON, "limit": st.integers() | _JSON}
)
_PATHS = (
    st.sampled_from(["/predict", "/predict/scream", "/feedback", "/feedback/scream", "/healthz", "/metrics"])
    | st.builds(lambda head, tail: head + tail, st.sampled_from(["/predict/", "/feedback/", "/", ""]), st.text())
)


def test_dispatcher_answers_every_body_and_path_within_the_contract(served_scream_registry):
    """Fuzz: any JSON body on any path gets a contract status; nothing raises."""
    with _scream_service(served_scream_registry) as service:
        dispatcher = RequestDispatcher(service)

        @settings(max_examples=150, deadline=None)
        @given(method=st.sampled_from(["GET", "POST"]), path=_PATHS, body=_BODIES)
        def exchange(method, path, body):
            if method == "GET":
                status, payload = dispatcher.get(path)
            else:
                try:  # what both transports do with the raw body first
                    parsed = parse_json_body(json.dumps(body).encode("utf-8"))
                except ValidationError as error:
                    status, payload = dispatcher.error_response(error)
                else:
                    status, payload = dispatcher.post(path, parsed)
            assert status in {200, 400, 404, 503, 504}
            json.dumps(payload)  # every answer must be encodable by a transport

        exchange()
