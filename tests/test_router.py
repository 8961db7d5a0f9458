"""Tests for repro.serve.router — multi-model routing and canary splits.

Covers the three promises the router makes:

1. **Deterministic canary selection** — the error-accumulator split is a
   pure function of request order and weight (no serving-path
   randomness), so a weight-0.25 canary serves exactly every 4th
   request, replayed identically.
2. **Manifest round-trip** — ``ModelRegistry.set_canary`` persists the
   split, survives a fresh registry instance, and
   ``ModelRouter.from_registry`` turns it into a live weighted route.
3. **Dispatcher contract** — route parsing, payload validation, and the
   typed-error → status mapping that both transports share.
"""

from types import SimpleNamespace

import pytest

from repro.exceptions import (
    BackpressureError,
    RegistryError,
    RequestTimeoutError,
    ServeError,
    ValidationError,
)
from repro.serve import ModelRegistry, ModelRouter, RequestDispatcher, ServeConfig, ServeService
from repro.serve.router import RouteNotFound


def _stub_service(version=1, name="m"):
    """Just enough surface for routing tests: no engine, no model."""
    return SimpleNamespace(
        version=version,
        bundle=SimpleNamespace(name=name),
        healthz=lambda: {"status": "ok", "version": version},
        metrics=lambda: {"counters": {"requests": 0}},
    )


@pytest.fixture(scope="module")
def canary_registry(tmp_path_factory, fitted_automl, scream_data):
    """A registry with two versions of ``m`` (v2 promoted)."""
    registry = ModelRegistry(tmp_path_factory.mktemp("canary-registry"))
    registry.register("m", fitted_automl, scream_data.X, scream_data.domains)
    registry.register("m", fitted_automl, scream_data.X, scream_data.domains)
    assert registry.promoted_version("m") == 2
    return registry


class TestRouterPick:
    def test_no_canary_always_primary(self):
        primary = _stub_service()
        router = ModelRouter({"m": primary})
        assert all(router.pick("m") is primary for _ in range(10))

    def test_quarter_weight_canary_serves_every_fourth(self):
        primary, canary = _stub_service(1), _stub_service(2)
        router = ModelRouter({"m": primary})
        router.set_canary("m", canary, 0.25)
        picks = [router.pick("m") for _ in range(8)]
        # Accumulator fires on overflow: requests 4 and 8 hit the canary.
        assert picks == [primary, primary, primary, canary] * 2

    def test_split_is_replay_identical(self):
        def sequence():
            primary, canary = _stub_service(1), _stub_service(2)
            router = ModelRouter({"m": primary})
            router.set_canary("m", canary, 0.3)
            return ["c" if router.pick("m") is canary else "p" for _ in range(50)]

        first = sequence()
        assert first == sequence()
        assert first.count("c") == 15  # 0.3 * 50, exactly

    def test_weight_bounds_validated(self):
        router = ModelRouter({"m": _stub_service()})
        for weight in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValidationError, match="canary weight"):
                router.set_canary("m", _stub_service(2), weight)

    def test_clear_canary_returns_detached_service(self):
        primary, canary = _stub_service(1), _stub_service(2)
        router = ModelRouter({"m": primary})
        router.set_canary("m", canary, 0.5)
        assert router.clear_canary("m") is canary
        assert all(router.pick("m") is primary for _ in range(4))
        assert router.clear_canary("m") is None  # idempotent

    def test_bare_predict_ambiguous_with_many_models(self):
        router = ModelRouter({"a": _stub_service(name="a"), "b": _stub_service(name="b")})
        with pytest.raises(RouteNotFound, match="ambiguous"):
            router.pick(None)
        with pytest.raises(RouteNotFound, match="no model route 'nope'"):
            router.pick("nope")
        # A single-model router keeps the PR-5 bare-path behaviour.
        single = ModelRouter({"a": _stub_service(name="a")})
        assert single.pick(None) is single.primary("a")

    def test_needs_at_least_one_service(self):
        with pytest.raises(ValidationError, match="at least one"):
            ModelRouter({})

    def test_names_and_views(self):
        router = ModelRouter({"b": _stub_service(name="b"), "a": _stub_service(name="a")})
        assert router.names() == ["a", "b"]
        router.set_canary("a", _stub_service(7), 0.1)
        health = router.healthz()
        assert health["status"] == "ok"
        assert health["models"]["a"]["canary"] == {"version": 7, "weight": 0.1}
        assert "canary" not in health["models"]["b"]
        metrics = router.metrics()
        assert metrics["models"]["a"]["canary_weight"] == 0.1
        assert metrics["models"]["a"]["canary_version"] == 7
        assert set(metrics["models"]["b"]) == {"primary"}


class TestRegistryCanaryManifest:
    def test_round_trip_and_persistence(self, canary_registry):
        canary_registry.set_canary("m", 1, 0.2)
        assert canary_registry.canary("m") == {"version": 1, "weight": 0.2}
        # A fresh instance reads the same manifest off disk.
        fresh = ModelRegistry(canary_registry.directory)
        assert fresh.canary("m") == {"version": 1, "weight": 0.2}
        fresh.clear_canary("m")
        assert fresh.canary("m") is None
        assert ModelRegistry(canary_registry.directory).canary("m") is None

    def test_validation(self, canary_registry):
        with pytest.raises(ValidationError, match="weight"):
            canary_registry.set_canary("m", 1, 1.5)
        with pytest.raises(RegistryError):
            canary_registry.set_canary("m", 99, 0.2)
        with pytest.raises(RegistryError):
            canary_registry.set_canary("ghost", 1, 0.2)


class TestRouterFromRegistry:
    def test_manifest_split_becomes_live_canary(self, canary_registry):
        canary_registry.set_canary("m", 1, 0.5)
        try:
            router = ModelRouter.from_registry(
                directory=canary_registry.directory,
                config=ServeConfig(max_batch=8),
            )
            try:
                assert router.names() == ["m"]
                assert router.primary("m").version == 2
                picks = [router.pick("m").version for _ in range(4)]
                assert picks == [2, 1, 2, 1]  # weight 0.5: every 2nd request
                assert router.healthz()["models"]["m"]["canary"]["version"] == 1
            finally:
                router.close()
        finally:
            canary_registry.clear_canary("m")

    def test_no_split_means_primary_only(self, canary_registry):
        router = ModelRouter.from_registry(
            ["m"],
            directory=canary_registry.directory,
            config=ServeConfig(max_batch=8),
        )
        with router:
            assert {router.pick("m").version for _ in range(5)} == {2}
            assert "canary" not in router.healthz()["models"]["m"]

    def test_canary_predictions_flow(self, canary_registry, scream_data, fitted_automl):
        """End to end: the canary service really answers its share."""
        canary_registry.set_canary("m", 1, 0.5)
        try:
            with ModelRouter.from_registry(
                directory=canary_registry.directory,
                config=ServeConfig(max_batch=8),
            ) as router:
                dispatcher = RequestDispatcher(router)
                rows = scream_data.X[:3].tolist()
                versions = []
                for _ in range(4):
                    status, payload = dispatcher.post("/predict/m", {"rows": rows})
                    assert status == 200
                    assert payload["labels"] == fitted_automl.predict(scream_data.X[:3]).tolist()
                    versions.append(payload["version"])
                assert versions == [2, 1, 2, 1]
                assert router.quiesce(5.0)
        finally:
            canary_registry.clear_canary("m")


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
        assert dispatcher.service_for("only", pick=True) is service
        with pytest.raises(RouteNotFound, match="no model route 'other'"):
            dispatcher.service_for("other")

    def test_payload_validation(self):
        with pytest.raises(ValidationError, match='"rows"'):
            RequestDispatcher.rows_of({})
        assert RequestDispatcher.rows_of({"rows": [[1.0]]}) == [[1.0]]
        assert RequestDispatcher.limit_of({}) is None
        assert RequestDispatcher.limit_of({"limit": 3}) == 3
        for bad in (-1, "five", 1.5):
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


class _StubLoop:
    """Duck-typed retraining loop: tick()/status(), deterministic payloads."""

    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1
        return {"tick": self.ticks, "promoted": False}

    def status(self):
        return {"ticks": self.ticks, "state": "idle"}


class TestLoopRoutes:
    """The /loop/tick admin surface, shared by both HTTP transports."""

    def test_parse_loop_tick_route(self):
        dispatcher = RequestDispatcher(_stub_service())
        assert dispatcher.parse_post_route("/loop/tick") == ("loop", None)
        for path in ("/loop", "/loop/tick/extra", "/loop/other"):
            with pytest.raises(RouteNotFound):
                dispatcher.parse_post_route(path)

    def test_tick_without_attached_loop_is_404(self):
        dispatcher = RequestDispatcher(_stub_service())
        status, payload = dispatcher.post("/loop/tick", {})
        assert status == 404 and payload["type"] == "NotFound"
        status, payload = dispatcher.get("/loop/status")
        assert status == 404  # the route only exists once a loop is attached

    def test_attached_loop_ticks_and_reports(self):
        dispatcher = RequestDispatcher(_stub_service())
        dispatcher.attach_loop(_StubLoop())
        assert dispatcher.post("/loop/tick", {}) == (200, {"tick": 1, "promoted": False})
        assert dispatcher.post("/loop/tick", {}) == (200, {"tick": 2, "promoted": False})
        assert dispatcher.get("/loop/status") == (200, {"ticks": 2, "state": "idle"})

    def test_transports_serve_identical_loop_routes(self):
        """POST /loop/tick and GET /loop/status are bitwise-equal on both servers."""
        import urllib.request

        from repro.serve import serve_async_http, serve_http

        def exchange(url, method, path, body=None):
            request = urllib.request.Request(
                url + path, data=body, method=method,
                headers={"Content-Type": "application/json"} if body else {},
            )
            try:
                with urllib.request.urlopen(request, timeout=5.0) as response:
                    return response.status, response.read()
            except urllib.error.HTTPError as error:
                return error.code, error.read()

        transcripts = {}
        for transport, factory in (("threaded", serve_http), ("async", serve_async_http)):
            service = SimpleNamespace(
                healthz=lambda: {"status": "ok"},
                metrics=lambda: {"counters": {}},
                quiesce=lambda timeout=None: True,
                close=lambda: None,
            )
            server = factory(service)
            server.dispatcher.attach_loop(_StubLoop())
            try:
                transcripts[transport] = [
                    exchange(server.url, "POST", "/loop/tick", b"{}"),
                    exchange(server.url, "POST", "/loop/tick", b"{}"),
                    exchange(server.url, "GET", "/loop/status"),
                    exchange(server.url, "POST", "/loop/tick/extra", b"{}"),
                ]
            finally:
                server.close()
        assert transcripts["threaded"] == transcripts["async"]
        statuses = [status for status, _ in transcripts["threaded"]]
        assert statuses == [200, 200, 200, 404]
