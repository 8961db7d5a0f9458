"""Tests for repro.serve — registry, engine, monitor, HTTP transport.

The acceptance scenario from the serving milestone is covered end to end:
register a fitted ensemble with its precomputed feedback artifact, start
the service in-process, send Table-1-style points, and check that

- predictions are **bitwise identical** to offline ``AutoML.predict``
  (batching changes when rows are evaluated, never what is computed);
- points inside known feedback subspaces come back flagged
  ``in_uncertain_region=True`` and surface in the labeling queue;
- the HTTP transport returns the same payloads with the documented
  status-code contract (400/503/504).
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import (
    BackpressureError,
    RegistryError,
    RequestTimeoutError,
    ValidationError,
)
from repro.serve import (
    InProcessClient,
    InferenceEngine,
    LabelingQueue,
    MetricsRegistry,
    ModelRegistry,
    ServeConfig,
    ServeService,
    committee_disagreement,
    serve_http,
)
from repro.runtime.clock import Stopwatch


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("registry")


@pytest.fixture(scope="module")
def registry(registry_dir, fitted_automl, scream_data):
    """A registry holding the shared fitted ensemble as ``scream`` v1."""
    registry = ModelRegistry(registry_dir)
    version = registry.register(
        "scream", fitted_automl, scream_data.X, scream_data.domains
    )
    assert version == 1
    return registry


@pytest.fixture()
def service(registry):
    service = ServeService.from_registry(
        "scream", directory=registry.directory, config=ServeConfig(max_batch=16)
    )
    yield service
    service.close()


class TestModelRegistry:
    def test_register_load_round_trip(self, registry, fitted_automl, scream_data):
        bundle = registry.load("scream")
        assert bundle.name == "scream"
        assert bundle.n_features == scream_data.X.shape[1]
        assert bundle.classes == [c.item() for c in fitted_automl.classes_]
        assert bundle.report.committee_size >= 2
        X = scream_data.X[:8]
        np.testing.assert_array_equal(bundle.automl.predict(X), fitted_automl.predict(X))

    def test_versions_promote_rollback(self, tmp_path, registry, fitted_automl, scream_data):
        local = ModelRegistry(tmp_path)
        v1 = local.register("m", fitted_automl, scream_data.X, scream_data.domains)
        v2 = local.register("m", fitted_automl, scream_data.X, scream_data.domains,
                            metadata={"note": "retrained"})
        assert (v1, v2) == (1, 2)
        assert local.promoted_version("m") == 2
        assert local.rollback("m") == 1
        assert local.promoted_version("m") == 1
        local.promote("m", 2)
        assert local.promoted_version("m") == 2
        versions = local.versions("m")
        assert sorted(versions) == [1, 2]
        assert versions[2]["metadata"] == {"note": "retrained"}

    def test_manifest_survives_new_instance(self, registry):
        fresh = ModelRegistry(registry.directory)
        assert fresh.names() == ["scream"]
        assert fresh.promoted_version("scream") == 1

    def test_identical_bundles_share_one_artifact(self, tmp_path, registry, fitted_automl, scream_data):
        local = ModelRegistry(tmp_path)
        local.register("m", fitted_automl, scream_data.X, scream_data.domains)
        entries_after_first = local.cache.info()["entries"]
        local.register("m", fitted_automl, scream_data.X, scream_data.domains)
        assert local.cache.info()["entries"] == entries_after_first  # content-addressed dedup

    def test_errors(self, tmp_path, registry, fitted_automl, scream_data):
        with pytest.raises(RegistryError, match="no registered model"):
            registry.load("nope")
        with pytest.raises(RegistryError, match="no version 9"):
            registry.load("scream", version=9)
        with pytest.raises(ValidationError):
            registry.register("bad/name", fitted_automl, scream_data.X, scream_data.domains)
        local = ModelRegistry(tmp_path)
        local.register("m", fitted_automl, scream_data.X, scream_data.domains, promote=False)
        with pytest.raises(RegistryError, match="no promoted version"):
            local.load("m")
        with pytest.raises(RegistryError, match="no previous version"):
            local.rollback("m")


class TestMonitorPieces:
    def test_committee_disagreement_shape_and_values(self):
        stack = np.zeros((3, 4, 2))
        stack[0, 1, 0] = 1.0  # members split on point 1, class 0
        d = committee_disagreement(stack)
        assert d.shape == (4,)
        assert d[1] > 0 and d[0] == d[2] == d[3] == 0
        with pytest.raises(ValidationError):
            committee_disagreement(np.zeros((3, 4)))

    def test_labeling_queue_bounds_and_drain(self):
        queue = LabelingQueue(capacity=2)
        assert queue.offer({"a": 1}) and queue.offer({"a": 2})
        assert not queue.offer({"a": 3})  # full: newest dropped, not rotated
        stats = queue.stats()
        assert stats["enqueued"] == 2 and stats["dropped"] == 1 and stats["depth"] == 2
        assert [e["a"] for e in queue.drain(1)] == [1]
        assert [e["a"] for e in queue.drain()] == [2]
        assert len(queue) == 0


class TestEndToEndServing:
    def test_predictions_bitwise_identical_to_offline(self, service, fitted_automl, scream_data):
        """The acceptance core: serving == offline, bit for bit."""
        client = InProcessClient(service)
        points = scream_data.X[:12]
        response = client.predict(points.tolist())
        assert response["labels"] == fitted_automl.predict(points).tolist()
        np.testing.assert_array_equal(
            np.asarray(response["proba"]), fitted_automl.predict_proba(points)
        )

    def test_feedback_region_points_flagged_and_queued(self, service, registry):
        """Points inside the registered subspace -> in_uncertain_region=True."""
        bundle = registry.load("scream")
        region = bundle.report.region
        assert region, "fixture committee must disagree somewhere"
        from repro.rng import check_random_state

        inside = region.sample(6, check_random_state(5))
        client = InProcessClient(service)
        client.feedback()  # drain anything earlier tests queued
        response = client.predict(inside.tolist())
        assert response["in_uncertain_region"] == [True] * 6
        assert response["in_feedback_region"] == [True] * 6
        drained = client.feedback()
        assert len(drained["candidates"]) == 6
        assert all(c["in_feedback_region"] for c in drained["candidates"])

    def test_metrics_reflect_traffic(self, service, scream_data):
        client = InProcessClient(service)
        before = client.metrics()["counters"]["requests"]
        client.predict(scream_data.X[:3].tolist())
        snapshot = client.metrics()
        assert snapshot["counters"]["requests"] == before + 1
        assert snapshot["histograms"]["latency_seconds"]["count"] >= 1
        assert "p95" in snapshot["histograms"]["latency_seconds"]
        assert "labeling_queue" in snapshot

    def test_healthz_identity(self, service, scream_data):
        health = InProcessClient(service).healthz()
        assert health["status"] == "ok"
        assert health["model"] == "scream" and health["version"] == 1
        assert health["feature_names"] == [d.name for d in scream_data.domains]


class TestEngineBehavior:
    def test_validation_errors(self, registry):
        bundle = registry.load("scream")
        with InferenceEngine(bundle) as engine:
            with pytest.raises(ValidationError, match="features"):
                engine.predict([[1.0]])
            with pytest.raises(ValidationError, match="NaN"):
                engine.predict([[np.nan] * bundle.n_features])

    def test_backpressure_sheds_with_typed_error(self, registry, scream_data):
        bundle = registry.load("scream")
        engine = InferenceEngine(bundle, ServeConfig(queue_bound=1, max_batch=1))
        # Wedge the batcher with a slow fake so the queue backs up.
        release = threading.Event()
        original = bundle.automl.predict_batch

        def slow_predict_batch(X):
            release.wait(5.0)
            return original(X)

        engine.bundle.automl.predict_batch = slow_predict_batch
        try:
            first = engine.submit(scream_data.X[:1])  # consumed by the batcher, then blocks
            import time  # reprolint: disable=RL004

            for _ in range(200):  # wait for the batcher to take the first item
                if engine._queue.qsize() == 0:
                    break
                time.sleep(0.005)  # reprolint: disable=RL004
            engine.submit(scream_data.X[:1])  # fills the queue (bound 1)
            with pytest.raises(BackpressureError):
                engine.submit(scream_data.X[:1])
            assert engine.metrics.counter("shed").value == 1
        finally:
            release.set()
            first.event.wait(5.0)
            engine.bundle.automl.predict_batch = original
            engine.close()

    def test_request_timeout(self, registry, scream_data):
        bundle = registry.load("scream")
        engine = InferenceEngine(bundle, ServeConfig(max_batch=1))
        original = bundle.automl.predict_batch
        release = threading.Event()

        def hung_predict_batch(X):
            release.wait(5.0)
            return original(X)

        engine.bundle.automl.predict_batch = hung_predict_batch
        try:
            with pytest.raises(RequestTimeoutError):
                engine.predict(scream_data.X[:1], timeout=0.05)
            assert engine.metrics.counter("timeouts").value == 1
        finally:
            release.set()
            engine.bundle.automl.predict_batch = original
            engine.close()

    def test_lone_request_is_served_without_waiting_for_company(self, registry, scream_data):
        bundle = registry.load("scream")
        with InferenceEngine(bundle) as engine:
            engine.predict(scream_data.X[:1])  # warm-up
            seconds = []
            for index in range(20):
                watch = Stopwatch()
                engine.predict(scream_data.X[index : index + 1])
                seconds.append(watch.elapsed())
        assert np.median(seconds) < 0.005, f"median lone-request latency {np.median(seconds) * 1e3:.2f} ms"

    @pytest.mark.parametrize("max_batch, sizes", [(8, [1, 5]), (2, [1, 2, 2, 1])])
    def test_batch_takes_what_queued_while_the_batcher_was_busy(
        self, registry, scream_data, max_batch, sizes
    ):
        bundle = registry.load("scream")
        engine = InferenceEngine(bundle, ServeConfig(max_batch=max_batch))
        original = bundle.automl.predict_batch
        entered, release = threading.Event(), threading.Event()
        seen = []

        def recording_predict_batch(X):
            seen.append(X.shape[0])
            if len(seen) == 1:
                entered.set()
                release.wait(5.0)
            return original(X)

        engine.bundle.automl.predict_batch = recording_predict_batch
        try:
            requests = [engine.submit(scream_data.X[:1])]
            assert entered.wait(5.0)  # the batcher is busy with the first request
            requests += [engine.submit(scream_data.X[index : index + 1]) for index in range(1, 6)]
            release.set()
            for pending in requests:
                assert pending.event.wait(5.0) and pending.error is None
            assert seen == sizes
        finally:
            release.set()
            engine.bundle.automl.predict_batch = original
            engine.close()

    def test_model_error_propagates_to_waiter(self, registry, scream_data):
        bundle = registry.load("scream")
        engine = InferenceEngine(bundle, ServeConfig(max_batch=4))
        original = bundle.automl.predict_batch

        def boom(X):
            raise RuntimeError("member exploded")

        engine.bundle.automl.predict_batch = boom
        try:
            with pytest.raises(RuntimeError, match="member exploded"):
                engine.predict(scream_data.X[:2])
            assert engine.metrics.counter("errors").value == 1
        finally:
            engine.bundle.automl.predict_batch = original
            engine.close()


class TestMetricsRegistry:
    def test_counter_and_histogram(self):
        metrics = MetricsRegistry()
        metrics.counter("hits").inc(3)
        assert metrics.counter("hits").value == 3
        with pytest.raises(ValidationError):
            metrics.counter("hits").inc(-1)
        histogram = metrics.histogram("sizes", window=4)
        for value in (1, 2, 3, 4, 5, 6):  # overruns the window; count stays exact
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 6 and summary["sum"] == 21.0
        assert summary["max"] == 6.0  # quantiles come from the retained window
        with pytest.raises(ValidationError):
            metrics.histogram("hits")  # name collision across kinds

    def test_snapshot_shape(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc()
        metrics.histogram("b").observe(1.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["histograms"]["b"]["count"] == 1


def _http(url: str, payload: dict | None = None) -> dict:
    """GET ``url`` (or POST ``payload`` as JSON) and decode the JSON reply."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=30.0) as response:
        return json.loads(response.read())


class TestHttpTransport:
    @pytest.fixture()
    def server(self, registry):
        service = ServeService.from_registry(
            "scream", directory=registry.directory, config=ServeConfig(max_batch=16)
        )
        server = serve_http(service)  # port 0: OS-assigned
        yield server
        server.close()

    def test_all_four_endpoints(self, server, fitted_automl, scream_data):
        health = _http(server.url + "/healthz")
        assert health["status"] == "ok" and health["model"] == "scream"
        points = scream_data.X[:5]
        response = _http(server.url + "/predict", {"rows": points.tolist()})
        assert response["labels"] == fitted_automl.predict(points).tolist()
        np.testing.assert_array_equal(
            np.asarray(response["proba"]), fitted_automl.predict_proba(points)
        )
        metrics = _http(server.url + "/metrics")
        assert metrics["counters"]["requests"] >= 1
        feedback = _http(server.url + "/feedback", {"limit": 10})
        assert "candidates" in feedback and "queue" in feedback

    def test_error_contract(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:  # 400: malformed request
            _http(server.url + "/predict", {"rows": [[1.0]]})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["type"] == "ValidationError"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope")
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            server.url + "/predict", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["type"] == "ValidationError"


class TestRegistryGC:
    def test_gc_removes_only_unreferenced_entries(self, tmp_path, fitted_automl, scream_data):
        registry = ModelRegistry(tmp_path)
        registry.register("m", fitted_automl, scream_data.X, scream_data.domains)
        registry.register("m", fitted_automl, scream_data.X, scream_data.domains,
                          metadata={"note": "v2"})
        orphans = [
            registry.cache.publish({"stale": index}) for index in range(3)
        ]
        referenced = set(registry.cache.keys()) - set(orphans)

        # Dry run: counts report, nothing is deleted.
        report = registry.gc(dry_run=True)
        assert report["unreferenced"] == 3
        assert report["removed"] == 0
        assert report["bytes_freed"] > 0
        assert set(registry.cache.keys()) == referenced | set(orphans)

        # Real run: orphans go, referenced artifacts stay loadable.
        report = registry.gc()
        assert report["removed"] == 3
        assert set(registry.cache.keys()) == referenced
        for version in (1, 2):
            assert registry.load("m", version).name == "m"

    def test_gc_on_clean_registry_is_a_noop(self, tmp_path, fitted_automl, scream_data):
        registry = ModelRegistry(tmp_path)
        registry.register("m", fitted_automl, scream_data.X, scream_data.domains)
        report = registry.gc()
        assert report == {"referenced": 1, "unreferenced": 0, "removed": 0, "bytes_freed": 0}


class TestRegistryLoadErrors:
    def test_never_promoted_name_lists_available_versions(self, tmp_path, fitted_automl, scream_data):
        registry = ModelRegistry(tmp_path)
        registry.register("m", fitted_automl, scream_data.X, scream_data.domains, promote=False)
        registry.register("m", fitted_automl, scream_data.X, scream_data.domains, promote=False)
        with pytest.raises(RegistryError) as excinfo:
            registry.load("m")
        message = str(excinfo.value)
        assert "no promoted version" in message
        assert "[1, 2]" in message  # the available versions, spelled out
        # Explicit versions still load fine without a promotion.
        assert registry.load("m", 2).name == "m"


class TestLabelingQueueDurability:
    def test_journal_restores_backlog(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        queue = LabelingQueue(8, snapshot_path=str(path))
        for index in range(5):
            assert queue.offer({"point": [float(index)], "disagreement": 0.5})
        drained = queue.drain(2)
        assert len(drained) == 2
        stats = queue.stats()
        assert stats["depth"] == 3
        assert stats["persisted"] == 6  # 5 offers + 1 drain record

        # A fresh queue on the same journal replays to the same backlog.
        restored = LabelingQueue(8, snapshot_path=str(path))
        assert len(restored) == 3
        assert restored.drain()[0]["point"] == [2.0]

    def test_torn_and_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(
            '{"op": "offer", "entry": {"point": [1.0]}}\n'
            "not json at all\n"
            '{"op": "offer", "entry": {"point": [2.0]}}\n'
            '{"op": "offer", "entry"'  # torn final line from a crash
        )
        queue = LabelingQueue(8, snapshot_path=str(path))
        assert len(queue) == 2

    def test_no_snapshot_means_no_persistence(self, tmp_path):
        queue = LabelingQueue(8)
        queue.offer({"point": [0.0]})
        assert queue.stats()["persisted"] == 0

    def test_service_persist_labels_survives_restart(self, registry, scream_data):
        config = ServeConfig(max_batch=8, disagreement_threshold=0.0)
        with ServeService.from_registry(
            "scream", directory=registry.directory, config=config, persist_labels=True
        ) as service:
            # Threshold 0 flags everything, so the queue certainly fills.
            service.predict(scream_data.X[:6].tolist())
            depth = service.feedback(limit=0)["queue"]["depth"]
            assert depth > 0
        journal = registry.directory / "labeling" / "scream.jsonl"
        assert journal.exists()
        with ServeService.from_registry(
            "scream", directory=registry.directory, config=config, persist_labels=True
        ) as service:
            assert service.feedback(limit=0)["queue"]["depth"] == depth
