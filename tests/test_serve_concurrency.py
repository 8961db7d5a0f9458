"""Concurrency tests for repro.serve: the engine under parallel load.

Hammers the service from many threads and checks the engine's
core promises hold under contention:

- **no drops, no duplicates** — every accepted request gets exactly one
  reply, and the reply is for *its own* rows (micro-batch fan-out never
  crosses wires);
- **determinism** — every served label matches offline
  ``AutoML.predict`` row for row, whatever batch a row landed in;
- **bounded overload** — with a tiny queue and a slowed model, excess
  requests shed with :class:`BackpressureError` instead of blocking;
- **honest metrics** — the ``/metrics`` counters reconcile exactly with
  a ground-truth log the test threads keep themselves.
"""

import threading

import numpy as np
import pytest

from repro.exceptions import BackpressureError
from repro.serve import InferenceEngine, ModelRegistry, ServeConfig, ServeService

N_THREADS = 8
REQUESTS_PER_THREAD = 20
ROWS_PER_REQUEST = 3


@pytest.fixture(scope="module")
def bundle(tmp_path_factory, fitted_automl, scream_data):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.register("scream", fitted_automl, scream_data.X, scream_data.domains)
    return registry.load("scream")


class TestParallelClients:
    def test_no_drops_no_duplicates_and_deterministic(self, bundle, fitted_automl, scream_data):
        service = ServeService(bundle, ServeConfig(max_batch=8, queue_bound=512))
        X = scream_data.X
        offline_labels = fitted_automl.predict(X)
        results: dict[tuple[int, int], dict] = {}
        errors: list[BaseException] = []
        lock = threading.Lock()

        def worker(thread_index: int) -> None:
            for request_index in range(REQUESTS_PER_THREAD):
                # Each request targets a distinct, known row window so a
                # crossed wire (reply for someone else's rows) is detectable.
                start = (thread_index * REQUESTS_PER_THREAD + request_index) * ROWS_PER_REQUEST % (
                    X.shape[0] - ROWS_PER_REQUEST
                )
                rows = X[start : start + ROWS_PER_REQUEST]
                try:
                    response = service.predict(rows.tolist())
                except BaseException as error:  # collected, not raised mid-thread
                    with lock:
                        errors.append(error)
                    return
                with lock:
                    results[(thread_index, request_index)] = {"start": start, "response": response}

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        service.close()

        assert errors == []
        # No drops: every (thread, request) pair answered exactly once.
        assert len(results) == N_THREADS * REQUESTS_PER_THREAD
        # No crossed wires + determinism: each reply matches offline
        # predictions for exactly the rows that request sent.
        for entry in results.values():
            start = entry["start"]
            expected = offline_labels[start : start + ROWS_PER_REQUEST].tolist()
            assert entry["response"]["labels"] == expected
            np.testing.assert_allclose(
                np.asarray(entry["response"]["proba"]),
                fitted_automl.predict_proba(X[start : start + ROWS_PER_REQUEST]),
                rtol=0,
                atol=1e-12,
            )

    def test_metrics_reconcile_with_ground_truth(self, bundle, scream_data):
        service = ServeService(bundle, ServeConfig(max_batch=8, queue_bound=512))
        X = scream_data.X
        sent_requests = 0
        sent_points = 0
        lock = threading.Lock()

        def worker() -> None:
            nonlocal sent_requests, sent_points
            for index in range(REQUESTS_PER_THREAD):
                rows = X[index % 16 : index % 16 + 2]
                service.predict(rows.tolist())
                with lock:
                    sent_requests += 1
                    sent_points += rows.shape[0]

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        snapshot = service.metrics()
        service.close()

        counters = snapshot["counters"]
        assert counters["requests"] == sent_requests == N_THREADS * REQUESTS_PER_THREAD
        assert counters["points"] == sent_points
        assert counters["shed"] == 0 and counters["timeouts"] == 0 and counters["errors"] == 0
        # Every accepted request produced exactly one latency observation,
        # and batches cover exactly the points that were sent.
        histograms = snapshot["histograms"]
        assert histograms["latency_seconds"]["count"] == sent_requests
        assert histograms["batch_size"]["sum"] == sent_points
        assert histograms["batch_size"]["count"] == counters["batches"]

    def test_overload_sheds_at_configured_bound(self, bundle, scream_data):
        config = ServeConfig(max_batch=1, queue_bound=2, request_timeout=30.0)
        engine = InferenceEngine(bundle, config)
        gate = threading.Event()
        original = bundle.automl.predict_batch

        def slow_predict_batch(X):
            gate.wait(10.0)  # hold every batch until the test releases it
            return original(X)

        engine.bundle.automl.predict_batch = slow_predict_batch
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker() -> None:
            try:
                engine.predict(scream_data.X[:1])
                outcome = "ok"
            except BackpressureError:
                outcome = "shed"
            with lock:
                outcomes.append(outcome)

        try:
            threads = [threading.Thread(target=worker) for _ in range(12)]
            for thread in threads:
                thread.start()
            # Let every worker reach submit before opening the gate: with a
            # wedged batcher, at most 1 (in flight) + 2 (queued) can be
            # accepted; the rest must shed rather than block.
            for _ in range(400):
                with lock:
                    if len(outcomes) >= 12 - (1 + config.queue_bound):
                        break
                threading.Event().wait(0.005)
            gate.set()
            for thread in threads:
                thread.join(30.0)
        finally:
            gate.set()
            engine.bundle.automl.predict_batch = original
            engine.close()

        shed = outcomes.count("shed")
        ok = outcomes.count("ok")
        assert ok + shed == 12
        assert shed >= 12 - (1 + config.queue_bound + 1)  # nearly all excess shed
        assert ok >= 1
        assert engine.metrics.counter("shed").value == shed
        assert engine.metrics.counter("requests").value == ok


class TestHotSwapUnderLoad:
    """Concurrent /predict across promote()/rollback(): whole versions only."""

    def test_swaps_never_tear(self, tmp_path, scream_data):
        from repro.automl import AutoMLClassifier

        X, y = scream_data.X, scream_data.y
        # v1 learns the labels, v2 learns their inversion, so a reply pairing
        # v1's version tag with v2's labels (a torn read) is detectable on
        # nearly every row.
        automl_v1 = AutoMLClassifier(
            n_iterations=4, ensemble_size=3, min_distinct_members=2, random_state=1
        ).fit(X, y)
        automl_v2 = AutoMLClassifier(
            n_iterations=4, ensemble_size=3, min_distinct_members=2, random_state=2
        ).fit(X, 1 - y)
        registry = ModelRegistry(tmp_path / "registry")
        registry.register("swap", automl_v1, X, scream_data.domains)
        registry.register("swap", automl_v2, X, scream_data.domains, promote=False)
        service = ServeService.from_registry(
            "swap",
            directory=registry.directory,
            config=ServeConfig(max_batch=8, queue_bound=512, request_timeout=30.0),
        )
        offline = {1: automl_v1.predict(X), 2: automl_v2.predict(X)}

        stop = threading.Event()
        mismatches: list[tuple[int, list, list]] = []
        errors: list[BaseException] = []
        served = [0]
        lock = threading.Lock()

        def traffic(thread_index: int) -> None:
            index = thread_index
            while not stop.is_set():
                start = index % (X.shape[0] - ROWS_PER_REQUEST)
                index += 7
                rows = X[start : start + ROWS_PER_REQUEST]
                try:
                    response = service.predict(rows)
                except BackpressureError:
                    continue
                except BaseException as error:
                    with lock:
                        errors.append(error)
                    return
                expected = offline[response["version"]][start : start + ROWS_PER_REQUEST].tolist()
                with lock:
                    served[0] += 1
                    if response["labels"] != expected:
                        mismatches.append((response["version"], response["labels"], expected))

        threads = [threading.Thread(target=traffic, args=(i,)) for i in range(N_THREADS)]
        for thread in threads:
            thread.start()
        seen_versions = set()
        try:
            # Flip the promoted version back and forth under live traffic.
            for flip in range(6):
                registry.promote("swap", 2 if flip % 2 == 0 else 1)
                service.reload()
                seen_versions.add(service.version)
                threading.Event().wait(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(30.0)
            service.close()

        assert errors == []
        assert mismatches == []  # every reply was a whole version
        assert seen_versions == {1, 2}
        assert served[0] > 0


class TestShadowDoesNotChangeServedBytes:
    def test_mirroring_leaves_responses_bitwise_identical(self, bundle, fitted_automl, scream_data):
        from repro.serve import ShadowMirror

        X = scream_data.X
        config = ServeConfig(max_batch=8, queue_bound=512)

        def serve_all(attach_mirror: bool):
            service = ServeService(bundle, config)
            mirror = None
            if attach_mirror:
                # The candidate disagrees with the incumbent (trained on
                # inverted labels would be ideal, but *any* model works:
                # mirrored predictions must never reach a caller).
                mirror = ShadowMirror(fitted_automl, fraction=1.0, max_rows=256)
                service.engine.attach_shadow(mirror)
            responses = {}
            errors: list[BaseException] = []
            lock = threading.Lock()

            def worker(thread_index: int) -> None:
                for request_index in range(REQUESTS_PER_THREAD):
                    start = (
                        thread_index * REQUESTS_PER_THREAD + request_index
                    ) * ROWS_PER_REQUEST % (X.shape[0] - ROWS_PER_REQUEST)
                    try:
                        response = service.predict(X[start : start + ROWS_PER_REQUEST])
                    except BaseException as error:
                        with lock:
                            errors.append(error)
                        return
                    with lock:
                        responses[(thread_index, request_index)] = response

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            # Close before snapshotting: mirroring runs after replies are
            # delivered, so the last batch's shadow counters land only once
            # the batcher thread has drained.
            service.close()
            metrics = service.metrics()
            assert errors == []
            return responses, metrics, mirror

        plain, plain_metrics, _ = serve_all(attach_mirror=False)
        shadowed, shadow_metrics, mirror = serve_all(attach_mirror=True)

        # Bitwise-identical served bytes, request by request.
        assert plain.keys() == shadowed.keys()
        for key, response in plain.items():
            assert shadowed[key]["labels"] == response["labels"]
            np.testing.assert_array_equal(
                np.asarray(shadowed[key]["proba"]), np.asarray(response["proba"])
            )
            assert shadowed[key]["in_uncertain_region"] == response["in_uncertain_region"]

        # The mirror really ran (fraction=1.0 mirrors every batch) ...
        stats = mirror.stats()
        assert stats["mirrored_batches"] == shadow_metrics["counters"]["batches"]
        assert stats["mirrored_rows"] == shadow_metrics["counters"]["points"]
        assert shadow_metrics["counters"]["shadow_rows"] == stats["mirrored_rows"]
        assert stats["errors"] == 0
        # ... and no request was shed or failed because of it.
        assert shadow_metrics["counters"]["shed"] == plain_metrics["counters"]["shed"] == 0
        assert shadow_metrics["counters"]["errors"] == 0
