"""Tests for repro.store — artifact server, wire protocol, remote tier.

Three promises under test:

1. **Wire integrity** — a blob survives publish→fetch bitwise (property-
   tested over arbitrary bytes); a digest mismatch is rejected with a
   typed 400 and *nothing* is installed; oversized bodies get a typed
   413; corrupted transfers are never returned as data by the client.
2. **Remote tier semantics** — read-through installs are byte-identical
   to local execution, write-through pushes replicate to the origin,
   retries are bounded and deterministic, and a dead peer trips the
   breaker into local-only degradation instead of failing the run.
3. **The grid contract** — an empty local cache against a warmed store
   executes zero tasks and reproduces records bitwise; killing the
   server mid-run degrades gracefully and is recorded in grid metadata.

Plus regression coverage for the cache races the store work surfaced:
concurrent same-key installs can never tear a blob, and ``remove``/
``prune``/``info`` tolerate entries vanishing mid-sweep.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    PayloadTooLargeError,
    StoreError,
    StoreIntegrityError,
    StoreUnavailableError,
    ValidationError,
)
from repro.experiments import Table1Config, run_table1
from repro.experiments.grid import clear_dataset_memo
from repro.runtime import ArtifactCache, SerialExecutor, TaskRuntime
from repro.store import (
    BLOB_DIGEST_HEADER,
    RemoteCacheTier,
    StoreClient,
    StoreDispatcher,
    StoreService,
    blob_digest,
    serve_store_http,
)
from repro.store.server import BLOB_SIZE_HEADER
from repro.store.service import CHUNK_BYTES


def _key(tag: str) -> str:
    """A valid (64-hex) store key derived from a test tag."""
    return hashlib.sha256(tag.encode("utf-8")).hexdigest()


def _raw(url: str, method: str, path: str, body: bytes | None = None, headers=None):
    """One HTTP exchange; errors come back as (status, body) like successes."""
    request = urllib.request.Request(url + path, data=body, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _put(service: StoreService, key: str, blob: bytes, claimed: str | None) -> dict:
    """Install one in-memory blob through the streamed PUT path."""
    return service.put_stream(key, (blob,), claimed, declared_length=len(blob))


@pytest.fixture(params=[pytest.param(serve_store_http, id="threaded")])
def store_server(request, tmp_path):
    service = StoreService(tmp_path / "store")
    server = request.param(service)
    yield server
    server.close()


class TestStoreService:
    def test_put_get_round_trip(self, tmp_path):
        service = StoreService(tmp_path)
        key, blob = _key("rt"), b"artifact bytes" * 100
        result = _put(service, key, blob, blob_digest(blob))
        assert result == {"key": key, "bytes": len(blob), "sha256": blob_digest(blob), "installed": True}
        handle, size, digest = service.open_blob(key)
        with handle:
            assert handle.read() == blob
        assert size == len(blob) and digest == blob_digest(blob)
        assert service.stat_key(key)["bytes"] == len(blob)

    def test_digest_mismatch_installs_nothing(self, tmp_path):
        service = StoreService(tmp_path)
        key = _key("bad-digest")
        with pytest.raises(StoreIntegrityError, match="not installing"):
            _put(service, key, b"real bytes", blob_digest(b"other bytes"))
        assert service.cache.read_blob(key) is None
        assert not list(tmp_path.glob("*/*.tmp"))  # the rejected temp file is gone too
        assert service.metrics()["counters"]["integrity_rejections"] == 1

    def test_missing_digest_header_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="X-Repro-Blob-SHA256"):
            _put(StoreService(tmp_path), _key("k"), b"x", None)

    def test_oversize_rejected_declared_and_streamed(self, tmp_path):
        service = StoreService(tmp_path, max_blob_bytes=16)
        key, blob = _key("big"), b"y" * 32
        with pytest.raises(PayloadTooLargeError, match="exceeds the store bound"):
            _put(service, key, blob, blob_digest(blob))
        # Streamed without a declared length: the running-size check fires.
        with pytest.raises(PayloadTooLargeError):
            service.put_stream(key, (b"y" * 8 for _ in range(4)), blob_digest(blob))
        assert service.cache.read_blob(key) is None
        assert service.metrics()["counters"]["oversized_rejections"] == 2

    def test_keys_must_be_full_sha256_digests(self, tmp_path):
        service = StoreService(tmp_path)
        for bad in ("abcd1234", "x" * 64, "A" * 63):
            with pytest.raises(ValidationError, match="64-char sha256"):
                service.open_blob(bad)

    def test_closed_store_is_unavailable(self, tmp_path):
        service = StoreService(tmp_path)
        service.close()
        for call in (
            lambda: service.open_blob(_key("k")),
            lambda: _put(service, _key("k"), b"x", blob_digest(b"x")),
            lambda: service.stat(),
            lambda: service.healthz(),
        ):
            with pytest.raises(StoreUnavailableError, match="shut down"):
                call()

    def test_stat_key_hashes_the_file_without_buffering_or_counting_a_fetch(self, tmp_path, monkeypatch):
        service = StoreService(tmp_path)
        key, blob = _key("stat"), os.urandom(2 * CHUNK_BYTES + 17)
        _put(service, key, blob, blob_digest(blob))

        def buffered(key):
            raise AssertionError("stat_key must not buffer the whole blob")

        monkeypatch.setattr(service.cache, "read_blob", buffered)
        stat = service.stat_key(key)
        assert service.metrics()["counters"].get("fetches", 0) == 0
        handle, size, digest = service.open_blob(key)
        handle.close()
        assert stat == {"key": key, "bytes": size, "sha256": digest}
        assert size == len(blob) and digest == blob_digest(blob)
        with pytest.raises(KeyError):
            service.stat_key(_key("absent"))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.binary(min_size=0, max_size=4096))
    def test_round_trip_bitwise_for_arbitrary_bytes(self, tmp_path, blob):
        """Publish→fetch is bitwise through the service's streamed read."""
        service = StoreService(tmp_path)
        key = blob_digest(blob)  # any 64-hex key works; this one is unique per blob
        assert _put(service, key, blob, blob_digest(blob))["installed"] is True
        handle, size, digest = service.open_blob(key)
        with handle:
            assert handle.read() == blob
        assert size == len(blob) and digest == blob_digest(blob)


class TestWireProtocol:
    def test_push_fetch_head_miss(self, store_server):
        client = StoreClient(store_server.url)
        key, blob = _key("wire"), b"\x00\x01wire bytes\xff" * 50
        assert client.fetch(key) is None  # miss before push
        assert client.head(key) is None
        result = client.push(key, blob)
        assert result["sha256"] == blob_digest(blob) and result["installed"] is True
        assert client.fetch(key) == blob
        head = client.head(key)
        assert head == {"key": key, "bytes": len(blob), "sha256": blob_digest(blob)}
        assert client.healthz()["role"] == "artifact-store"
        assert client.stat()["entries"] == 1

    def test_head_sends_headers_without_a_body(self, store_server):
        """HEAD answers GET's headers and no body, keeping keep-alive framing."""
        client = StoreClient(store_server.url)
        key, blob = _key("head"), b"head bytes" * 40
        client.push(key, blob)
        host, port = store_server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            for path in (f"/artifacts/{key}", "/healthz"):
                connection.request("HEAD", path)
                response = connection.getresponse()
                assert response.status == 200 and response.read() == b""
            assert response.headers["Content-Type"] == "application/json"
            connection.request("HEAD", f"/artifacts/{key}")
            response = connection.getresponse()
            response.read()
            assert response.headers["Content-Length"] == str(len(blob))
            assert response.headers[BLOB_SIZE_HEADER] == str(len(blob))
            assert response.headers[BLOB_DIGEST_HEADER] == blob_digest(blob)
            # The same connection still parses the next response: no stray body bytes.
            connection.request("GET", f"/artifacts/{key}")
            assert connection.getresponse().read() == blob
        finally:
            connection.close()

    def test_digest_mismatch_is_typed_400_and_not_installed(self, store_server):
        key = _key("wire-bad")
        status, body, _ = _raw(
            store_server.url, "PUT", f"/artifacts/{key}",
            body=b"actual bytes", headers={BLOB_DIGEST_HEADER: blob_digest(b"claimed other")},
        )
        payload = json.loads(body)
        assert status == 400 and payload["type"] == "StoreIntegrityError"
        status, body, _ = _raw(store_server.url, "PUT", f"/artifacts/{key}", body=b"unclaimed bytes")
        assert status == 400 and json.loads(body)["type"] == "ValidationError"
        status, _, _ = _raw(store_server.url, "GET", f"/artifacts/{key}")
        assert status == 404

    def test_unknown_routes_are_404(self, store_server):
        for method, path in (("GET", "/nope"), ("PUT", "/stat")):
            status, body, _ = _raw(store_server.url, method, path, body=b"" if method != "GET" else None)
            assert status == 404 and json.loads(body)["type"] == "NotFound"

    def test_unknown_methods_are_404_in_the_dispatcher(self, tmp_path):
        status, body, _, _ = StoreDispatcher(StoreService(tmp_path)).handle(
            "DELETE", "/artifacts/" + _key("k")
        )
        assert status == 404 and json.loads(body)["type"] == "NotFound"

    def test_oversized_body_is_typed_413(self, tmp_path):
        service = StoreService(tmp_path, max_blob_bytes=64)
        server = serve_store_http(service)
        try:
            blob = b"z" * 256
            status, body, _ = _raw(
                server.url, "PUT", f"/artifacts/{_key('big')}",
                body=blob, headers={BLOB_DIGEST_HEADER: blob_digest(blob)},
            )
            payload = json.loads(body)
            assert status == 413
            assert payload["type"] == "PayloadTooLargeError"
            assert "exceeds the store bound (64 bytes)" in payload["error"]
            assert service.metrics()["counters"]["oversized_rejections"] == 1
        finally:
            server.close()

    def test_client_rejects_tampered_transfer(self):
        """A body that does not hash to the server's claim is never returned."""

        class _LyingHandler(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"tampered bytes"
                self.send_response(200)
                self.send_header("Content-Type", "application/octet-stream")
                self.send_header("Content-Length", str(len(body)))
                self.send_header(BLOB_DIGEST_HEADER, blob_digest(b"the bytes the server promised"))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

        liar = ThreadingHTTPServer(("127.0.0.1", 0), _LyingHandler)
        thread = threading.Thread(target=liar.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = liar.server_address[:2]
            client = StoreClient(f"http://{host}:{port}")
            with pytest.raises(StoreIntegrityError, match="hash to"):
                client.fetch(_key("tampered"))
        finally:
            liar.shutdown()
            liar.server_close()

    @pytest.mark.slow
    def test_concurrent_fetches_of_one_key(self, store_server):
        """Many sockets streaming the same entry all get the exact bytes."""
        key = _key("hot")
        blob = os.urandom(2 * 1024 * 1024)
        StoreClient(store_server.url).push(key, blob)
        results: list[bytes | None] = [None] * 8
        errors: list[Exception] = []
        barrier = threading.Barrier(len(results))

        def fetch(slot: int) -> None:
            client = StoreClient(store_server.url)
            barrier.wait()
            try:
                results[slot] = client.fetch(key)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert all(result == blob for result in results)


class _ScriptedClient:
    """StoreClient stand-in: scripted fetch/push outcomes, recorded calls."""

    def __init__(self, *, fetch=None, push=None):
        self.fetch_calls: list[str] = []
        self.push_calls: list[str] = []
        self._fetch = fetch
        self._push = push

    def fetch(self, key):
        self.fetch_calls.append(key)
        if callable(self._fetch):
            return self._fetch(key)
        return self._fetch

    def push(self, key, blob):
        self.push_calls.append(key)
        if callable(self._push):
            return self._push(key, blob)
        return {"installed": True}


def _raise(error):
    def inner(*args):
        raise error

    return inner


class TestRemoteCacheTier:
    def test_read_through_installs_bitwise_locally(self, tmp_path):
        origin = StoreService(tmp_path / "origin")
        origin.cache.store(_key("shared"), {"table": [1.0, 2.5], "n": 7})
        server = serve_store_http(origin)
        tier = RemoteCacheTier(ArtifactCache(tmp_path / "local"), server.url, background_push=False)
        try:
            hit, value = tier.load(_key("shared"))
            assert hit and value == {"table": [1.0, 2.5], "n": 7}
            # The install is the origin's exact bytes, not a re-pickle.
            assert tier.local.read_blob(_key("shared")) == origin.cache.read_blob(_key("shared"))
            assert tier.remote_stats()["remote_hits"] == 1
            hit, _ = tier.load(_key("shared"))  # now a purely local hit
            assert hit and tier.remote_stats()["remote_hits"] == 1
        finally:
            tier.close()
            server.close()

    def test_write_through_replicates_to_origin(self, tmp_path):
        origin = StoreService(tmp_path / "origin")
        server = serve_store_http(origin)
        tier = RemoteCacheTier(ArtifactCache(tmp_path / "local"), server.url, background_push=False)
        try:
            tier.store(_key("pushed"), [3, 4, 5])
            assert origin.cache.read_blob(_key("pushed")) == tier.local.read_blob(_key("pushed"))
            assert tier.remote_stats()["pushes"] == 1
        finally:
            tier.close()
            server.close()

    def test_background_push_flush_drains(self, tmp_path):
        origin = StoreService(tmp_path / "origin")
        server = serve_store_http(origin)
        tier = RemoteCacheTier(ArtifactCache(tmp_path / "local"), server.url)
        try:
            for index in range(4):
                tier.store(_key(f"bg{index}"), index)
            assert tier.flush(timeout=10.0) is True
            assert tier.remote_stats()["pushes"] == 4
            assert sorted(origin.cache.keys()) == sorted(tier.local.keys())
        finally:
            tier.close()
            server.close()

    def test_dead_peer_degrades_to_local_only(self, tmp_path):
        # Bind-then-close: a port with nothing listening.
        probe = ThreadingHTTPServer(("127.0.0.1", 0), BaseHTTPRequestHandler)
        host, port = probe.server_address[:2]
        probe.server_close()
        tier = RemoteCacheTier(
            ArtifactCache(tmp_path), f"http://{host}:{port}",
            retries=0, failure_threshold=1, background_push=False,
        )
        hit, _ = tier.load(_key("gone"))
        assert not hit
        stats = tier.remote_stats()
        assert stats["degraded"] is True and stats["degradations"] == 1
        assert stats["remote_fetch_failures"] == 1
        # Local-only service continues: stores land, loads answer, pushes drop.
        tier.store(_key("local-life"), "still works")
        assert tier.load(_key("local-life")) == (True, "still works")
        assert tier.remote_stats()["push_drops"] == 1
        tier.close()

    def test_fetch_retries_are_bounded_and_deterministic(self, tmp_path):
        client = _ScriptedClient(fetch=_raise(StoreUnavailableError("down")))
        tier = RemoteCacheTier(ArtifactCache(tmp_path), "http://unused", retries=2, client=client)
        hit, _ = tier.load(_key("r"))
        assert not hit
        assert len(client.fetch_calls) == 3  # retries + 1, back-to-back
        assert tier.remote_stats()["remote_fetch_failures"] == 1
        tier.close()

    def test_breaker_trips_after_threshold_and_stops_calling(self, tmp_path):
        client = _ScriptedClient(fetch=_raise(StoreUnavailableError("down")))
        tier = RemoteCacheTier(
            ArtifactCache(tmp_path), "http://unused",
            retries=0, failure_threshold=2, client=client,
        )
        tier.load(_key("a"))
        assert tier.degraded is False
        tier.load(_key("b"))
        assert tier.degraded is True
        tier.load(_key("c"))  # breaker open: the wire is not touched again
        assert len(client.fetch_calls) == 2
        assert tier.remote_stats()["degradations"] == 1
        tier.close()

    def test_integrity_failure_is_never_retried(self, tmp_path):
        client = _ScriptedClient(fetch=_raise(StoreIntegrityError("corrupt")))
        tier = RemoteCacheTier(ArtifactCache(tmp_path), "http://unused", retries=3, client=client)
        hit, _ = tier.load(_key("c"))
        assert not hit
        assert len(client.fetch_calls) == 1  # corrupt bytes are not worth re-reading
        stats = tier.remote_stats()
        assert stats["integrity_rejections"] == 1 and stats["degraded"] is False
        tier.close()

    def test_remote_miss_counts_without_degrading(self, tmp_path):
        client = _ScriptedClient(fetch=None)
        tier = RemoteCacheTier(ArtifactCache(tmp_path), "http://unused", client=client)
        assert tier.load(_key("m")) == (False, None)
        stats = tier.remote_stats()
        assert stats["remote_misses"] == 1 and stats["degraded"] is False
        tier.close()

    def test_typed_push_rejection_does_not_trip_breaker(self, tmp_path):
        client = _ScriptedClient(push=_raise(PayloadTooLargeError("too big")))
        tier = RemoteCacheTier(
            ArtifactCache(tmp_path), "http://unused",
            failure_threshold=1, background_push=False, client=client,
        )
        tier.store(_key("fat"), "x" * 64)
        stats = tier.remote_stats()
        assert stats["push_failures"] == 1 and stats["degraded"] is False
        tier.close()

    def test_push_queue_overflow_drops_instead_of_blocking(self, tmp_path):
        release = threading.Event()

        def blocking_push(key, blob):
            release.wait(timeout=30)
            return {"installed": True}

        client = _ScriptedClient(push=blocking_push)
        tier = RemoteCacheTier(
            ArtifactCache(tmp_path), "http://unused",
            max_pending_pushes=1, client=client,
        )
        tier.store(_key("q0"), 0)  # dequeued by the worker, blocks in push
        for _ in range(50):  # wait (bounded) for the worker to take it
            if not tier.remote_stats()["pending_pushes"]:
                break
            threading.Event().wait(0.01)
        tier.store(_key("q1"), 1)  # fills the queue
        tier.store(_key("q2"), 2)  # overflow: dropped, store() returns at once
        assert tier.remote_stats()["push_drops"] >= 1
        release.set()
        assert tier.flush(timeout=10.0) is True
        tier.close()

    def test_everything_else_delegates_to_local(self, tmp_path):
        local = ArtifactCache(tmp_path)
        tier = RemoteCacheTier(local, "http://unused", client=_ScriptedClient())
        tier.store(_key("d"), "v")
        assert tier.keys() == local.keys()
        assert tier.path_for(_key("d")) == local.path_for(_key("d"))
        assert tier.info()["entries"] == 1
        tier.close()


class TestCacheRaceRegressions:
    def test_concurrent_same_key_stores_never_tear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = _key("torn")
        payloads = [bytes([value]) * 4096 for value in range(8)]
        barrier = threading.Barrier(len(payloads))

        def writer(payload: bytes) -> None:
            barrier.wait()
            for _ in range(10):
                cache.store(key, payload)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        hit, value = cache.load(key)
        assert hit and value in payloads  # a complete blob from *one* writer
        assert not list(tmp_path.glob("*/*.tmp"))  # every temp file consumed

    def test_install_survives_interleaved_remove(self, tmp_path, monkeypatch):
        """Injected interleaving: remove() fires between temp-write and rename."""
        import repro.runtime.cache as cache_mod

        cache = ArtifactCache(tmp_path)
        key = _key("interleave")
        cache.store(key, "old")
        real_replace = os.replace
        fired = []

        def interleaved(src, dst):
            if not fired:
                fired.append(True)
                assert cache.remove(key) is True  # concurrent eviction wins the gap
                assert cache.remove(key) is False  # ...and a second sweep is a no-op, not a crash
            real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", interleaved)
        cache.store(key, "new")
        assert cache.load(key) == (True, "new")  # the full rename still lands

    def test_prune_tolerates_entries_vanishing_mid_sweep(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = [_key(f"p{index}") for index in range(3)]
        for index, key in enumerate(keys):
            cache.store(key, index)
        real_entries = cache._entries

        def racing_entries():
            for index, path in enumerate(real_entries()):
                if index == 0:
                    path.unlink()  # a concurrent remove() between glob and stat
                yield path

        cache._entries = racing_entries
        assert cache.prune(0) == 2  # survivors swept; the vanished entry skipped
        assert cache.keys() == []

    def test_info_tolerates_entries_vanishing_mid_sweep(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for index in range(3):
            cache.store(_key(f"i{index}"), index)
        real_entries = cache._entries

        def racing_entries():
            for index, path in enumerate(real_entries()):
                if index == 1:
                    path.unlink()
                yield path

        cache._entries = racing_entries
        assert cache.info()["entries"] == 2


# Deliberately tiny: one repeat, two strategies — a real sharded grid run
# (datasets, initial fit, cells) in seconds, not minutes.
GRID_CONFIG = Table1Config(
    n_train=50, n_test=60, n_pool=40, n_feedback=8, n_test_sets=3,
    n_repeats=1, cross_runs=2, automl_iterations=3, ensemble_size=3,
    min_distinct_members=2, grid_size=8,
)
GRID_ALGORITHMS = ["no_feedback", "within_ale"]
#: datasets (eval + train reservoir) + initial fits + (repeats × strategies) cells
GRID_UNITS = 2 + GRID_CONFIG.n_repeats + GRID_CONFIG.n_repeats * len(GRID_ALGORITHMS)


@pytest.fixture(scope="module")
def cold_grid(tmp_path_factory):
    """One cold, cache-backed grid run: the origin every other run warms from."""
    cache_dir = tmp_path_factory.mktemp("store-origin-cache")
    clear_dataset_memo()
    runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(cache_dir))
    table, record = run_table1(GRID_CONFIG, algorithms=list(GRID_ALGORITHMS), runtime=runtime)
    assert runtime.stats["executed"] == GRID_UNITS
    return cache_dir, table, record


class TestRemoteWarmGrid:
    def test_warm_store_executes_nothing_and_reproduces_bitwise(self, cold_grid, tmp_path):
        cache_dir, cold_table, _ = cold_grid
        origin = StoreService(cache_dir)
        server = serve_store_http(origin)
        runtime = TaskRuntime(
            SerialExecutor(), cache=RemoteCacheTier(ArtifactCache(tmp_path / "empty-local"), server.url)
        )
        try:
            clear_dataset_memo()
            table, record = run_table1(
                GRID_CONFIG, algorithms=list(GRID_ALGORITHMS), runtime=runtime
            )
            # Zero executions: every unit answered across the wire.
            assert runtime.stats["executed"] == 0
            assert runtime.stats["cache_hits"] == GRID_UNITS
            for name in GRID_ALGORITHMS:
                np.testing.assert_array_equal(
                    cold_table.scores(name).scores, table.scores(name).scores
                )
            store_meta = record.metadata["grid"]["store"]
            assert store_meta["degraded"] is False
            assert store_meta["remote_hits"] == GRID_UNITS
            assert store_meta["url"] == server.url
            # Installed artifacts are the origin's exact bytes.
            local = runtime.cache.local
            assert sorted(local.keys()) == sorted(origin.cache.keys())
            for key in local.keys():
                assert local.read_blob(key) == origin.cache.read_blob(key)
        finally:
            runtime.cache.close()
            server.close()

    def test_server_killed_mid_session_degrades_to_local(self, cold_grid, tmp_path):
        _, cold_table, _ = cold_grid
        origin = StoreService(tmp_path / "origin")
        server = serve_store_http(origin)
        runtime = TaskRuntime(
            SerialExecutor(), cache=RemoteCacheTier(ArtifactCache(tmp_path / "local"), server.url)
        )
        try:
            assert runtime.cache.client.healthz()["status"] == "ok"  # peer alive at start
            server.close()  # ...and killed before the grid's first fetch
            clear_dataset_memo()
            table, record = run_table1(
                GRID_CONFIG, algorithms=list(GRID_ALGORITHMS), runtime=runtime
            )
            # The grid completed locally and recorded the degradation.
            store_meta = record.metadata["grid"]["store"]
            assert store_meta["degraded"] is True
            assert store_meta["degradations"] == 1
            assert runtime.stats["executed"] == GRID_UNITS
            for name in GRID_ALGORITHMS:
                np.testing.assert_array_equal(
                    cold_table.scores(name).scores, table.scores(name).scores
                )
        finally:
            runtime.cache.close()


class TestStoreErrors:
    def test_error_hierarchy(self):
        for kind in (StoreIntegrityError, PayloadTooLargeError, StoreUnavailableError):
            assert issubclass(kind, StoreError)

    def test_unmapped_errors_reraise(self, tmp_path):
        dispatcher = StoreDispatcher(StoreService(tmp_path))
        with pytest.raises(KeyError):
            dispatcher.error_response(KeyError("untyped"))
