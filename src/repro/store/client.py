"""Store clients: the raw HTTP client and the remote cache tier.

:class:`StoreClient` speaks the store wire protocol with stdlib urllib,
translating the typed status contract back into exceptions (404 → a
``None``/``KeyError`` miss, 413 → :class:`PayloadTooLargeError`, 503 and
raw socket failures → :class:`StoreUnavailableError`) and verifying the
``X-Repro-Blob-SHA256`` digest of every fetched body before trusting it.

:class:`RemoteCacheTier` is what the runtime actually holds: a
duck-typed :class:`~repro.runtime.cache.ArtifactCache` peer layered over
the local cache.  ``load`` is read-through — local miss → remote fetch →
digest verify → atomic local install → unpickle from disk, so a remote
hit is *byte-identical* to what a local execution would have written.
``store`` is write-through — local install first (tasks never wait on
the network), then a background push with deterministic bounded retries
(no sleeps, no clocks: ``RETRIES + 1`` immediate attempts).  A run of
``FAILURE_THRESHOLD`` consecutive transport failures trips a circuit
breaker into *degraded* local-only mode: the peer being down can slow a
grid, never fail it.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from collections import deque
from typing import Any

from ..exceptions import (
    PayloadTooLargeError,
    StoreError,
    StoreIntegrityError,
    StoreUnavailableError,
    ValidationError,
)
from ..runtime.cache import ArtifactCache
from .server import BLOB_DIGEST_HEADER
from .service import blob_digest

__all__ = ["StoreClient", "RemoteCacheTier"]

#: Seconds one remote call may take before it counts as a transport failure.
TIMEOUT_S = 10.0

#: Extra attempts after a failed transport call, back-to-back (no sleeps).
RETRIES = 2

#: Consecutive failed calls (each after its retries) that trip the breaker.
FAILURE_THRESHOLD = 3

#: Bound on the background push queue; overflow drops pushes (counted).
MAX_PENDING_PUSHES = 256


class StoreClient:
    """Stdlib-urllib client for a running artifact-store server."""

    def __init__(self, url: str, *, timeout: float = TIMEOUT_S):
        self.url = str(url).rstrip("/")
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _open(self, request: urllib.request.Request):
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError:
            raise  # typed statuses are translated by the caller
        except (urllib.error.URLError, OSError) as error:
            raise StoreUnavailableError(
                f"artifact store unreachable at {self.url}: {error}"
            ) from None

    def _translate(self, error: urllib.error.HTTPError) -> Exception:
        try:
            payload = json.loads(error.read().decode("utf-8"))
            message = str(payload.get("error", payload))
            type_name = str(payload.get("type", ""))
        except Exception:
            message, type_name = f"HTTP {error.code}", ""
        if error.code == 404:
            return KeyError(message)
        if error.code == 413:
            return PayloadTooLargeError(message)
        if error.code == 503:
            return StoreUnavailableError(message)
        if type_name == "StoreIntegrityError":
            return StoreIntegrityError(message)
        if error.code == 400:
            return ValidationError(message)
        return StoreError(message)

    def _json(self, path: str) -> dict[str, Any]:
        request = urllib.request.Request(self.url + path, method="GET")
        try:
            with self._open(request) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise self._translate(error) from None

    # -- blob operations ---------------------------------------------------

    def fetch(self, key: str) -> bytes | None:
        """Blob bytes for ``key``, or ``None`` on a remote miss.

        The client-side half of the integrity contract: the body must
        hash to the digest the server declared, else
        :class:`StoreIntegrityError` — a corrupted or tampered transfer
        is never returned as data.
        """
        request = urllib.request.Request(f"{self.url}/artifacts/{key}", method="GET")
        try:
            with self._open(request) as response:
                blob = response.read()
                claimed = response.headers.get(BLOB_DIGEST_HEADER)
        except urllib.error.HTTPError as error:
            translated = self._translate(error)
            if isinstance(translated, KeyError):
                return None
            raise translated from None
        actual = blob_digest(blob)
        if claimed is None or actual != claimed.lower():
            raise StoreIntegrityError(
                f"fetched bytes for {key} hash to {actual} but the server claimed {claimed!r}"
            )
        return blob

    def push(self, key: str, blob: bytes) -> dict[str, Any]:
        """Upload one blob under ``key``, declaring its digest up front."""
        request = urllib.request.Request(
            f"{self.url}/artifacts/{key}",
            data=blob,
            method="PUT",
            headers={
                "Content-Type": "application/octet-stream",
                BLOB_DIGEST_HEADER: blob_digest(blob),
            },
        )
        try:
            with self._open(request) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise self._translate(error) from None

    # -- admin -------------------------------------------------------------

    def stat(self) -> dict[str, Any]:
        return self._json("/stat")


class RemoteCacheTier:
    """Read-through/write-through remote peer over a local cache.

    Implements the two-method cache contract the runtime calls
    (``load``/``store``) and transparently forwards everything else to
    the wrapped local :class:`ArtifactCache`, so it drops in anywhere a
    cache is accepted.

    Parameters
    ----------
    local:
        The local cache; always consulted first and always written — the
        remote peer is an accelerator, never the source of truth.
    url:
        Base URL of the artifact server.
    client:
        Injectable :class:`StoreClient` stand-in for tests.
    """

    def __init__(
        self,
        local: ArtifactCache,
        url: str,
        *,
        client: StoreClient | None = None,
    ):
        self.local = local
        self.url = str(url).rstrip("/")
        self.client = client if client is not None else StoreClient(self.url)
        self.degraded = False
        self._consecutive_failures = 0
        self._pending: deque[tuple[str, bytes]] = deque()
        self._inflight = False
        self._closed = False
        self._worker: threading.Thread | None = None
        self._cond = threading.Condition()
        self.counters = {
            "remote_hits": 0,
            "remote_misses": 0,
            "remote_fetch_failures": 0,
            "integrity_rejections": 0,
            "pushes": 0,
            "push_failures": 0,
            "push_drops": 0,
            "degradations": 0,
        }

    # -- the cache contract the runtime calls ------------------------------

    def load(self, key: str) -> tuple[bool, Any]:
        """Local first; on a miss, fetch/verify/install from the peer."""
        hit, value = self.local.load(key)
        if hit:
            return True, value
        blob = self._fetch(key)
        if blob is None:
            return False, None
        self.local.install_blob(key, blob)
        hit, value = self.local.load(key)
        if not hit:
            return False, None  # remote blob unpicklable; local load evicted it
        with self._cond:
            self.counters["remote_hits"] += 1
        return True, value

    def store(self, key: str, value: Any):
        """Local install (tasks never wait on the wire), then push."""
        path = self.local.store(key, value)
        blob = self.local.read_blob(key)
        if blob is not None:
            self._submit_push(key, blob)
        return path

    def __getattr__(self, name: str):
        if name == "local":  # guard pre-__init__ lookups (unpickling, copy)
            raise AttributeError(name)
        return getattr(self.local, name)

    # -- breaker bookkeeping -----------------------------------------------

    def _note_success(self) -> None:
        with self._cond:
            self._consecutive_failures = 0

    def _note_failure(self) -> None:
        with self._cond:
            self._consecutive_failures += 1
            if not self.degraded and self._consecutive_failures >= FAILURE_THRESHOLD:
                self.degraded = True
                self.counters["degradations"] += 1

    # -- fetch path --------------------------------------------------------

    def _fetch(self, key: str) -> bytes | None:
        if self.degraded:
            return None
        for _attempt in range(RETRIES + 1):
            try:
                blob = self.client.fetch(key)
            except StoreIntegrityError:
                with self._cond:
                    self.counters["integrity_rejections"] += 1
                return None  # never trust or retry bytes that failed the digest
            except StoreUnavailableError:
                continue
            except (ValidationError, StoreError):
                with self._cond:
                    self.counters["remote_fetch_failures"] += 1
                return None
            self._note_success()
            if blob is None:
                with self._cond:
                    self.counters["remote_misses"] += 1
            return blob
        self._note_failure()
        with self._cond:
            self.counters["remote_fetch_failures"] += 1
        return None

    # -- push path ---------------------------------------------------------

    def _submit_push(self, key: str, blob: bytes) -> None:
        if self.degraded or self._closed:
            with self._cond:
                self.counters["push_drops"] += 1
            return
        with self._cond:
            if len(self._pending) >= MAX_PENDING_PUSHES:
                self.counters["push_drops"] += 1
                return
            self._pending.append((key, blob))
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._push_worker, name="repro-store-push", daemon=True
                )
                self._worker.start()
            self._cond.notify_all()

    def _push_worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
                key, blob = self._pending.popleft()
                self._inflight = True
            try:
                self._push_now(key, blob)
            finally:
                with self._cond:
                    self._inflight = False
                    self._cond.notify_all()

    def _push_now(self, key: str, blob: bytes) -> None:
        if self.degraded:
            with self._cond:
                self.counters["push_drops"] += 1
            return
        for _attempt in range(RETRIES + 1):
            try:
                self.client.push(key, blob)
            except StoreUnavailableError:
                continue
            except (ValidationError, StoreError):
                # Typed rejection (oversize, integrity): permanent for these
                # bytes — count it, don't touch the availability breaker.
                with self._cond:
                    self.counters["push_failures"] += 1
                return
            self._note_success()
            with self._cond:
                self.counters["pushes"] += 1
            return
        self._note_failure()
        with self._cond:
            self.counters["push_failures"] += 1

    # -- lifecycle / observability -----------------------------------------

    def flush(self, timeout: float | None = None) -> bool:
        """Wait until queued pushes are done; ``True`` when drained."""
        with self._cond:
            while self._pending or self._inflight:
                if not self._cond.wait(timeout):
                    return not (self._pending or self._inflight)
            return True

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting pushes, let the worker drain, join it."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            worker = self._worker
        if worker is not None:
            worker.join(timeout)

    def remote_stats(self) -> dict[str, Any]:
        """The ``record.metadata["grid"]["store"]`` payload."""
        with self._cond:
            return {
                "url": self.url,
                "degraded": self.degraded,
                "pending_pushes": len(self._pending),
                **dict(self.counters),
            }
