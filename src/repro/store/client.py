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
``store`` is write-through — encode once, install those bytes locally,
then push the same bytes in the caller's thread with deterministic
bounded retries (no sleeps, no clocks: ``RETRIES + 1`` immediate
attempts), so when ``store`` returns the origin holds the entry or the
failure is counted.  A grid's pushes are a small share of its fits
(``benchmarks/bench_store.py`` times the ``remote_cold`` regime against
``local_cold``).  ``FAILURE_THRESHOLD`` consecutive transport failures
in either direction (fetch or push, counted apart) trip a circuit
breaker into *degraded* local-only mode: the peer being down can slow a
grid, by at most ``FAILURE_THRESHOLD × (RETRIES + 1)`` timed-out calls
per direction, never fail it.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
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

#: Consecutive failed calls in one direction (each after its retries)
#: that trip the breaker.
FAILURE_THRESHOLD = 3


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
    cache is accepted.  It starts no thread; one lock keeps the breaker
    and counters consistent when threads share a tier.

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
        # Counted per direction: a peer that answers GETs but fails every
        # PUT must still trip the breaker.
        self._consecutive_failures = {"fetch": 0, "push": 0}
        self._lock = threading.Lock()
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
        self._count("remote_hits")
        return True, value

    def store(self, key: str, value: Any):
        """Encode once, install the bytes locally, then push those same bytes."""
        blob = self.local.encode(value)
        path = self.local.install_blob(key, blob)
        self._push_now(key, blob)
        return path

    def __getattr__(self, name: str):
        if name == "local":  # guard pre-__init__ lookups (unpickling, copy)
            raise AttributeError(name)
        return getattr(self.local, name)

    # -- breaker bookkeeping -----------------------------------------------

    def _count(self, name: str) -> None:
        with self._lock:
            self.counters[name] += 1

    def _note_success(self, direction: str) -> None:
        with self._lock:
            self._consecutive_failures[direction] = 0

    def _note_failure(self, direction: str, counter: str) -> None:
        with self._lock:
            self.counters[counter] += 1
            self._consecutive_failures[direction] += 1
            if not self.degraded and self._consecutive_failures[direction] >= FAILURE_THRESHOLD:
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
                self._count("integrity_rejections")
                return None  # never trust or retry bytes that failed the digest
            except StoreUnavailableError:
                continue
            except (ValidationError, StoreError):
                self._count("remote_fetch_failures")
                return None
            self._note_success("fetch")
            if blob is None:
                self._count("remote_misses")
            return blob
        self._note_failure("fetch", "remote_fetch_failures")
        return None

    # -- push path ---------------------------------------------------------

    def _push_now(self, key: str, blob: bytes) -> None:
        if self.degraded:
            self._count("push_drops")
            return
        for _attempt in range(RETRIES + 1):
            try:
                self.client.push(key, blob)
            except StoreUnavailableError:
                continue
            except (ValidationError, StoreError):
                # Typed rejection (oversize, integrity): permanent for these
                # bytes — count it, don't touch the availability breaker.
                self._count("push_failures")
                return
            self._note_success("push")
            self._count("pushes")
            return
        self._note_failure("push", "push_failures")

    # -- observability -----------------------------------------------------

    def remote_stats(self) -> dict[str, Any]:
        """The ``record.metadata["grid"]["store"]`` payload."""
        with self._lock:
            return {"url": self.url, "degraded": self.degraded, **self.counters}
