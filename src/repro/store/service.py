"""The artifact store's service core: validated blob I/O over a cache dir.

:class:`StoreService` is everything the store does minus sockets: it
owns an :class:`~repro.runtime.cache.ArtifactCache` directory, a
:class:`~repro.serve.metrics.MetricsRegistry`, and the size/integrity
rules the transport enforces, so the HTTP server stays socket plumbing.

Integrity contract: store keys are *task identities* (seed-path content
addresses), not hashes of the stored bytes — so wire integrity rides a
separate digest of the raw blob (:func:`blob_digest`).  A PUT declares
its digest up front and the service verifies before installing; a GET
reports the digest it hashed so the client can verify after reading.
Bytes that fail verification are never installed and never trusted.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Iterable

from ..exceptions import (
    PayloadTooLargeError,
    StoreIntegrityError,
    StoreUnavailableError,
    ValidationError,
)
from ..runtime.cache import ArtifactCache
from ..serve.metrics import MetricsRegistry

__all__ = ["StoreService", "blob_digest", "DEFAULT_MAX_BLOB_BYTES"]

#: Default per-blob size bound.  Fitted ensembles are bigger than serve's
#: JSON requests, so this is generous; it exists to bound one request's
#: disk/memory cost, not to ration the store.
DEFAULT_MAX_BLOB_BYTES = 64 * 1024 * 1024

#: Read/write granularity for streamed bodies.
CHUNK_BYTES = 1024 * 1024

_HEX = set("0123456789abcdef")


def blob_digest(blob: bytes) -> str:
    """Plain ``sha256(blob)`` hex — the wire-integrity digest.

    Deliberately unsalted and byte-exact (unlike the cache's salted task
    keys): both ends of the wire must be able to recompute it from the
    raw bytes alone.
    """
    return hashlib.sha256(blob).hexdigest()


def _require_hex_digest(value: str, what: str) -> str:
    value = str(value).lower()
    if len(value) != 64 or any(c not in _HEX for c in value):
        raise ValidationError(f"{what} must be a 64-char sha256 hex digest, got {value!r}")
    return value


class StoreService:
    """Blob get/put/stat over one cache directory, with shared validation.

    Parameters
    ----------
    directory:
        Cache directory the store serves (``None`` = the default cache
        dir).  The on-disk layout is exactly :class:`ArtifactCache`'s, so
        a store can be pointed at any existing cache and vice versa.
    max_blob_bytes:
        Hard per-blob size bound; oversize requests get a typed 413.
    metrics:
        Optional shared :class:`MetricsRegistry` (one is created if
        omitted); its snapshot is the ``/metrics`` payload.
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        *,
        max_blob_bytes: int = DEFAULT_MAX_BLOB_BYTES,
        metrics: MetricsRegistry | None = None,
    ):
        if max_blob_bytes < 1:
            raise ValidationError(f"max_blob_bytes must be >= 1, got {max_blob_bytes}")
        self.cache = ArtifactCache(directory)
        self.max_blob_bytes = int(max_blob_bytes)
        self.metrics_registry = metrics if metrics is not None else MetricsRegistry()
        self._closed = False

    # -- validation --------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreUnavailableError("artifact store is shut down")

    def validate_key(self, key: str) -> str:
        """Wire keys are *full* sha256 digests (stricter than path_for's >= 8)."""
        return _require_hex_digest(key, "store keys")

    def oversized_error(self, length: int) -> PayloadTooLargeError:
        """The canonical 413, so every rejection path words it identically."""
        return PayloadTooLargeError(
            f"blob of {length} bytes exceeds the store bound ({self.max_blob_bytes} bytes)"
        )

    # -- reads -------------------------------------------------------------

    def _open_hashed(self, key: str) -> tuple[BinaryIO, int, str]:
        """``(handle, size, sha256)`` of one entry, hashed in ``CHUNK_BYTES`` chunks.

        The handle is open and rewound.  Counts nothing; raises
        ``KeyError`` when absent.
        """
        self._check_open()
        self.validate_key(key)
        try:
            handle = open(self.cache.path_for(key), "rb")
        except OSError:
            raise KeyError(key) from None
        h = hashlib.sha256()
        size = 0
        while chunk := handle.read(CHUNK_BYTES):
            h.update(chunk)
            size += len(chunk)
        handle.seek(0)
        return handle, size, h.hexdigest()

    def open_blob(self, key: str) -> tuple[BinaryIO, int, str]:
        """``(handle, size, sha256)`` for streaming one blob out.

        The digest was computed over the returned handle itself, so even
        if the entry is concurrently replaced or pruned, the caller
        streams exactly the bytes that were hashed (POSIX keeps an open
        file alive past unlink).  Raises ``KeyError`` when absent.
        """
        try:
            handle, size, digest = self._open_hashed(key)
        except KeyError:
            self.metrics_registry.counter("fetch_misses").inc()
            raise
        self.metrics_registry.counter("fetches").inc()
        self.metrics_registry.histogram("fetch_bytes").observe(size)
        return handle, size, digest

    def stat_key(self, key: str) -> dict[str, Any]:
        """Size and digest of one entry without buffering it or counting a fetch."""
        handle, size, digest = self._open_hashed(key)
        handle.close()
        return {"key": key, "bytes": size, "sha256": digest}

    # -- writes ------------------------------------------------------------

    def put_stream(
        self,
        key: str,
        chunks: Iterable[bytes],
        claimed_sha256: str | None,
        declared_length: int | None = None,
    ) -> dict[str, Any]:
        """Stream chunks to a temp file, verify the digest, atomically install.

        The integrity gate: bytes land in a unique temp file while the
        hash accumulates, and only a digest match renames them into the
        cache — a mismatch (or an oversize body) leaves the store
        untouched.  Raises the typed errors the transports map to
        400/413/503.
        """
        self._check_open()
        self.validate_key(key)
        if claimed_sha256 is None:
            raise ValidationError(
                "PUT requires an X-Repro-Blob-SHA256 header (integrity is verified before install)"
            )
        claimed = _require_hex_digest(claimed_sha256, "X-Repro-Blob-SHA256")
        if declared_length is not None and declared_length > self.max_blob_bytes:
            self.metrics_registry.counter("oversized_rejections").inc()
            raise self.oversized_error(declared_length)
        path = self.cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
        h = hashlib.sha256()
        size = 0
        try:
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    size += len(chunk)
                    if size > self.max_blob_bytes:
                        self.metrics_registry.counter("oversized_rejections").inc()
                        raise self.oversized_error(size)
                    h.update(chunk)
                    handle.write(chunk)
            digest = h.hexdigest()
            if digest != claimed:
                self.metrics_registry.counter("integrity_rejections").inc()
                raise StoreIntegrityError(
                    f"uploaded bytes hash to {digest} but the client claimed {claimed}; not installing"
                )
            os.replace(tmp_name, path)
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass  # consumed by os.replace on the success path
        self.metrics_registry.counter("pushes").inc()
        self.metrics_registry.histogram("push_bytes").observe(size)
        return {"key": key, "bytes": size, "sha256": digest, "installed": True}

    # -- admin surface -----------------------------------------------------

    def stat(self) -> dict[str, Any]:
        self._check_open()
        info = self.cache.info()
        return {
            "directory": info["directory"],
            "entries": info["entries"],
            "total_bytes": info["total_bytes"],
            "max_blob_bytes": self.max_blob_bytes,
            "metrics": self.metrics_registry.snapshot(),
        }

    def healthz(self) -> dict[str, Any]:
        self._check_open()
        return {"status": "ok", "role": "artifact-store", "directory": str(self.cache.directory)}

    def metrics(self) -> dict[str, Any]:
        return self.metrics_registry.snapshot()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._closed = True
