"""The artifact store's threaded HTTP transport.

:class:`StoreHTTPServer` runs on the socket plumbing it shares with the
serve listener (:class:`~repro.serve.http.ThreadedHTTPServer` and
:class:`~repro.serve.http.JSONRequestHandler`) and owns every store
route::

    GET /artifacts/<key>   the blob, with its X-Repro-Blob-SHA256
    PUT /artifacts/<key>   streamed upload, installed on digest match
    GET /stat              store totals and metrics
    GET /healthz           liveness + role

A PUT body is *streamed*: it hashes chunks into a unique temp file and
only installs on digest match (:meth:`StoreService.put_stream`).  A GET
reads the blob with one read of one open file
(:meth:`StoreService.get_blob`), then hashes and sends those same
bytes, so a concurrent prune can never tear a response.  Typed errors
map to statuses in :func:`_error_reply` (400 validation or integrity
mismatch, 413 oversize, 503 shut down, 500 other store failures); an
unknown key or route is a 404.  Other methods get a bodiless-for-HEAD
501, which closes the connection.
"""

from __future__ import annotations

from typing import Iterator

from ..exceptions import (
    PayloadTooLargeError,
    StoreError,
    StoreIntegrityError,
    StoreUnavailableError,
    ValidationError,
)
from ..serve.http import JSONRequestHandler, ThreadedHTTPServer
from .service import CHUNK_BYTES, StoreService, blob_digest

__all__ = ["StoreHTTPServer", "serve_store_http", "BLOB_DIGEST_HEADER"]

#: Wire-integrity header: sha256 of the raw body, verified on both ends.
BLOB_DIGEST_HEADER = "X-Repro-Blob-SHA256"


def _error_reply(error: ValidationError | StoreError) -> tuple[int, dict]:
    """The typed-error → ``(status, JSON body)`` contract, most specific first."""
    for kind, status in (
        (StoreIntegrityError, 400),
        (PayloadTooLargeError, 413),
        (StoreUnavailableError, 503),
        (StoreError, 500),
    ):
        if isinstance(error, kind):
            break
    else:
        status = 400  # ValidationError
    return status, {"error": str(error), "type": type(error).__name__}


def _artifact_key(path: str) -> str | None:
    """``/artifacts/<key>`` → ``key``, anything else → ``None``."""
    parts = path.rstrip("/").split("/")
    if len(parts) == 3 and parts[1] == "artifacts" and parts[2]:
        return parts[2]
    return None


class _Handler(JSONRequestHandler):
    """Store routes over one :class:`StoreService`."""

    server: "StoreHTTPServer"

    def _not_found(self, message: str) -> None:
        self.send_json(404, {"error": message, "type": "NotFound"})

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        """Totals and liveness as JSON, or an artifact body read from disk."""
        service = self.server.service
        key = _artifact_key(self.path)
        route = {"/healthz": service.healthz, "/stat": service.stat}.get(self.path)
        if key is None and route is None:
            self._not_found(f"no route {self.path!r}")
            return
        try:
            if key is None:
                self.send_json(200, route())
                return
            blob = service.get_blob(key)
        except KeyError:
            self._not_found(f"no artifact {key!r} in this store")
            return
        except (ValidationError, StoreError) as error:
            self.send_json(*_error_reply(error))
            return
        digest = blob_digest(blob)
        self.send_head(200, "application/octet-stream", len(blob), {BLOB_DIGEST_HEADER: digest})
        self.wfile.write(blob)

    def _body_chunks(self, remaining: int) -> Iterator[bytes]:
        while remaining > 0:
            chunk = self.rfile.read(min(CHUNK_BYTES, remaining))
            if not chunk:
                return  # client hung up mid-body; the digest check rejects
            remaining -= len(chunk)
            yield chunk

    def do_PUT(self) -> None:  # noqa: N802 - stdlib dispatch name
        key = _artifact_key(self.path)
        if key is None:
            self.close_connection = True  # the body stays unread
            self._not_found(f"no route {self.path!r}")
            return
        try:
            length = self.content_length()
            result = self.server.service.put_stream(
                key,
                self._body_chunks(length),
                self.headers.get(BLOB_DIGEST_HEADER),
                declared_length=length,
            )
        except (ValidationError, StoreError) as error:
            # An error before or mid-stream leaves body bytes unread on
            # the socket; close rather than let the next request misparse them.
            self.close_connection = True
            self.send_json(*_error_reply(error))
            return
        self.send_json(200, result)


class StoreHTTPServer(ThreadedHTTPServer):
    """Threaded artifact-store transport over one :class:`StoreService`."""

    def __init__(self, service: StoreService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service

    def close(self) -> None:
        """Stop accepting, then mark the service unavailable (503s)."""
        self.shutdown()
        self.server_close()
        self.service.close()


def serve_store_http(
    service: StoreService, host: str = "127.0.0.1", port: int = 0
) -> StoreHTTPServer:
    """Bind and background-start the threaded store server.

    ``port=0`` lets the OS pick (read it back from ``server.url``) —
    what tests and single-machine grids want.
    """
    server = StoreHTTPServer(service, host, port)
    server.serve_background()
    return server
