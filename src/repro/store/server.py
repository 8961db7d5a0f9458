"""HTTP semantics and the threaded transport for the artifact store.

:class:`StoreDispatcher` is the store's analogue of
:class:`~repro.serve.router.RequestDispatcher`: route parsing and the
typed-error → status contract (400 validation or integrity mismatch,
404 unknown key/route, 413 oversize, 503 shut down) live here, sans
sockets.

:class:`StoreHTTPServer` is the transport
(:class:`http.server.ThreadingHTTPServer`, mirroring
:class:`~repro.serve.http.ServeHTTPServer`) with *streamed* artifact
bodies: a PUT hashes chunks into a unique temp file and only installs on
digest match (:meth:`StoreService.put_stream`), and a GET streams from
an open handle that was hashed through that same handle, so a
concurrent prune can never tear a response.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator

from ..exceptions import (
    PayloadTooLargeError,
    StoreError,
    StoreIntegrityError,
    StoreUnavailableError,
    ValidationError,
)
from .service import CHUNK_BYTES, StoreService

__all__ = [
    "StoreDispatcher",
    "StoreHTTPServer",
    "serve_store_http",
    "BLOB_DIGEST_HEADER",
    "BLOB_SIZE_HEADER",
]

#: Wire-integrity header: sha256 of the raw body, verified on both ends.
BLOB_DIGEST_HEADER = "X-Repro-Blob-SHA256"

#: Blob size header (set on GET/HEAD so HEAD needs no body).
BLOB_SIZE_HEADER = "X-Repro-Blob-Bytes"

#: Typed-error → HTTP status, most specific first (the response contract).
_ERROR_STATUS = (
    (StoreIntegrityError, 400),
    (PayloadTooLargeError, 413),
    (StoreUnavailableError, 503),
    (ValidationError, 400),
    (StoreError, 500),
)

#: A rendered response: ``(status, body, content_type, extra_headers)``.
StoreResponse = tuple[int, bytes, str, dict[str, str]]


class StoreDispatcher:
    """Store HTTP semantics for every bodiless request.

    Routes::

        GET/HEAD /artifacts/<key>   blob bytes + digest/size headers
        GET      /stat[/<key>]      store totals / one entry's size+digest
        GET      /healthz           liveness + role
        GET      /metrics           counters and histograms (JSON)
    """

    def __init__(self, service: StoreService):
        self.service = service

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def json_response(status: int, payload: dict) -> StoreResponse:
        return status, json.dumps(payload).encode("utf-8"), "application/json", {}

    def not_found(self, message: str) -> StoreResponse:
        return self.json_response(404, {"error": message, "type": "NotFound"})

    def error_response(self, error: BaseException) -> StoreResponse:
        for kind, status in _ERROR_STATUS:
            if isinstance(error, kind):
                return self.json_response(status, {"error": str(error), "type": type(error).__name__})
        raise error

    # -- routing -----------------------------------------------------------

    @staticmethod
    def artifact_key(path: str) -> str | None:
        """``/artifacts/<key>`` → ``key``, anything else → ``None``."""
        parts = path.rstrip("/").split("/")
        if len(parts) == 3 and parts[1] == "artifacts" and parts[2]:
            return parts[2]
        return None

    def handle(self, method: str, path: str) -> StoreResponse:
        """One bodiless request in, one rendered response out.

        ``PUT /artifacts/<key>`` streams its body and is served by the
        transport through :meth:`StoreService.put_stream` instead.
        """
        try:
            if method in ("GET", "HEAD"):
                return self._get(method, path)
            return self.not_found(f"no route {method} {path!r}")
        except KeyError as error:
            return self.not_found(f"no artifact {error.args[0]!r} in this store")
        except (ValidationError, StoreError) as error:
            return self.error_response(error)

    def _get(self, method: str, path: str) -> StoreResponse:
        key = self.artifact_key(path)
        if key is not None:
            blob, digest = self.service.get_blob(key)
            headers = {BLOB_DIGEST_HEADER: digest, BLOB_SIZE_HEADER: str(len(blob))}
            body = b"" if method == "HEAD" else blob
            return 200, body, "application/octet-stream", headers
        if path == "/healthz":
            return self.json_response(200, self.service.healthz())
        if path == "/metrics":
            return self.json_response(200, self.service.metrics())
        if path == "/stat":
            return self.json_response(200, self.service.stat())
        parts = path.rstrip("/").split("/")
        if len(parts) == 3 and parts[1] == "stat" and parts[2]:
            return self.json_response(200, self.service.stat_key(parts[2]))
        return self.not_found(f"no route {path!r}")


class _Handler(BaseHTTPRequestHandler):
    """Socket plumbing; semantics live in the dispatcher/service."""

    server: "StoreHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate sends; with Nagle on, a
    # keep-alive reply waits for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # /metrics covers observability; no per-request stderr lines

    def _send(self, response: StoreResponse) -> None:
        status, body, content_type, extra = response
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        if body:
            self.wfile.write(body)

    # -- streamed artifact GET ---------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        key = StoreDispatcher.artifact_key(self.path)
        if key is None:
            self._send(self.server.dispatcher.handle("GET", self.path))
            return
        try:
            handle, size, digest = self.server.service.open_blob(key)
        except KeyError:
            self._send(self.server.dispatcher.not_found(f"no artifact {key!r} in this store"))
            return
        except (ValidationError, StoreError) as error:
            self._send(self.server.dispatcher.error_response(error))
            return
        with handle:
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(size))
            self.send_header(BLOB_DIGEST_HEADER, digest)
            self.send_header(BLOB_SIZE_HEADER, str(size))
            self.end_headers()
            while True:
                chunk = handle.read(CHUNK_BYTES)
                if not chunk:
                    break
                self.wfile.write(chunk)

    def do_HEAD(self) -> None:  # noqa: N802 - stdlib dispatch name
        self._send(self.server.dispatcher.handle("HEAD", self.path))

    # -- streamed artifact PUT ---------------------------------------------

    def _body_chunks(self, remaining: int) -> Iterator[bytes]:
        while remaining > 0:
            chunk = self.rfile.read(min(CHUNK_BYTES, remaining))
            if not chunk:
                return  # client hung up mid-body; the digest check rejects
            remaining -= len(chunk)
            yield chunk

    def do_PUT(self) -> None:  # noqa: N802 - stdlib dispatch name
        dispatcher = self.server.dispatcher
        key = StoreDispatcher.artifact_key(self.path)
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if key is None or length < 0:
            # Body unread: this connection's framing is lost, so close it.
            self.close_connection = True
            if key is None:
                self._send(dispatcher.not_found(f"no route {self.path!r}"))
            else:
                self._send(
                    dispatcher.error_response(ValidationError("invalid Content-Length"))
                )
            return
        claimed = self.headers.get(BLOB_DIGEST_HEADER)
        try:
            result = self.server.service.put_stream(
                key, self._body_chunks(length), claimed, declared_length=length
            )
            response = dispatcher.json_response(200, result)
        except (ValidationError, StoreError) as error:
            # An error mid-stream leaves body bytes unread on the socket;
            # close rather than let the next request misparse them.
            self.close_connection = True
            response = dispatcher.error_response(error)
        self._send(response)


class StoreHTTPServer(ThreadingHTTPServer):
    """Threaded artifact-store transport over one :class:`StoreService`."""

    daemon_threads = True

    def __init__(self, service: StoreService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self.dispatcher = StoreDispatcher(service)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns it (caller keeps the server)."""
        thread = threading.Thread(target=self.serve_forever, name="repro-store-http", daemon=True)
        thread.start()
        return thread

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
