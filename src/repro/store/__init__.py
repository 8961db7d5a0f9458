"""Distributed artifact store for the task grid (DESIGN.md §store).

The grid's determinism contract makes every cell a pure function of its
content-addressed key — so warming a cache is location-independent.
This package is the network tier that exploits that: an HTTP blob
server over an :class:`~repro.runtime.cache.ArtifactCache` directory,
and a client tier that lets one machine's grid answer from another
machine's cache with the records provably unchanged.  Three pieces:

- :mod:`~repro.store.service` — :class:`StoreService`: validated blob
  get/put/stat with SHA-256 wire integrity and a typed 400/404/413/503
  error contract;
- :mod:`~repro.store.server` — :class:`StoreHTTPServer`, the threaded
  transport (streamed bodies) on the socket plumbing it shares with
  :mod:`repro.serve.http`;
- :mod:`~repro.store.client` — :class:`StoreClient` (urllib wire
  client) and :class:`RemoteCacheTier`, the read-through/write-through
  wrapper around a local cache; pass
  ``RemoteCacheTier(ArtifactCache(dir), url)`` to
  :class:`~repro.runtime.TaskRuntime` as its ``cache``.

``python -m repro store serve|stat`` exposes the package on the CLI;
``--store URL`` on the experiment commands attaches the remote tier.
"""

from .client import RemoteCacheTier, StoreClient
from .server import BLOB_DIGEST_HEADER, StoreHTTPServer, serve_store_http
from .service import DEFAULT_MAX_BLOB_BYTES, StoreService, blob_digest

__all__ = [
    "StoreService",
    "StoreHTTPServer",
    "serve_store_http",
    "StoreClient",
    "RemoteCacheTier",
    "blob_digest",
    "BLOB_DIGEST_HEADER",
    "DEFAULT_MAX_BLOB_BYTES",
]
