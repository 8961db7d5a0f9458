"""Content-addressed artifact cache for runtime tasks.

Cross-ALE's cost is repeated AutoML fits of *identical* work: the same
training matrix, the same search configuration, the same seed.  This cache
makes that work pay once.  Artifacts (fitted ensembles, ALE curve bundles
— anything picklable a task returns) are stored under a SHA-256 key of

    (cache-format salt, task function name, payload digest, seed path)

so a key names the *content* of a computation, never a position in some
run: two runs that would compute the same thing share an entry, and any
drift in inputs, seeds, or the cache format yields a different key.

Robustness rules:

- writes are atomic (temp file + ``os.replace``), so a crashed run never
  leaves a half-written artifact behind;
- a corrupt or unreadable entry is a *miss*, never a crash: the poisoned
  file is deleted and the task recomputes;
- the on-disk layout is flat ``<digest>.pkl`` files plus two-level fanout
  directories, all under ``~/.cache/repro-ale`` (``REPRO_CACHE_DIR``
  overrides, as does the ``directory`` argument).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from ..exceptions import ValidationError
from ..rng import SeedPath
from .task import Task

__all__ = [
    "ArtifactCache",
    "Provenance",
    "digest_payload",
    "task_key",
    "default_cache_dir",
    "CACHE_SALT",
    "PUBLISH_SALT",
    "write_atomic",
]

#: Format/version salt mixed into every key.  Bump when task semantics or
#: the artifact encoding change: old entries become unreachable (and
#: prunable) instead of silently wrong.
CACHE_SALT = "repro-runtime-cache-v1"

#: Salt for *published* artifacts (model-registry bundles): published keys
#: address pickled bytes directly, not a task identity, so they version
#: independently of task semantics.
PUBLISH_SALT = "repro-publish-v1"

_ENV_VAR = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-ale``."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-ale"


@dataclasses.dataclass(frozen=True)
class Provenance:
    """A task output tagged with the key of the task that produced it.

    Complex artifacts (fitted ensembles, search states) do not pickle to
    canonical bytes — a freshly built object and its cache round-trip can
    serialize differently — so embedding one in a downstream payload would
    make that payload's digest depend on *how the object got here* rather
    than on what it is.  Wrapping it as ``Provenance(task_key(t), value)``
    digests by the producing task's content address instead: stable,
    O(1), and exactly the identity the cache already trusts.

    ``value`` rides along untouched (workers unwrap it); only ``key``
    enters the digest.
    """

    key: str
    value: Any


def _hash_update(h, *chunks: bytes) -> None:
    for chunk in chunks:
        h.update(chunk)
        h.update(b"\x00")


def digest_payload(obj: Any) -> str:
    """Stable SHA-256 hex digest of a task payload.

    Canonically encodes the JSON-ish core (None/bool/int/float/str/bytes,
    sequences, sorted mappings), numpy arrays by dtype+shape+buffer, and
    dataclasses/functions/classes by qualified name plus fields.  Anything
    else falls back to its pickle — stable for a fixed code version, and a
    wrong guess can only cost a cache miss, never a wrong hit.
    """
    h = hashlib.sha256()
    _digest_into(h, obj)
    return h.hexdigest()


def _digest_into(h, obj: Any) -> None:
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        _hash_update(h, b"prim", type(obj).__name__.encode(), repr(obj).encode())
    elif isinstance(obj, np.ndarray):
        array = np.ascontiguousarray(obj)
        _hash_update(h, b"ndarray", array.dtype.str.encode(), repr(array.shape).encode(), array.tobytes())
    elif isinstance(obj, np.generic):
        _digest_into(h, obj.item())
    elif isinstance(obj, (list, tuple)):
        _hash_update(h, b"seq", type(obj).__name__.encode(), str(len(obj)).encode())
        for item in obj:
            _digest_into(h, item)
    elif isinstance(obj, Provenance):
        # Before the generic dataclass branch: digest the content address,
        # never the (non-canonical) value bytes.
        _hash_update(h, b"provenance", obj.key.encode())
    elif isinstance(obj, Mapping):
        keys = sorted(obj, key=repr)
        _hash_update(h, b"map", str(len(keys)).encode())
        for key in keys:
            _digest_into(h, key)
            _digest_into(h, obj[key])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _hash_update(h, b"dataclass", _qualified_name(type(obj)).encode())
        for field in dataclasses.fields(obj):
            _hash_update(h, field.name.encode())
            _digest_into(h, getattr(obj, field.name))
    elif isinstance(obj, type) or callable(obj) and hasattr(obj, "__qualname__"):
        # Functions and classes hash by identity-in-code: the module path.
        # Their behaviour is covered by CACHE_SALT's code-version contract.
        _hash_update(h, b"callable", _qualified_name(obj).encode())
    else:
        _hash_update(h, b"pickle", pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _qualified_name(obj: Any) -> str:
    module = getattr(obj, "__module__", "?")
    qualname = getattr(obj, "__qualname__", type(obj).__qualname__)
    return f"{module}.{qualname}"


def task_key(task: Task, *, salt: str = CACHE_SALT) -> str:
    """The content address of one task's result."""
    h = hashlib.sha256()
    _hash_update(h, b"task", salt.encode(), task.fn_name.encode(), repr(tuple(task.seed_path)).encode())
    _hash_update(h, digest_payload(task.payload).encode())
    return h.hexdigest()


def write_atomic(path: Path, blob: bytes) -> None:
    """Install ``blob`` at ``path`` via a unique temp file + ``os.replace``.

    The temp name comes from :func:`tempfile.mkstemp`, which is unique
    per *call* — not merely per process — so two threads (or a publish
    racing a concurrent install of the same key, or two registry
    manifest writes) can never scribble into one shared temp file and
    leave a torn file behind; each writer renames its own complete bytes
    into place and the last rename wins whole.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass  # the normal case: os.replace already consumed it


class ArtifactCache:
    """Persistent pickle store addressed by :func:`task_key` digests."""

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.corrupt_evictions = 0

    # -- addressing --------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """On-disk location for ``key`` (two-level fanout)."""
        if len(key) < 8 or any(c not in "0123456789abcdef" for c in key):
            raise ValidationError(f"cache keys are sha256 hex digests, got {key!r}")
        return self.directory / key[:2] / f"{key}.pkl"

    def _entries(self) -> Iterator[Path]:
        if not self.directory.is_dir():
            return
        yield from sorted(self.directory.glob("*/*.pkl"))

    # -- read/write --------------------------------------------------------

    def load(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)``; a corrupt entry is evicted and reported as a miss."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except Exception:  # corrupt pickle, truncated file, perm change, ...
            self.corrupt_evictions += 1
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        return True, value

    @staticmethod
    def encode(value: Any) -> bytes:
        """The bytes every write path lands on disk for ``value``."""
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def store(self, key: str, value: Any) -> Path:
        """Atomically persist ``value`` under ``key``; returns the path."""
        path = self.path_for(key)
        write_atomic(path, self.encode(value))
        return path

    # -- publish/fetch (registry entry points) ----------------------------

    def publish(self, value: Any, *, salt: str = PUBLISH_SALT) -> str:
        """Persist ``value`` under the content address of its pickled bytes.

        The entry point the model registry builds on: unlike :meth:`store`
        (keyed by a task's identity), a published artifact is addressed by
        *what it is* — ``sha256(salt, pickle(value))`` — so re-publishing
        identical bytes is a no-op and a manifest holding the key can
        verify integrity on load.  Returns the key.
        """
        blob = self.encode(value)
        h = hashlib.sha256()
        _hash_update(h, b"publish", salt.encode(), blob)
        key = h.hexdigest()
        path = self.path_for(key)
        if not path.exists():
            write_atomic(path, blob)
        return key

    def fetch(self, key: str) -> Any:
        """Load a published artifact, raising ``KeyError`` when absent.

        The strict counterpart of :meth:`load`: a registry manifest that
        names a key *promises* the artifact exists, so a miss (including a
        corrupt entry, which :meth:`load` evicts) is an error, not a
        recomputable cache miss.
        """
        hit, value = self.load(key)
        if not hit:
            raise KeyError(key)
        return value

    # -- raw blob access (the network tier's entry points) -----------------

    def read_blob(self, key: str) -> bytes | None:
        """The exact on-disk bytes of one entry, or ``None`` when absent.

        What a network peer ships: the pickled artifact *as stored*, so a
        remote install is byte-for-byte the file a local execution would
        have written and content digests agree across machines.
        """
        try:
            with open(self.path_for(key), "rb") as handle:
                return handle.read()
        except OSError:
            return None

    def install_blob(self, key: str, blob: bytes) -> Path:
        """Atomically install raw artifact bytes under ``key``.

        The write-side counterpart of :meth:`read_blob`: callers that
        already hold serialized bytes (a verified remote fetch) land them
        without a pickle round-trip, via the same unique-temp atomic
        rename every other write path uses.
        """
        path = self.path_for(key)
        write_atomic(path, blob)
        return path

    # -- maintenance -------------------------------------------------------

    def keys(self) -> list[str]:
        """The content-address keys of every entry on disk, sorted."""
        return [path.stem for path in self._entries()]

    def remove(self, key: str) -> bool:
        """Delete one entry by key; returns whether a file was removed."""
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def info(self) -> dict[str, Any]:
        """Entry count and total bytes on disk."""
        entries = []
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # swept by a concurrent prune/remove between glob and stat
            entries.append(path)
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": int(total),
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_bytes: int) -> int:
        """Evict oldest-first until the cache fits ``max_bytes``; returns evictions."""
        if max_bytes < 0:
            raise ValidationError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for path in self._entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        return removed
