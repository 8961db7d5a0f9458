"""The serving façade: registry + engine + monitor behind four operations.

:class:`ServeService` is the single object both ways in (the threaded
HTTP server and the in-process client) talk to.  It owns exactly the
four operations the JSON API exposes:

- ``predict(rows)``   → labels, probabilities, uncertainty verdicts;
- ``feedback(limit)`` → drain the labeling queue (the paper's "collect
  more data here" output, served as candidates to label);
- ``healthz()``       → liveness plus which model/version is serving;
- ``metrics()``       → the engine's counters and latency histograms.

Keeping the HTTP server this thin means every concurrency/correctness
test can run against the service in-process and still exercise the same
code the HTTP path does: a request's ``/predict`` payload is the same
dict whichever way it came in.

Hot-swapping: the retraining loop promotes new versions *into a running
service*.  All mutable serving state lives in one ``_state`` tuple
``(bundle, version, engine)`` replaced by a single attribute assignment
(atomic in CPython), and every operation reads the tuple exactly once —
so a concurrent request observes wholly the old version or wholly the
new one, never a torn mix.  The service owns one
:class:`MetricsRegistry` shared across every engine it creates, so
counters and histograms survive swaps.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

from .engine import InferenceEngine, ServeConfig
from .metrics import MetricsRegistry
from .registry import ModelBundle, ModelRegistry

__all__ = ["ServeService"]


class ServeService:
    """One deployed model bundle plus its inference engine, hot-swappable."""

    def __init__(
        self,
        bundle: ModelBundle,
        config: ServeConfig | None = None,
        *,
        version: int | None = None,
        registry: ModelRegistry | None = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.registry = registry
        self.metrics_registry = MetricsRegistry()
        engine = InferenceEngine(bundle, self.config, metrics=self.metrics_registry)
        self._state: tuple[ModelBundle, int | None, InferenceEngine] = (bundle, version, engine)

    # Views onto the atomic state tuple: tests and the dispatcher read
    # service.bundle / .version / .engine directly.

    @property
    def bundle(self) -> ModelBundle:
        return self._state[0]

    @property
    def version(self) -> int | None:
        return self._state[1]

    @property
    def engine(self) -> InferenceEngine:
        return self._state[2]

    @classmethod
    def from_registry(
        cls,
        name: str,
        *,
        directory: Path | str | None = None,
        version: int | None = None,
        config: ServeConfig | None = None,
        persist_labels: bool = False,
    ) -> "ServeService":
        """Load ``name`` (promoted version by default) and start serving it.

        With ``persist_labels=True`` the labeling queue journals to
        ``<registry dir>/labeling/<name>.jsonl`` so the backlog of
        uncertain points survives restarts.
        """
        registry = ModelRegistry(directory)
        bundle = registry.load(name, version)
        resolved = version if version is not None else registry.promoted_version(name)
        if persist_labels and (config is None or config.labeling_snapshot is None):
            snapshot = str(registry.directory / "labeling" / f"{name}.jsonl")
            base = config if config is not None else ServeConfig()
            config = dataclasses.replace(base, labeling_snapshot=snapshot)
        return cls(bundle, config, version=resolved, registry=registry)

    # -- hot swap ----------------------------------------------------------

    def swap(self, bundle: ModelBundle, *, version: int | None = None) -> None:
        """Atomically replace the serving bundle; the old engine drains.

        The new engine shares the service's metrics registry, starts
        serving the moment ``_state`` is reassigned, and the old engine
        is closed *afterwards* so its queued requests still complete
        against the version they were submitted to.
        """
        old_engine = self._state[2]
        engine = InferenceEngine(bundle, self.config, metrics=self.metrics_registry)
        self._state = (bundle, version, engine)
        old_engine.close()

    def reload(self, version: int | None = None) -> int | None:
        """Re-load from the registry (promoted version by default) and swap.

        Requires the service to have been built via :meth:`from_registry`
        (or with an explicit ``registry=``).  Returns the version now
        serving.  A no-op when the requested version is already serving.
        """
        if self.registry is None:
            raise ValueError("reload() needs a registry; build the service with from_registry()")
        name = self._state[0].name
        resolved = version if version is not None else self.registry.promoted_version(name)
        if resolved is not None and resolved == self._state[1]:
            return resolved
        bundle = self.registry.load(name, version)
        self.swap(bundle, version=resolved)
        return resolved

    # -- the four API operations ------------------------------------------

    def predict(self, rows, *, timeout: float | None = None) -> dict[str, Any]:
        """Predict one request's rows; returns the JSON-shaped response."""
        bundle, version, engine = self._state
        prediction = engine.predict(rows, timeout=timeout)
        return {"model": bundle.name, "version": version, **prediction.to_json()}

    def feedback(self, limit: int | None = None) -> dict[str, Any]:
        """Drain up to ``limit`` uncertain points awaiting labels."""
        bundle, version, engine = self._state
        queue = engine.monitor.queue
        return {
            "model": bundle.name,
            "version": version,
            "candidates": queue.drain(limit),
            "queue": queue.stats(),
        }

    def quiesce(self, timeout: float | None = None) -> bool:
        """Wait for in-flight requests (incl. shadow work) to finish."""
        return self._state[2].quiesce(timeout)

    def healthz(self) -> dict[str, Any]:
        bundle, version, _ = self._state
        return {
            "status": "ok",
            "model": bundle.name,
            "version": version,
            "n_features": bundle.n_features,
            "feature_names": [domain.name for domain in bundle.domains],
            "classes": bundle.classes,
        }

    def metrics(self) -> dict[str, Any]:
        _, _, engine = self._state
        snapshot = self.metrics_registry.snapshot()
        snapshot["labeling_queue"] = engine.monitor.queue.stats()
        return snapshot

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._state[2].close()

    def __enter__(self) -> "ServeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
