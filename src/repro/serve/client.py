"""The in-process client for the serving API.

:class:`InProcessClient` speaks the four HTTP operations with the same
response shapes, calling the :class:`ServeService` directly (no sockets,
no serialization) — it is the harness the concurrency and determinism
tests hammer.
"""

from __future__ import annotations

from typing import Any

from .service import ServeService

__all__ = ["InProcessClient"]


class InProcessClient:
    """The serving API without a network: direct calls into the service."""

    def __init__(self, service: ServeService):
        self.service = service

    def predict(self, rows, *, timeout: float | None = None) -> dict[str, Any]:
        return self.service.predict(rows, timeout=timeout)

    def feedback(self, limit: int | None = None) -> dict[str, Any]:
        return self.service.feedback(limit)

    def healthz(self) -> dict[str, Any]:
        return self.service.healthz()

    def metrics(self) -> dict[str, Any]:
        return self.service.metrics()
