"""The sockets-free request dispatcher.

:class:`RequestDispatcher` is the one place HTTP semantics live: route
parsing (``/predict``, ``/predict/<name>``, ``/feedback[/<name>]``,
``/healthz``, ``/metrics``), payload validation, and the typed-error →
status mapping (400/404/503/504/500) for the one
:class:`~repro.serve.service.ServeService` a listener serves.  The
threaded HTTP server (:mod:`repro.serve.http`) only frames bytes around
it, so tests and the Hypothesis fuzzer drive the full request contract
through :meth:`RequestDispatcher.post` without opening a socket.
"""

from __future__ import annotations

from typing import Any

from ..exceptions import BackpressureError, RequestTimeoutError, ServeError, ValidationError
from .service import ServeService

__all__ = ["RequestDispatcher"]


class RouteNotFound(Exception):
    """Transport-internal signal: this path or model name maps to nothing.

    Deliberately *not* a :class:`~repro.exceptions.ReproError` — it never
    escapes the dispatcher; it only carries the 404 message between
    route parsing and response rendering.
    """


#: Typed-error → HTTP status, most specific first (the response contract).
_ERROR_STATUS = (
    (ValidationError, 400),
    (BackpressureError, 503),
    (RequestTimeoutError, 504),
    (ServeError, 500),
)


class RequestDispatcher:
    """HTTP semantics — routing, validation, error mapping — sans sockets.

    ``target`` is the one :class:`ServeService` the listener serves.
    The HTTP server hands paths and parsed JSON in and gets ``(status,
    payload)`` out; it never interprets errors itself.
    """

    def __init__(self, target: ServeService):
        self.target = target

    # -- route/payload parsing ---------------------------------------------

    def parse_post_route(self, path: str) -> tuple[str, str | None]:
        """``/predict[/<name>]`` or ``/feedback[/<name>]`` → ``(kind, name)``."""
        parts = path.rstrip("/").split("/")
        if len(parts) == 2 and parts[1] in ("predict", "feedback"):
            return parts[1], None
        if len(parts) == 3 and parts[1] in ("predict", "feedback") and parts[2]:
            return parts[1], parts[2]
        raise RouteNotFound(f"no route {path!r}")

    def service_for(self, name: str | None) -> ServeService:
        """The served service, if ``name`` is absent or names its model."""
        if name is not None and name != self.target.bundle.name:
            raise RouteNotFound(f"no model route {name!r}; serving: [{self.target.bundle.name!r}]")
        return self.target

    @staticmethod
    def rows_of(payload: dict) -> Any:
        rows = payload.get("rows")
        if rows is None:
            raise ValidationError('predict requests need a "rows" field: {"rows": [[...], ...]}')
        return rows

    @staticmethod
    def limit_of(payload: dict) -> int | None:
        limit = payload.get("limit")
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValidationError(f'"limit" must be a non-negative integer, got {limit!r}')
        return limit

    # -- responses ---------------------------------------------------------

    @staticmethod
    def not_found(message: str) -> tuple[int, dict]:
        return 404, {"error": message, "type": "NotFound"}

    @staticmethod
    def error_response(error: BaseException) -> tuple[int, dict]:
        """The typed-error contract: one (status, JSON body) per error class."""
        for kind, status in _ERROR_STATUS:
            if isinstance(error, kind):
                return status, {"error": str(error), "type": type(error).__name__}
        raise error

    def get(self, path: str) -> tuple[int, dict]:
        if path == "/healthz":
            return 200, self.target.healthz()
        if path == "/metrics":
            return 200, self.target.metrics()
        return self.not_found(f"no route {path!r}")

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        """Route, validate and answer one POST; errors become typed statuses."""
        try:
            kind, name = self.parse_post_route(path)
            if kind == "predict":
                rows = self.rows_of(payload)
                return 200, self.service_for(name).predict(rows)
            limit = self.limit_of(payload)
            return 200, self.service_for(name).feedback(limit)
        except RouteNotFound as error:
            return self.not_found(str(error))
        except (ValidationError, ServeError) as error:
            return self.error_response(error)
