"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotFittedError(ReproError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class ValidationError(ReproError, ValueError):
    """Raised when user-provided data or parameters are invalid."""


class ConvergenceWarning(UserWarning):
    """Warning emitted when an iterative solver stops before converging."""


class SearchBudgetError(ReproError):
    """Raised when an AutoML search is configured with an impossible budget."""


class EmulationError(ReproError):
    """Raised when a network emulation scenario is malformed or diverges."""


class SubspaceError(ReproError, ValueError):
    """Raised for invalid subspace algebra operations (e.g. empty domains)."""


class ServeError(ReproError):
    """Base class for online-serving failures (:mod:`repro.serve`)."""


class RegistryError(ServeError):
    """Raised when a model-registry operation cannot be honored."""


class BackpressureError(ServeError):
    """Raised when the inference queue is full and a request is shed.

    The typed alternative to blocking: a caller seeing this error knows the
    service is overloaded *now* and can retry, down-sample, or fail over —
    the request was never enqueued.
    """


class RequestTimeoutError(ServeError):
    """Raised when a request's reply did not arrive within its timeout."""


class StoreError(ReproError):
    """Base class for artifact-store failures (:mod:`repro.store`)."""


class StoreIntegrityError(StoreError):
    """Raised when a blob's bytes do not hash to their claimed SHA-256 digest.

    Raised server-side when an uploaded body does not match the digest the
    client declared, and client-side when a fetched body does not match the
    digest the server declared — the two ends of the wire-integrity
    contract.  The offending bytes are never installed.
    """


class PayloadTooLargeError(StoreError):
    """Raised when a request body exceeds the store's size bound (HTTP 413)."""


class StoreUnavailableError(StoreError):
    """Raised when the artifact store cannot serve (shut down or unreachable).

    The remote cache tier catches this (and raw socket errors) to degrade
    to local-only operation: a peer being down must never fail a task.
    """
