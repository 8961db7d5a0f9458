"""Deterministic workload shapes: the traffic a million users would send.

A :class:`WorkloadShape` bundles an arrival process with client
behaviour knobs.  Factories build the shapes the north-star regime
cares about:

- :func:`open_loop` — Poisson arrivals at a fixed rate: users do not
  wait for each other, so offered load is independent of service speed
  (the regime where overload actually happens);
- :func:`closed_loop` — a fixed population of clients, each issuing the
  next request after the previous reply (plus think time): offered load
  self-throttles, the classic benchmark-harness regime;
- :func:`retry_storm` — open loop where every shed request is retried
  with backoff, each retry a *new offered attempt* — the feedback loop
  that melts services whose only defence is queueing;
- :func:`flash_crowd` — open loop with a mid-run burst at a much higher
  rate (rate → peak_rate → rate), the "suddenly on the front page"
  shape;
- :func:`slow_client` — requests whose bytes dribble in tiny chunks
  with pauses, starving thread-per-connection servers;
- :func:`connection_churn` — a fresh TCP connection per request, with
  an optional fraction aborted mid-send (client gave up).

Everything random — arrival gaps, row choices, abort picks — flows
through one seeded generator (:func:`repro.rng.check_random_state`,
RL001), so a workload is a pure function of ``(shape, seed)``:
:func:`arrival_times` returns the exact same schedule on every run, and
the transport-equivalence tests rely on replaying one workload over HTTP
and in process byte-for-byte.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "WorkloadShape",
    "open_loop",
    "closed_loop",
    "retry_storm",
    "flash_crowd",
    "slow_client",
    "connection_churn",
    "arrival_times",
]


@dataclasses.dataclass(frozen=True)
class WorkloadShape:
    """One workload: an arrival process plus client behaviour knobs.

    ``kind`` is ``"open"`` (scheduled arrivals; ``n_requests`` total)
    or ``"closed"`` (``clients`` workers each issuing ``n_requests``
    back-to-back with ``think_time`` pauses).  The dribble/churn/abort
    fields only apply when the driver speaks real sockets.
    """

    name: str
    kind: str = "open"
    n_requests: int = 100
    rate: float = 200.0
    peak_rate: float | None = None
    burst_start: float = 0.4
    burst_fraction: float = 0.0
    clients: int = 4
    think_time: float = 0.0
    rows_per_request: int = 1
    retry_on_shed: bool = False
    max_retries: int = 0
    backoff: float = 0.0
    request_timeout: float = 10.0
    dribble_chunk: int | None = None
    dribble_delay: float = 0.0
    new_connection_per_request: bool = False
    abort_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("open", "closed"):
            raise ValidationError(f"kind must be 'open' or 'closed', got {self.kind!r}")
        if self.n_requests < 1 or self.clients < 1 or self.rows_per_request < 1:
            raise ValidationError("n_requests, clients, and rows_per_request must be >= 1")
        if self.rate <= 0 or (self.peak_rate is not None and self.peak_rate <= 0):
            raise ValidationError("arrival rates must be positive")
        if not 0.0 <= self.burst_fraction < 1.0 or not 0.0 <= self.burst_start < 1.0:
            raise ValidationError("burst_start/burst_fraction must be in [0, 1)")
        if not 0.0 <= self.abort_fraction <= 1.0:
            raise ValidationError(f"abort_fraction must be in [0, 1], got {self.abort_fraction}")
        if self.request_timeout <= 0:
            raise ValidationError(f"request_timeout must be positive, got {self.request_timeout}")

    def to_json(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def open_loop(n_requests: int, rate: float, **kwargs) -> WorkloadShape:
    """Poisson open-loop arrivals at ``rate`` requests/second."""
    return WorkloadShape(name="open_loop", kind="open", n_requests=n_requests, rate=rate, **kwargs)


def closed_loop(n_requests: int, clients: int, think_time: float = 0.0, **kwargs) -> WorkloadShape:
    """``clients`` workers, each sending ``n_requests`` with ``think_time`` pauses."""
    return WorkloadShape(
        name="closed_loop",
        kind="closed",
        n_requests=n_requests,
        clients=clients,
        think_time=think_time,
        **kwargs,
    )


def retry_storm(n_requests: int, rate: float, *, max_retries: int = 5, backoff: float = 0.002, **kwargs) -> WorkloadShape:
    """Open loop where shed requests retry with backoff (each retry offered anew)."""
    return WorkloadShape(
        name="retry_storm",
        kind="open",
        n_requests=n_requests,
        rate=rate,
        retry_on_shed=True,
        max_retries=max_retries,
        backoff=backoff,
        **kwargs,
    )


def flash_crowd(
    n_requests: int,
    rate: float,
    peak_rate: float,
    *,
    burst_start: float = 0.4,
    burst_fraction: float = 0.4,
    **kwargs,
) -> WorkloadShape:
    """Open loop with a mid-run burst: ``rate`` → ``peak_rate`` → ``rate``."""
    return WorkloadShape(
        name="flash_crowd",
        kind="open",
        n_requests=n_requests,
        rate=rate,
        peak_rate=peak_rate,
        burst_start=burst_start,
        burst_fraction=burst_fraction,
        **kwargs,
    )


def slow_client(
    n_requests: int, rate: float, *, dribble_chunk: int = 16, dribble_delay: float = 0.005, **kwargs
) -> WorkloadShape:
    """Open loop whose request bytes dribble in ``dribble_chunk``-byte writes."""
    return WorkloadShape(
        name="slow_client",
        kind="open",
        n_requests=n_requests,
        rate=rate,
        dribble_chunk=dribble_chunk,
        dribble_delay=dribble_delay,
        **kwargs,
    )


def connection_churn(n_requests: int, rate: float, *, abort_fraction: float = 0.0, **kwargs) -> WorkloadShape:
    """Open loop with a fresh TCP connection per request; some aborted mid-send."""
    return WorkloadShape(
        name="connection_churn",
        kind="open",
        n_requests=n_requests,
        rate=rate,
        new_connection_per_request=True,
        abort_fraction=abort_fraction,
        **kwargs,
    )


def arrival_times(shape: WorkloadShape, rng: np.random.Generator) -> np.ndarray:
    """The seeded arrival schedule (seconds from run start), non-decreasing.

    Open-loop gaps are exponential with mean ``1/rate``; a flash-crowd
    shape draws its burst segment at ``peak_rate`` instead.  Closed-loop
    shapes have no schedule (arrivals are reply-driven) and return an
    empty array.

    Parameters
    ----------
    shape:
        The workload to schedule.
    rng:
        A seeded generator (``check_random_state`` output); consumed.
    """
    if shape.kind != "open":
        return np.empty(0, dtype=np.float64)
    n = shape.n_requests
    if shape.peak_rate is None or shape.burst_fraction == 0.0:
        gaps = rng.exponential(1.0 / shape.rate, size=n)
        return np.cumsum(gaps)
    n_burst = int(round(n * shape.burst_fraction))
    n_before = int(round(n * shape.burst_start))
    n_before = min(n_before, n - n_burst)
    n_after = n - n_before - n_burst
    gaps = np.concatenate(
        [
            rng.exponential(1.0 / shape.rate, size=n_before),
            rng.exponential(1.0 / shape.peak_rate, size=n_burst),
            rng.exponential(1.0 / shape.rate, size=n_after),
        ]
    )
    return np.cumsum(gaps)
