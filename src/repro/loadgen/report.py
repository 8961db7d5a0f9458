"""Load reports and the invariants that turn a load test into a test.

Every attempt the driver makes ends in exactly one of four outcomes —
``completed`` (got a 200), ``shed`` (the service refused it, 503),
``timed_out`` (no reply in time, 504 or a client-side deadline), or
``failed`` (transport error, aborted send, unexpected status).  The
accounting identity

    ``offered == completed + shed + timed_out + failed``

is structural: an attempt that vanishes without an outcome is a dropped
request, which is precisely the bug class this harness exists to catch.
:func:`check_accounting` asserts the identity (and, by default, that
nothing landed in ``failed`` — overload must shed or time out, never
drop); :func:`check_shed_rate` bounds how much of an overload the
service refused.

Checkers raise :class:`~repro.exceptions.LoadTestError` so benchmark
scripts and tests fail loudly with the offending numbers in the message.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

import numpy as np

from ..exceptions import LoadTestError, ValidationError

__all__ = ["OUTCOMES", "Attempt", "LoadReport", "check_accounting", "check_shed_rate"]

#: The exhaustive, mutually exclusive ways one attempt can end.
OUTCOMES = ("completed", "shed", "timed_out", "failed")

#: Quantiles a report's latency summary carries (matches serve.metrics).
_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


@dataclasses.dataclass(frozen=True)
class Attempt:
    """One request attempt: when it was offered, how it ended, how long it took.

    ``offered_at`` and ``latency`` are seconds relative to the run start
    (driver stopwatch time, not wall-clock timestamps).
    """

    offered_at: float
    outcome: str
    latency: float = 0.0

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValidationError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")
        if self.offered_at < 0 or self.latency < 0:
            raise ValidationError(
                f"offered_at/latency must be >= 0, got {self.offered_at}/{self.latency}"
            )


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """The complete accounting of one workload run."""

    workload: dict[str, Any]
    duration: float
    offered: int
    completed: int
    shed: int
    timed_out: int
    failed: int
    latency: dict[str, float | int]
    per_second: list[dict[str, int]]

    @classmethod
    def from_attempts(
        cls,
        attempts: Iterable[Attempt] | Sequence[Attempt],
        *,
        duration: float,
        workload: dict[str, Any] | None = None,
    ) -> "LoadReport":
        """Aggregate raw attempts into counts, quantiles, and a time series.

        Latency quantiles are computed over *completed* attempts only
        (:func:`numpy.quantile`, linear interpolation — the same
        definition :mod:`repro.serve.metrics` reports, so client-side
        and server-side percentiles are comparable).
        """
        attempts = list(attempts)
        counts = dict.fromkeys(OUTCOMES, 0)
        for attempt in attempts:
            counts[attempt.outcome] += 1
        done = np.array(
            [attempt.latency for attempt in attempts if attempt.outcome == "completed"],
            dtype=np.float64,
        )
        latency: dict[str, float | int] = {"count": int(done.size)}
        if done.size:
            latency["mean"] = float(done.mean())
            latency["max"] = float(done.max())
            for label, q in _QUANTILES:
                latency[label] = float(np.quantile(done, q))
        last_second = max((int(attempt.offered_at) for attempt in attempts), default=-1)
        per_second = [
            {"second": second, **dict.fromkeys(OUTCOMES, 0)} for second in range(last_second + 1)
        ]
        for attempt in attempts:
            per_second[int(attempt.offered_at)][attempt.outcome] += 1
        return cls(
            workload=dict(workload or {}),
            duration=float(duration),
            offered=len(attempts),
            completed=counts["completed"],
            shed=counts["shed"],
            timed_out=counts["timed_out"],
            failed=counts["failed"],
            latency=latency,
            per_second=per_second,
        )

    # -- derived views -----------------------------------------------------

    @property
    def shed_rate(self) -> float:
        """Fraction of offered attempts the service shed (0 when idle)."""
        return self.shed / self.offered if self.offered else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of run duration."""
        return self.completed / self.duration if self.duration > 0 else 0.0

    def balanced(self) -> bool:
        """True iff the zero-drop accounting identity holds."""
        return self.offered == self.completed + self.shed + self.timed_out + self.failed

    def to_json(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["shed_rate"] = self.shed_rate
        out["throughput_rps"] = self.throughput_rps
        return out


def check_accounting(report: LoadReport, *, allow_failed: bool = False) -> None:
    """Assert the zero-drop identity: every offered attempt has an outcome.

    With ``allow_failed=False`` (default) also asserts ``failed == 0`` —
    under overload a healthy service sheds or times requests out; a
    transport-level failure is a drop in disguise.
    """
    if not report.balanced():
        raise LoadTestError(
            f"accounting identity violated: offered={report.offered} != "
            f"completed={report.completed} + shed={report.shed} + "
            f"timed_out={report.timed_out} + failed={report.failed}"
        )
    if not allow_failed and report.failed:
        raise LoadTestError(f"{report.failed} attempt(s) failed outright (drops in disguise)")


def check_shed_rate(report: LoadReport, *, max_rate: float | None = None, min_rate: float | None = None) -> None:
    """Assert the shed fraction sits inside ``[min_rate, max_rate]``.

    ``min_rate`` is how an overload test asserts backpressure actually
    engaged; ``max_rate`` is how a nominal-load test asserts it did not.
    """
    rate = report.shed_rate
    if max_rate is not None and rate > max_rate:
        raise LoadTestError(f"shed rate {rate:.3f} exceeds bound {max_rate:.3f}")
    if min_rate is not None and rate < min_rate:
        raise LoadTestError(f"shed rate {rate:.3f} below expected floor {min_rate:.3f}")
