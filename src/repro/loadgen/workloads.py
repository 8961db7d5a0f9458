"""The open-loop Poisson schedule: when each request of a run is due.

Open-loop clients do not wait for each other, so the offered load is
independent of how fast the service answers.  The schedule is drawn
from one seeded generator (:func:`repro.rng.check_random_state`,
RL001), so it is a pure function of ``(shape, seed)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..exceptions import ValidationError

__all__ = ["open_loop", "arrival_times"]


@dataclasses.dataclass(frozen=True)
class OpenLoop:
    """``n_requests`` Poisson arrivals at ``rate`` requests/second."""

    n_requests: int
    rate: float

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValidationError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.rate <= 0:
            raise ValidationError(f"rate must be positive, got {self.rate}")


def open_loop(n_requests: int, rate: float) -> OpenLoop:
    """Poisson open-loop arrivals at ``rate`` requests/second."""
    return OpenLoop(n_requests=n_requests, rate=rate)


def arrival_times(shape: OpenLoop, rng: np.random.Generator) -> np.ndarray:
    """The seeded arrival schedule (seconds from run start), non-decreasing.

    Gaps are exponential with mean ``1/rate``; ``rng`` is consumed.
    """
    return np.cumsum(rng.exponential(1.0 / shape.rate, size=shape.n_requests))
