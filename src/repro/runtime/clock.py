"""The runtime's single budget-owning clock (RL004 boundary).

Wall-clock reads make results depend on machine speed, so reprolint rule
RL004 confines them to this module.  Two clock-shaped things are needed —
durations (task bookkeeping, benchmarks) and deadlines (the serving
layer's request and drain timeouts) — and both are budget logic, so they
live behind this one module's tiny surface instead of scattering
``time.monotonic()`` calls through the code.  Nothing here may influence
a task's *result*: the executors only time tasks, never interrupt them.
"""

from __future__ import annotations

import time

__all__ = ["monotonic", "Stopwatch", "Deadline"]


def monotonic() -> float:
    """Monotonic seconds; the only clock the runtime reads."""
    return time.monotonic()


class Stopwatch:
    """Measure an elapsed duration (executor bookkeeping, benchmarks)."""

    def __init__(self) -> None:
        self._start = monotonic()

    def elapsed(self) -> float:
        return monotonic() - self._start


class Deadline:
    """A time budget; ``None`` seconds means unbounded."""

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._start = monotonic()

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` when unbounded; never below zero."""
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - (monotonic() - self._start))
