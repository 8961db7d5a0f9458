"""Report CPU-bound timings at a fixed reference host speed.

A host whose cores are shared with other tenants switches speed between
levels that last seconds: on a 2-vCPU cloud VM the same pure-Python loop
took about 1.25 ms at one level and 1.8 ms at the other, and two
timings of one cold grid differed by a fifth with no change in the
program.  Before-and-after calibration loops miss a switch in the middle
of a repetition, so this module samples the speed *during* it.

:class:`SpeedSampler` arms a ``SIGALRM`` interval timer.  Every
:data:`PERIOD_S` seconds the main thread runs :func:`probe` — a fixed
mix of small NumPy operations, the kind of work the grid spends its time
on — and records how long it took.  The probe uses no code of the
program under test, so a faster program cannot make the probe faster.
A timed interval of ``raw`` seconds whose probes took ``c_i`` ms is
converted to reference seconds by integrating the work rate::

    reference_s = raw * REFERENCE_PROBE_MS * mean(1 / c_i)

which is the time the interval would have taken on a host where one
probe takes exactly :data:`REFERENCE_PROBE_MS`.  The probes cost about
1% of the interval, the same on every commit.
"""

from __future__ import annotations

import signal
import statistics

import numpy as np

from repro.runtime.clock import monotonic

#: Probe duration, in ms, on the reference host all reports are scaled to.
REFERENCE_PROBE_MS = 0.35
#: Seconds between probes.
PERIOD_S = 0.04

_PROBE_INPUT = np.arange(64, dtype=np.float64)


def probe() -> None:
    """The fixed calibration work: small-array NumPy calls in a loop."""
    values = _PROBE_INPUT
    for _ in range(40):
        running = np.cumsum(values)
        order = np.argsort(running[::-1])
        values = values + order[0] * 0.0


def probe_ms(repeats: int = 9) -> float:
    """Median duration of ``repeats`` back-to-back probes, in ms."""
    durations = []
    for _ in range(repeats):
        start = monotonic()
        probe()
        durations.append((monotonic() - start) * 1e3)
    return statistics.median(durations)


class SpeedSampler:
    """Samples the host speed on the main thread while it is running."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time, probe ms)

    def _sample(self, signum, frame) -> None:
        start = monotonic()
        probe()
        self.samples.append((start, (monotonic() - start) * 1e3))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probes_between(self, t0: float, t1: float) -> list[float]:
        """Probe durations (ms) taken in ``[t0, t1]``; at least the last three."""
        inside = [ms for t, ms in self.samples if t0 <= t <= t1]
        if len(inside) >= 3:
            return inside
        return [ms for t, ms in self.samples if t <= t1][-3:] or [probe_ms()]

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The interval ``[t0, t1]`` converted to reference-host seconds."""
        probes = self.probes_between(t0, t1)
        rate = sum(1.0 / ms for ms in probes) / len(probes)
        return (t1 - t0) * REFERENCE_PROBE_MS * rate

    def mean_probe_ms(self, t0: float, t1: float) -> float:
        """Mean probe duration in ``[t0, t1]`` — the ``host.calib_ms`` figure."""
        return statistics.fmean(self.probes_between(t0, t1))
