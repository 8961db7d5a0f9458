"""What a workload measured, and the result line the benchmark prints."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

import numpy as np


def percentile_tail(values_ms: list[float]) -> float:
    """p95 when at least ten samples lie beyond it, else the maximum."""
    if len(values_ms) >= 200:
        return float(np.percentile(values_ms, 95))
    return max(values_ms)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Workload:
    """Measurements of one workload run, filled in by the workload."""

    setup_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    tail_ms: float = 0.0
    offered: int = 0
    within_limit: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed output check (the run then reports incorrect)."""
        if not ok and message not in self.problems:
            self.problems.append(message)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "latency_p50_ms": statistics.median(self.latencies_ms),
            "latency_p95_ms": self.tail_ms,
            "slo_share": self.within_limit / self.offered,
            "ok_share": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }

    def result(self, trace: bool, units: dict[str, str]) -> dict:
        """The final JSON object.

        ``units`` maps each metric to report, per-layer ones when tracing
        and end-to-end ones otherwise, to its unit.
        """
        values = self.per_layer if trace else self.end_to_end()
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
        return {
            "correct": not self.problems,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        }
