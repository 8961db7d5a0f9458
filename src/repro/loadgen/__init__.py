"""Load generation and fault injection for the serving layer (DESIGN.md §loadgen).

The north star is serving heavy traffic from millions of users; this
package is how the repo *proves* behaviour under that traffic instead of
asserting it in prose.  Three modules, layered strictly above
:mod:`repro.serve` (RL002):

- :mod:`~repro.loadgen.workloads` — deterministic, seeded workload
  shapes: open/closed-loop arrivals, retry storms, flash crowds, slow
  (byte-dribbling) clients, connection churn;
- :mod:`~repro.loadgen.driver` — replays a shape against an in-process
  service or a real HTTP server over raw sockets, recording an outcome
  for every offered attempt;
- :mod:`~repro.loadgen.report` — :class:`LoadReport` aggregation
  (counts, p50/p95/p99, per-second series) and the invariant checkers:
  the zero-drop accounting identity and shed-rate bounds.

``python -m repro loadtest`` exposes the harness on the CLI;
``benchmarks/bench_loadgen.py`` asserts the serving invariants under
overload and records them in ``BENCH_loadgen.json``.
"""

from .driver import HttpTarget, InProcessTarget, run_workload
from .report import OUTCOMES, Attempt, LoadReport, check_accounting, check_shed_rate
from .workloads import (
    WorkloadShape,
    arrival_times,
    closed_loop,
    connection_churn,
    flash_crowd,
    open_loop,
    retry_storm,
    slow_client,
)

__all__ = [
    "OUTCOMES",
    "Attempt",
    "LoadReport",
    "check_accounting",
    "check_shed_rate",
    "WorkloadShape",
    "arrival_times",
    "open_loop",
    "closed_loop",
    "retry_storm",
    "flash_crowd",
    "slow_client",
    "connection_churn",
    "InProcessTarget",
    "HttpTarget",
    "run_workload",
]
