"""Regenerate ``reference.json``: score digests and reference times per grid.

For each grid workload, one process runs the warm-up grid, then
:data:`PASSES` passes over all ``N_CONFIGS`` timed grids, and records
for each grid the digest of its score arrays and its median time at
reference host speed.  Run it only on the commit that defines the
benchmark, from the root of a checkout (it takes about 15 minutes);
naming workloads re-records only those::

    python3 perfbench/record_reference.py [grid_scream] [grid_firewall]
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.runtime.clock import monotonic  # noqa: E402

import grids  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402

PASSES = 3


def checked_digest(workload: str, seed: int) -> tuple[str, float, float]:
    """Run one cold grid; ``(digest, start, end)``, raising if it degraded."""
    start = monotonic()
    table, record, _ = grids.run_grid(workload, seed)
    end = monotonic()
    problems = grids.grid_problems(workload, table, record)
    if problems:
        raise RuntimeError(f"{workload} grid seed {seed} degraded: {problems}")
    return grids.score_digest(table), start, end


def record(workload: str, sampler: SpeedSampler) -> dict:
    warmup_digest, _, _ = checked_digest(workload, grids.warmup_seed(workload))
    seeds = [grids.grid_seed(workload, k) for k in range(grids.N_CONFIGS)]
    times: dict[int, list[float]] = {seed: [] for seed in seeds}
    digests: dict[int, set[str]] = {seed: set() for seed in seeds}
    for _ in range(PASSES):
        for seed in seeds:
            digest, start, end = checked_digest(workload, seed)
            digests[seed].add(digest)
            times[seed].append(sampler.reference_seconds(start, end))
            print(f"{workload} {seed} {times[seed][-1]:.3f}", flush=True)
    configs = {}
    for seed in seeds:
        if len(digests[seed]) != 1:
            raise RuntimeError(f"{workload} grid seed {seed} is not deterministic")
        configs[str(seed)] = {"digest": digests[seed].pop(), "ref_s": statistics.median(times[seed])}
    return {
        "warmup_digest": warmup_digest,
        "mean_ref_s": statistics.fmean(entry["ref_s"] for entry in configs.values()),
        "configs": configs,
    }


def main(argv: list[str]) -> int:
    workloads = argv or list(grids.BASE_SEED)
    reference = json.loads(grids.REFERENCE_FILE.read_text(encoding="utf-8")) if argv else {}
    sampler = SpeedSampler()
    sampler.start()
    try:
        reference.update({workload: record(workload, sampler) for workload in workloads})
    finally:
        sampler.stop()
    grids.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
