"""Benchmark the remote cache tier end-to-end against a live artifact server.

Times ``run_table1`` — the full sharded grid — under the distribution
regimes the ``repro.store`` subsystem exists for:

- ``local_cold``   — serial runtime, empty local cache, no store (the
  baseline: every dataset generation, fit, and cell executes);
- ``remote_cold``  — the same cold run with an empty local cache in
  front of a live, *empty* artifact server: every artifact is pushed
  from the caller's thread inside ``store()``, so the difference from
  ``local_cold`` is what write-through costs a grid, and when the grid
  returns the server already holds every entry;
- ``remote_warm``  — an *empty* local cache in front of an artifact
  server warmed by the cold run: the whole grid must be answered across
  the wire with **zero** task executions;
- ``store_killed`` — the same wiring, but the server is killed before
  the run: the tier trips its breaker, degrades to local-only, and the
  grid executes everything locally instead of failing.

Every regime must produce bitwise-identical balanced-accuracy scores;
the replication, zero-execution and graceful-degradation claims are
asserted, not merely reported.  Results land in ``BENCH_store.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_store.py``
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.experiments import Table1Config, run_table1
from repro.experiments.grid import clear_dataset_memo
from repro.runtime import ArtifactCache, SerialExecutor, TaskRuntime
from repro.runtime.clock import Stopwatch
from repro.store import RemoteCacheTier, StoreService, serve_store_http

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Task families the grid shards; a remote-warm run must execute none of them.
GRID_TASKS = ("repro.experiments.tasks:scream_dataset", "automl.fit", "repro.experiments.tasks:grid_cell")

ALGORITHMS = ["no_feedback", "uniform", "cross_ale", "within_ale_pool"]


def build_config(args) -> Table1Config:
    return Table1Config(
        n_train=args.n_train,
        n_test=args.n_test,
        n_pool=args.n_pool,
        n_feedback=args.n_feedback,
        n_test_sets=4,
        n_repeats=args.repeats,
        cross_runs=2,
        automl_iterations=args.iterations,
        ensemble_size=3,
        min_distinct_members=2,
        grid_size=8,
        seed=args.seed,
    )


def run_regime(name: str, runtime: TaskRuntime, config: Table1Config):
    clear_dataset_memo()  # each regime pays its real dataset-generation cost
    watch = Stopwatch()
    table, record = run_table1(config, algorithms=list(ALGORITHMS), runtime=runtime)
    seconds = watch.elapsed()
    scores = {algo: table.scores(algo).scores for algo in ALGORITHMS}
    store_meta = record.metadata["grid"].get("store")
    print(
        f"{name:12s} {seconds:8.2f}s  "
        f"executed={runtime.stats['executed']} cache_hits={runtime.stats['cache_hits']} "
        + (
            f"remote_hits={store_meta['remote_hits']} degraded={store_meta['degraded']}"
            if store_meta is not None
            else "(no store)"
        )
    )
    executions = {fn: runtime.executions_of(fn) for fn in GRID_TASKS}
    return seconds, scores, executions, store_meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-train", type=int, default=60)
    parser.add_argument("--n-test", type=int, default=80)
    parser.add_argument("--n-pool", type=int, default=60)
    parser.add_argument("--n-feedback", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--iterations", type=int, default=4, help="AutoML candidates per fit")
    parser.add_argument("--seed", type=int, default=20211110)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_store.json", help="result file"
    )
    args = parser.parse_args(argv)

    config = build_config(args)
    n_cells = args.repeats * len(ALGORITHMS)
    print(
        f"workload: {n_cells} grid cells ({args.repeats} repeats x {len(ALGORITHMS)} "
        f"strategies), {os.cpu_count()} CPU core(s)\n"
    )

    timings: dict[str, float] = {}
    all_scores: dict[str, dict[str, np.ndarray]] = {}
    executions: dict[str, dict[str, int]] = {}
    store_metas: dict[str, dict | None] = {}
    work_dir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        # Cold local run: fills the origin cache the server will export.
        origin_cache = work_dir / "origin"
        cold_runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(origin_cache))
        timings["local_cold"], all_scores["local_cold"], executions["local_cold"], store_metas["local_cold"] = (
            run_regime("local_cold", cold_runtime, config)
        )

        # Remote-cold: empty local cache, empty live server; every store pushes.
        pushed_origin = StoreService(work_dir / "pushed-origin")
        server = serve_store_http(pushed_origin)
        pushing_runtime = TaskRuntime(
            SerialExecutor(), cache=RemoteCacheTier(ArtifactCache(work_dir / "cold-local"), server.url)
        )
        try:
            timings["remote_cold"], all_scores["remote_cold"], executions["remote_cold"], store_metas["remote_cold"] = (
                run_regime("remote_cold", pushing_runtime, config)
            )
            # Read at once, with no wait: every push finished inside store().
            local = pushing_runtime.cache.local
            replicated = sorted(pushed_origin.cache.keys()) == sorted(local.keys()) and all(
                pushed_origin.cache.read_blob(key) == local.read_blob(key) for key in local.keys()
            )
        finally:
            server.close()

        # Remote-warm: empty local cache, every unit fetched from the server.
        server = serve_store_http(StoreService(origin_cache))
        warm_runtime = TaskRuntime(
            SerialExecutor(), cache=RemoteCacheTier(ArtifactCache(work_dir / "warm-local"), server.url)
        )
        try:
            timings["remote_warm"], all_scores["remote_warm"], executions["remote_warm"], store_metas["remote_warm"] = (
                run_regime("remote_warm", warm_runtime, config)
            )
        finally:
            server.close()

        # Store killed mid-session: breaker trips, the grid runs locally.
        dead_server = serve_store_http(StoreService(work_dir / "dead-origin"))
        killed_runtime = TaskRuntime(
            SerialExecutor(),
            cache=RemoteCacheTier(ArtifactCache(work_dir / "killed-local"), dead_server.url),
        )
        dead_server.close()
        timings["store_killed"], all_scores["store_killed"], executions["store_killed"], store_metas["store_killed"] = (
            run_regime("store_killed", killed_runtime, config)
        )
        warm_stats = warm_runtime.stats
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reference = all_scores["local_cold"]
    bitwise_identical = all(
        all(np.array_equal(reference[algo], scores[algo]) for algo in ALGORITHMS)
        for scores in all_scores.values()
    )
    assert bitwise_identical, "store regimes disagree — the determinism contract is broken"
    assert replicated, "the pushed store does not hold exactly the local cache's entries"
    assert store_metas["remote_cold"]["push_failures"] == 0, store_metas["remote_cold"]
    warm_executions = executions["remote_warm"]
    assert warm_stats["executed"] == 0 and all(
        count == 0 for count in warm_executions.values()
    ), f"remote-warm rerun executed work: {warm_executions}"
    assert store_metas["remote_warm"]["degraded"] is False
    assert store_metas["store_killed"]["degraded"] is True, "dead store did not degrade"
    assert executions["store_killed"] == executions["local_cold"], (
        "degraded run did not fall back to full local execution"
    )

    results = {
        "workload": {
            "n_cells": n_cells,
            "algorithms": list(ALGORITHMS),
            "config": {k: getattr(config, k) for k in Table1Config.__dataclass_fields__},
        },
        "cpu_count": os.cpu_count(),
        "timings_seconds": {name: round(seconds, 4) for name, seconds in timings.items()},
        "speedup_remote_warm_vs_cold": round(timings["local_cold"] / timings["remote_warm"], 2),
        "remote_cold_over_local_cold": round(timings["remote_cold"] / timings["local_cold"], 3),
        "executions_by_regime": executions,
        "remote_warm_executed": warm_stats["executed"],
        "store_stats_by_regime": {
            name: meta for name, meta in store_metas.items() if meta is not None
        },
        "bitwise_identical": bitwise_identical,
        "remote_cold_replicated": replicated,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\nremote-cold time / local-cold time: {results['remote_cold_over_local_cold']}")
    print(f"remote-warm speedup vs cold: {results['speedup_remote_warm_vs_cold']}x")
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
