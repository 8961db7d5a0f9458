"""Benchmark the serving subsystem: micro-batching vs one-at-a-time.

Fits a small AutoML ensemble on the Scream dataset, publishes it through
the model registry, and drives the in-process serving client from
concurrent threads under three regimes:

- ``unbatched`` — ``max_batch=1``: every request is its own model call
  (the naive serving baseline);
- ``batched``   — ``max_batch=32``: the single-row requests that queue
  up while the batcher is busy are coalesced into one ``predict_batch``
  call, amortizing the per-call ensemble overhead;
- ``overload``  — a deliberately tiny queue under a thundering herd, to
  measure the shed rate (typed :class:`BackpressureError`, never a
  block or a drop).

Two invariants are asserted, not merely reported: served labels are
identical to offline ``AutoML.predict`` for every row, and batched
throughput is at least 2x the unbatched baseline.  Results land in
``BENCH_serve.json``.

Caveat: the batching win measured here comes from amortizing per-call
Python/ensemble overhead across coalesced rows, not from parallel
hardware: one batcher thread makes every model call, whatever the core
count.

Run: ``PYTHONPATH=src python benchmarks/bench_serve.py``
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
from pathlib import Path

from repro.automl import AutoMLClassifier
from repro.datasets import generate_scream_dataset
from repro.exceptions import BackpressureError
from repro.runtime.clock import Stopwatch
from repro.serve import InProcessClient, ModelRegistry, ServeConfig, ServeService

REPO_ROOT = Path(__file__).resolve().parent.parent


def drive(service: ServeService, X, total_requests: int, n_threads: int, *, retry_on_shed: bool = False) -> dict:
    """Fire ``total_requests`` single-row requests from ``n_threads`` clients.

    With ``retry_on_shed`` a shed request backs off briefly and retries —
    the well-behaved-client overload pattern — so every request is
    eventually served and the shed count measures sustained pressure.
    Returns wall seconds, per-request outcomes, and the service's own
    metrics snapshot so throughput and latency come from the same run.
    """
    client = InProcessClient(service)
    cursor = {"next": 0}
    outcomes = {"ok": 0, "shed": 0}
    labels: dict[int, int] = {}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = cursor["next"]
                if index >= total_requests:
                    return
                cursor["next"] += 1
            row_index = index % X.shape[0]
            while True:
                try:
                    response = client.predict(X[row_index : row_index + 1].tolist())
                except BackpressureError:
                    with lock:
                        outcomes["shed"] += 1
                    if not retry_on_shed:
                        break
                    threading.Event().wait(0.002)
                    continue
                with lock:
                    outcomes["ok"] += 1
                    labels[row_index] = response["labels"][0]
                break

    watch = Stopwatch()
    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = watch.elapsed()
    snapshot = service.metrics()
    return {"seconds": seconds, "outcomes": outcomes, "labels": labels, "metrics": snapshot}


def regime_summary(name: str, run: dict, total_requests: int) -> dict:
    latency = run["metrics"]["histograms"].get("latency_seconds", {})
    served = run["outcomes"]["ok"]
    shed = run["outcomes"]["shed"]
    summary = {
        "requests": total_requests,
        "served": served,
        "shed": shed,
        "shed_rate": round(shed / (served + shed), 4),
        "wall_seconds": round(run["seconds"], 4),
        "throughput_rps": round(served / run["seconds"], 2),
        "latency_p50_ms": round(latency.get("p50", 0.0) * 1e3, 3),
        "latency_p95_ms": round(latency.get("p95", 0.0) * 1e3, 3),
        "mean_batch_size": round(
            run["metrics"]["histograms"].get("batch_size", {}).get("mean", 0.0), 2
        ),
    }
    print(
        f"{name:10s} {summary['wall_seconds']:8.2f}s  "
        f"{summary['throughput_rps']:8.1f} req/s  p95 {summary['latency_p95_ms']:7.2f} ms  "
        f"mean batch {summary['mean_batch_size']:5.2f}  shed {summary['shed']}"
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-samples", type=int, default=200, help="Scream dataset size")
    parser.add_argument("--requests", type=int, default=400, help="requests per regime")
    parser.add_argument("--threads", type=int, default=8, help="concurrent client threads")
    parser.add_argument("--iterations", type=int, default=8, help="AutoML candidates")
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_serve.json", help="result file"
    )
    args = parser.parse_args(argv)

    print(f"fitting the served model ({args.iterations} candidates, {os.cpu_count()} CPU core(s))")
    data = generate_scream_dataset(args.n_samples, random_state=args.seed)
    automl = AutoMLClassifier(
        n_iterations=args.iterations, ensemble_size=5, min_distinct_members=3, random_state=7
    ).fit(data.X, data.y)
    offline_labels = automl.predict(data.X)

    with tempfile.TemporaryDirectory(prefix="bench-serve-registry-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        registry.register("scream", automl, data.X, data.domains)
        bundle = registry.load("scream")

        regimes = {
            "unbatched": ServeConfig(max_batch=1, queue_bound=1024),
            "batched": ServeConfig(max_batch=32, queue_bound=1024),
            # Tiny queue, slow drain, no client backoff: the herd must
            # shed with a typed error, not block.
            "overload": ServeConfig(max_batch=1, queue_bound=2),
        }
        summaries: dict[str, dict] = {}
        for name, config in regimes.items():
            with ServeService(bundle, config) as service:
                run = drive(
                    service, data.X, args.requests, args.threads, retry_on_shed=(name == "overload")
                )
                summaries[name] = regime_summary(name, run, args.requests)
                for row_index, label in run["labels"].items():
                    assert label == int(offline_labels[row_index]), (
                        f"{name}: served label diverged from offline predict at row {row_index}"
                    )

    speedup = summaries["batched"]["throughput_rps"] / summaries["unbatched"]["throughput_rps"]
    assert summaries["unbatched"]["shed"] == 0 and summaries["batched"]["shed"] == 0
    assert summaries["overload"]["shed"] > 0, "overload regime never hit the queue bound"
    assert speedup >= 2.0, (
        f"micro-batching must be >= 2x the unbatched baseline, measured {speedup:.2f}x"
    )

    results = {
        "workload": {
            "requests_per_regime": args.requests,
            "client_threads": args.threads,
            "rows_per_request": 1,
            "n_samples": args.n_samples,
            "automl_iterations": args.iterations,
            "seed": args.seed,
        },
        "cpu_count": os.cpu_count(),
        "note": (
            "the batched speedup comes from amortizing per-call ensemble overhead across "
            "coalesced rows, not from parallel hardware: one batcher thread makes every model call"
        ),
        "regimes": summaries,
        "batched_speedup_vs_unbatched": round(speedup, 2),
        "served_labels_match_offline_predict": True,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\nbatched speedup vs unbatched: {speedup:.2f}x")
    print(f"overload shed rate: {summaries['overload']['shed_rate']:.1%}")
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
