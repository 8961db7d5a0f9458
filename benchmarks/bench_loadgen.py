"""Benchmark the threaded HTTP transport under generated overload.

Fits a small AutoML ensemble on the Scream dataset, publishes it through
the model registry, serves it with ``serve_http``, and drives it with
two :mod:`repro.loadgen` workload shapes into a tiny queue:

- ``retry_storm`` — a shed-amplifying client herd; the zero-drop
  identity ``offered == completed + shed + timed_out`` must hold with
  every retry accounted as a new offered attempt;
- ``flash_crowd`` — a mid-run arrival burst; backpressure must actually
  engage (shed-rate floor).

Both are asserted, not merely reported.  Results land in
``BENCH_loadgen.json`` (``--output`` to write elsewhere).

Run: ``PYTHONPATH=src python benchmarks/bench_loadgen.py``
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from pathlib import Path

from repro.automl import AutoMLClassifier
from repro.datasets import generate_scream_dataset
from repro.loadgen import (
    HttpTarget,
    check_accounting,
    check_shed_rate,
    flash_crowd,
    retry_storm,
    run_workload,
)
from repro.serve import ModelRegistry, ServeConfig, ServeService, serve_http

REPO_ROOT = Path(__file__).resolve().parent.parent


def _serve(registry_dir: str, config: ServeConfig):
    return serve_http(ServeService.from_registry("scream", directory=registry_dir, config=config))


def bench_overload(registry_dir: str, X, seed: int) -> dict:
    """Retry storm + flash crowd into a tiny queue: shed loudly, drop nothing."""
    config = ServeConfig(max_batch=2, queue_bound=2, request_timeout=2.0)
    out: dict[str, dict] = {}

    server = _serve(registry_dir, config)
    try:
        storm = retry_storm(120, 400.0, max_retries=3, backoff=0.001, clients=8)
        report = run_workload(HttpTarget(server.url), X, storm, seed=seed)
    finally:
        server.close()
    check_accounting(report)  # zero-drop: every retry is an offered attempt
    assert report.offered > storm.n_requests, "storm never retried — overload did not engage"
    out["retry_storm"] = report.to_json()
    print(
        f"retry_storm: offered {report.offered} (of {storm.n_requests} logical), "
        f"completed {report.completed}, shed {report.shed}, timed_out {report.timed_out}"
    )

    server = _serve(registry_dir, config)
    try:
        crowd = flash_crowd(150, 80.0, 4000.0, clients=8, request_timeout=5.0)
        report = run_workload(HttpTarget(server.url), X, crowd, seed=seed)
    finally:
        server.close()
    check_accounting(report)
    check_shed_rate(report, min_rate=0.02)  # backpressure must actually engage
    out["flash_crowd"] = report.to_json()
    print(
        f"flash_crowd: offered {report.offered}, completed {report.completed}, "
        f"shed rate {report.shed_rate:.1%}, p99 {report.latency.get('p99', 0.0) * 1e3:.1f} ms"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-samples", type=int, default=200, help="Scream dataset size")
    parser.add_argument("--iterations", type=int, default=8, help="AutoML candidates")
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_loadgen.json", help="result file"
    )
    args = parser.parse_args(argv)

    print(f"fitting the served model ({args.iterations} candidates, {os.cpu_count()} CPU core(s))")
    data = generate_scream_dataset(args.n_samples, random_state=args.seed)
    automl = AutoMLClassifier(
        n_iterations=args.iterations, ensemble_size=5, min_distinct_members=3, random_state=7
    ).fit(data.X, data.y)

    with tempfile.TemporaryDirectory(prefix="bench-loadgen-registry-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        registry.register("scream", automl, data.X, data.domains)
        overload = bench_overload(registry_dir, data.X, args.seed)

    results = {
        "workload": {
            "n_samples": args.n_samples,
            "automl_iterations": args.iterations,
            "seed": args.seed,
        },
        "cpu_count": os.cpu_count(),
        "transport": "threaded",
        "overload": overload,
        "zero_drop_identity_held": True,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
