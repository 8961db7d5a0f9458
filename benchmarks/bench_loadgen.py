"""Benchmark the serving transports under generated load.

Fits a small AutoML ensemble on the Scream dataset, publishes it through
the model registry, serves it over both HTTP transports (thread-per-
connection ``serve_http`` and the event-loop ``serve_async_http``), and
drives them with :mod:`repro.loadgen` workload shapes:

- ``equivalence`` — one seeded open-loop workload replayed against both
  transports; every response body must be bitwise identical, because
  both stacks share one :class:`RequestDispatcher`;
- ``retry_storm`` — a shed-amplifying client herd against a tiny queue;
  the zero-drop identity ``offered == completed + shed + timed_out``
  must hold with every retry accounted as a new offered attempt;
- ``flash_crowd`` — a mid-run arrival burst into the same tiny queue;
  backpressure must actually engage (shed-rate floor);
- ``churn_duel`` — a closed-loop, connection-per-request workload run
  against both transports (median of 3): the async loop must not lose
  to thread-per-connection on one CPU.

The first three are asserted, not merely reported.  Results land in
``BENCH_loadgen.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_loadgen.py``
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import tempfile
from pathlib import Path

from repro.automl import AutoMLClassifier
from repro.datasets import generate_scream_dataset
from repro.loadgen import (
    HttpTarget,
    WorkloadShape,
    check_accounting,
    check_shed_rate,
    flash_crowd,
    open_loop,
    retry_storm,
    run_workload,
)
from repro.rng import check_random_state
from repro.serve import ModelRegistry, ServeConfig, ServeService, serve_async_http, serve_http

REPO_ROOT = Path(__file__).resolve().parent.parent

TRANSPORTS = {"threaded": serve_http, "async": serve_async_http}


def _serve(transport: str, registry_dir: str, config: ServeConfig):
    service = ServeService.from_registry("scream", directory=registry_dir, config=config)
    return service, TRANSPORTS[transport](service)


def bench_equivalence(registry_dir: str, X, n_requests: int, seed: int) -> dict:
    """Replay one seeded request sequence; demand bitwise-identical bodies."""
    rng = check_random_state(seed)
    starts = rng.integers(0, X.shape[0] - 2, size=n_requests)
    replies: dict[str, list[tuple[int, bytes]]] = {}
    for transport in TRANSPORTS:
        service, server = _serve(
            transport, registry_dir, ServeConfig(max_batch=16)
        )
        try:
            target = HttpTarget(server.url)
            replies[transport] = [
                target.exchange(X[s : s + 2].tolist(), timeout=10.0, plan={})
                for s in starts
            ]
        finally:
            server.close()
    threaded, async_ = replies["threaded"], replies["async"]
    assert all(status == 200 for status, _ in threaded + async_)
    assert threaded == async_, "transports served different bytes for identical requests"
    print(f"equivalence: {n_requests} requests, {sum(len(b) for _, b in threaded)} bytes, bitwise identical")
    return {
        "requests": n_requests,
        "payload_bytes": sum(len(body) for _, body in threaded),
        "bitwise_identical": True,
    }


def bench_overload(registry_dir: str, X, seed: int) -> dict:
    """Retry storm + flash crowd into a tiny queue: shed loudly, drop nothing."""
    config = ServeConfig(max_batch=2, queue_bound=2, request_timeout=2.0)
    out: dict[str, dict] = {}

    service, server = _serve("async", registry_dir, config)
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

    service, server = _serve("async", registry_dir, config)
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


def bench_churn_duel(registry_dir: str, X, n_requests: int, clients: int, seed: int) -> dict:
    """Closed-loop connection churn, median of 3 per transport."""
    shape = WorkloadShape(
        name="churn_closed",
        kind="closed",
        n_requests=n_requests,
        clients=clients,
        new_connection_per_request=True,
    )
    config = ServeConfig(max_batch=16)
    duel: dict[str, dict] = {}
    for transport in TRANSPORTS:
        throughputs, p99s = [], []
        for round_index in range(3):
            service, server = _serve(transport, registry_dir, config)
            try:
                report = run_workload(
                    HttpTarget(server.url), X, shape, seed=seed + round_index
                )
            finally:
                server.close()
            check_accounting(report)
            assert report.completed == n_requests * clients
            throughputs.append(report.throughput_rps)
            p99s.append(float(report.latency["p99"]))
        duel[transport] = {
            "throughput_rps_median": round(statistics.median(throughputs), 2),
            "throughput_rps_runs": [round(t, 2) for t in throughputs],
            "latency_p99_ms_median": round(statistics.median(p99s) * 1e3, 3),
        }
        print(
            f"churn_duel {transport:8s}: median {duel[transport]['throughput_rps_median']:8.1f} req/s, "
            f"p99 {duel[transport]['latency_p99_ms_median']:7.2f} ms"
        )
    ratio = duel["async"]["throughput_rps_median"] / duel["threaded"]["throughput_rps_median"]
    duel["async_over_threaded"] = round(ratio, 3)
    assert ratio >= 0.9, (
        f"async transport fell far behind thread-per-connection: {ratio:.2f}x"
    )
    return duel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-samples", type=int, default=200, help="Scream dataset size")
    parser.add_argument("--equivalence-requests", type=int, default=60)
    parser.add_argument("--duel-requests", type=int, default=40, help="per client, per round")
    parser.add_argument("--duel-clients", type=int, default=6)
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

        equivalence = bench_equivalence(
            registry_dir, data.X, args.equivalence_requests, args.seed
        )
        overload = bench_overload(registry_dir, data.X, args.seed)
        duel = bench_churn_duel(
            registry_dir, data.X, args.duel_requests, args.duel_clients, args.seed
        )

    results = {
        "workload": {
            "n_samples": args.n_samples,
            "automl_iterations": args.iterations,
            "equivalence_requests": args.equivalence_requests,
            "duel_requests_per_client": args.duel_requests,
            "duel_clients": args.duel_clients,
            "seed": args.seed,
        },
        "cpu_count": os.cpu_count(),
        "transport_equivalence": equivalence,
        "overload": overload,
        "churn_duel": duel,
        "zero_drop_identity_held": True,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\nasync/threaded churn throughput: {duel['async_over_threaded']:.2f}x")
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
