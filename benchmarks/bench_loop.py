"""Benchmark the retraining loop: trigger→promotion, cache hits, shadow cost.

Three measurements, each asserted rather than merely reported:

- **trigger → promotion wall time** — the demo scenario (biased
  incumbent, boundary-hugging traffic) is run end to end; the time from
  the first retrain trigger to the promotion landing in the manifest is
  recorded, and the loop must actually promote;
- **warm-cache retrain** — the same retrain (identical queue contents,
  identical seed path) is re-submitted through a fresh runtime over the
  same artifact cache: it must be a pure cache hit (zero refits) and
  dramatically cheaper than the cold fit;
- **shadow overhead** — the serving engine is driven with and without a
  full-mirror shadow attached; served p99 latency with mirroring may
  exceed the baseline by at most 10%.  The two regimes run alternately
  ``ROUNDS`` times and each is judged by its best (lowest) p99, so one
  slow spell of a shared host cannot decide the gate.  Mirroring runs on
  the batcher thread *after* replies are delivered, so it consumes idle
  headroom between batches; the driver therefore paces requests
  (unsaturated serving, the regime shadowing is designed for) rather
  than saturating a single CPU with back-to-back submits, where any
  post-reply work would necessarily land on the next request's queue
  wait.

Results land in ``BENCH_loop.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_loop.py``
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.automl import AutoMLClassifier, AutoMLSpec
from repro.loop import LoopConfig, LoopService, RetrainController
from repro.loop.demo import demo_oracle
from repro.rng import check_random_state
from repro.runtime import ArtifactCache, SerialExecutor, TaskRuntime
from repro.runtime.clock import Stopwatch
from repro.serve import ModelRegistry, ServeConfig, ServeService, ShadowMirror
from repro.featurespace import FeatureDomain

REPO_ROOT = Path(__file__).resolve().parent.parent

DOMAINS = (FeatureDomain("f0", 0.0, 1.0), FeatureDomain("f1", 0.0, 1.0))

#: Alternated baseline/shadowed rounds of the shadow bench; each regime keeps its best.
ROUNDS = 9


def _biased_training_set(n: int, seed: int):
    rng = check_random_state(seed)
    X = rng.uniform(0.0, 1.0, size=(4 * n, 2))
    X = X[np.abs(X[:, 0] + X[:, 1] - 1.0) > 0.35][:n]
    return X, demo_oracle(X)


def bench_trigger_to_promotion(workdir: Path, args) -> tuple[dict, RetrainController]:
    """Run the loop end to end; time trigger→promotion."""
    spec = AutoMLSpec(
        n_iterations=args.iterations, ensemble_size=4, min_distinct_members=2
    )
    rng = check_random_state(args.seed)
    X_base, y_base = _biased_training_set(150, args.seed)
    incumbent = AutoMLClassifier(
        n_iterations=args.iterations,
        ensemble_size=4,
        min_distinct_members=2,
        random_state=args.seed + 1,
    ).fit(X_base, y_base)
    registry = ModelRegistry(workdir / "registry")
    registry.register("bench", incumbent, X_base, DOMAINS, promote=True)
    serve = ServeService.from_registry(
        "bench",
        directory=registry.directory,
        config=ServeConfig(max_batch=16, disagreement_threshold=0.15),
    )
    config = LoopConfig(
        min_queue_depth=8,
        min_served_points=16,
        uncertain_rate=0.9,
        shadow_fraction=1.0,
        min_shadow_rows=16,
        score_margin=-0.1,
        max_ale_drift=2.0,
        retrain_seed=args.seed,
    )
    X_eval = rng.uniform(0.0, 1.0, size=(200, 2))
    runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(workdir / "cache"))
    controller = RetrainController(
        runtime, spec, X_base, y_base, X_eval, demo_oracle(X_eval), config=config
    )
    loop = LoopService(serve, controller, oracle=demo_oracle, config=config)

    triggered_at = None
    promotion_seconds = None
    watch = Stopwatch()
    try:
        for _ in range(32):
            rows = rng.uniform(0.0, 1.0, size=(24, 2))
            rows[:, 1] = np.clip(1.0 - rows[:, 0] + rng.normal(0.0, 0.12, 24), 0.0, 1.0)
            serve.predict(rows)
            event = loop.tick()
            if event["action"] == "retrained" and triggered_at is None:
                triggered_at = watch.elapsed()
            if event["action"] == "promoted":
                promotion_seconds = watch.elapsed() - triggered_at
                break
        assert promotion_seconds is not None, "the loop never promoted"
        assert registry.promoted_version("bench") == 2
        status = loop.status()
    finally:
        serve.close()
    summary = {
        "trigger_to_promotion_seconds": round(promotion_seconds, 4),
        "serving_version": status["serving_version"],
        "counters": status["counters"],
    }
    print(
        f"trigger→promotion: {summary['trigger_to_promotion_seconds']:.2f}s "
        f"(serving v{summary['serving_version']})"
    )
    return summary, controller


def bench_warm_cache(workdir: Path, controller: RetrainController, args) -> dict:
    """Re-run an identical retrain through a fresh runtime: pure cache hit."""
    X_new, y_new = _biased_training_set(24, args.seed + 7)

    cold_runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(workdir / "warm-cache"))
    cold_controller = RetrainController(
        cold_runtime,
        controller.spec,
        controller.X,
        controller.y,
        controller.X_eval,
        controller.y_eval,
        config=controller.config,
    )
    watch = Stopwatch()
    cold = cold_controller.retrain(X_new, y_new)
    cold_seconds = watch.elapsed()
    assert cold.refits == 1

    warm_runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(workdir / "warm-cache"))
    warm_controller = RetrainController(
        warm_runtime,
        controller.spec,
        controller.X,
        controller.y,
        controller.X_eval,
        controller.y_eval,
        config=controller.config,
    )
    watch = Stopwatch()
    warm = warm_controller.retrain(X_new, y_new)
    warm_seconds = watch.elapsed()
    assert warm.refits == 0, "identical retrain must be a pure cache hit"
    assert warm_runtime.stats["cache_hits"] == 1
    assert warm.score == cold.score

    summary = {
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "warm_refits": warm.refits,
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
    }
    print(
        f"retrain cold {summary['cold_seconds']:.2f}s, warm {summary['warm_seconds']:.4f}s "
        f"({summary['speedup']}x, {summary['warm_refits']} refit(s))"
    )
    return summary


def bench_shadow_overhead(args) -> dict:
    """Served p99 with a full mirror attached vs without: <= 10% overhead."""
    rng = check_random_state(args.seed)
    X_base, y_base = _biased_training_set(150, args.seed)
    automl = AutoMLClassifier(
        n_iterations=args.iterations, ensemble_size=4, min_distinct_members=2,
        random_state=args.seed + 1,
    ).fit(X_base, y_base)
    candidate = AutoMLClassifier(
        n_iterations=args.iterations, ensemble_size=4, min_distinct_members=2,
        random_state=args.seed + 2,
    ).fit(X_base, y_base)
    with tempfile.TemporaryDirectory(prefix="bench-loop-shadow-") as registry_dir:
        registry = ModelRegistry(registry_dir)
        registry.register("shadowed", automl, X_base, DOMAINS)
        bundle = registry.load("shadowed")

        pace = threading.Event()  # .wait(t) = sleep without touching the clock

        def drive(attach: bool) -> dict:
            config = ServeConfig(max_batch=16, queue_bound=1024)
            traffic = check_random_state(args.seed + 3)
            with ServeService(bundle, config) as service:
                if attach:
                    service.engine.attach_shadow(
                        ShadowMirror(candidate, fraction=1.0, max_rows=4096)
                    )
                for _ in range(args.requests):
                    rows = traffic.uniform(0.0, 1.0, size=(4, 2))
                    service.predict(rows)
                    pace.wait(args.pace_ms / 1e3)
                metrics = service.metrics()
            return metrics["histograms"]["latency_seconds"]

        # p99 over a few hundred requests is the 3rd-slowest sample — one
        # scheduler hiccup swings it by ±30%, and a slow spell of a shared
        # host can last a whole round.  Warm up once (discarded), then
        # alternate the regimes so such a spell hits both, and judge each
        # by its best round.
        drive(attach=False)
        baseline_p99s, shadowed_p99s = [], []
        for _ in range(ROUNDS):
            baseline_p99s.append(drive(attach=False)["p99"])
            shadowed_p99s.append(drive(attach=True)["p99"])
    baseline_p99 = min(baseline_p99s)
    shadowed_p99 = min(shadowed_p99s)

    overhead = shadowed_p99 / max(baseline_p99, 1e-9) - 1.0
    summary = {
        "baseline_p99_ms": round(baseline_p99 * 1e3, 3),
        "shadowed_p99_ms": round(shadowed_p99 * 1e3, 3),
        "p99_overhead_fraction": round(overhead, 4),
        "baseline_p99_ms_rounds": [round(p99 * 1e3, 3) for p99 in baseline_p99s],
        "shadowed_p99_ms_rounds": [round(p99 * 1e3, 3) for p99 in shadowed_p99s],
        "pace_ms": args.pace_ms,
        "rounds": ROUNDS,
    }
    print(
        f"shadow overhead: p99 {summary['baseline_p99_ms']:.2f}ms -> "
        f"{summary['shadowed_p99_ms']:.2f}ms ({overhead:+.1%})"
    )
    assert overhead <= 0.10, (
        f"shadow mirroring added {overhead:.1%} to served p99 (budget: 10%)"
    )
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=6, help="AutoML candidates")
    parser.add_argument("--requests", type=int, default=300, help="shadow-bench requests")
    parser.add_argument(
        "--pace-ms",
        type=float,
        default=2.0,
        help="inter-request gap for the shadow bench (unsaturated serving)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_loop.json", help="result file"
    )
    args = parser.parse_args(argv)

    print(f"benchmarking the retraining loop ({os.cpu_count()} CPU core(s))")
    with tempfile.TemporaryDirectory(prefix="bench-loop-") as workdir:
        workdir = Path(workdir)
        loop_summary, controller = bench_trigger_to_promotion(workdir, args)
        warm_summary = bench_warm_cache(workdir, controller, args)
    shadow_summary = bench_shadow_overhead(args)

    results = {
        "workload": {
            "automl_iterations": args.iterations,
            "shadow_requests": args.requests,
            "seed": args.seed,
        },
        "cpu_count": os.cpu_count(),
        "trigger_to_promotion": loop_summary,
        "warm_cache_retrain": warm_summary,
        "shadow_overhead": shadow_summary,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
