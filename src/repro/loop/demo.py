"""A self-contained, deterministic run of the whole retraining loop.

``python -m repro loop`` executes :func:`run_demo`: a tiny synthetic
two-feature problem with a known boundary, an incumbent deliberately
trained *away* from that boundary (so near-boundary traffic lands in the
uncertain region and fills the labeling queue), and a loop configured to
trigger, retrain, shadow, and promote within a handful of ticks — all in
seconds, with no emulator and no network.

:func:`demo_oracle` is the ground truth (module-level so the retrain
payload pickles across process executors).  Everything is seeded through
:func:`repro.rng.check_random_state`; two runs of the demo produce the
same registry, the same decisions, and the same counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from ..automl import AutoMLClassifier, AutoMLSpec
from ..exceptions import BackpressureError
from ..featurespace import FeatureDomain
from ..rng import check_random_state
from ..runtime import ArtifactCache, SerialExecutor, TaskRuntime
from ..serve import ModelRegistry, ServeConfig, ServeService
from .config import LoopConfig
from .controller import RetrainController
from .service import LoopService

__all__ = ["run_demo", "demo_oracle"]

#: The demo's feature space: two unit-interval features.
_DOMAINS = (FeatureDomain("f0", 0.0, 1.0), FeatureDomain("f1", 0.0, 1.0))


def demo_oracle(X) -> np.ndarray:
    """Ground truth for the demo: class 1 above the line ``f0 + f1 = 1``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return (X[:, 0] + X[:, 1] > 1.0).astype(int)


def _biased_training_set(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Training data kept away from the boundary — the incumbent's blind spot."""
    rng = check_random_state(seed)
    X = rng.uniform(0.0, 1.0, size=(4 * n, 2))
    margin = np.abs(X[:, 0] + X[:, 1] - 1.0)
    X = X[margin > 0.35][:n]
    return X, demo_oracle(X)


def run_demo(
    directory: Path | str,
    *,
    seed: int = 0,
    max_ticks: int = 24,
    traffic_per_tick: int = 24,
) -> dict[str, Any]:
    """Run the loop end to end under ``directory``; returns a summary.

    The summary carries the tick log, the final loop status, and the
    registry description — everything the CLI prints.
    """
    directory = Path(directory)
    spec = AutoMLSpec(n_iterations=6, ensemble_size=4, min_distinct_members=2)
    rng = check_random_state(seed)

    # Incumbent: fit on the biased set, register, and start serving.
    X_base, y_base = _biased_training_set(120, seed)
    incumbent = AutoMLClassifier(
        n_iterations=spec.n_iterations,
        ensemble_size=spec.ensemble_size,
        min_distinct_members=spec.min_distinct_members,
        random_state=seed + 1,
    ).fit(X_base, y_base)
    registry = ModelRegistry(directory / "registry")
    registry.register("demo", incumbent, X_base, _DOMAINS, promote=True)
    serve = ServeService.from_registry(
        "demo",
        directory=directory / "registry",
        config=ServeConfig(max_batch=16, disagreement_threshold=0.15),
        persist_labels=True,
    )

    # The loop: eager triggers, mirror everything, tolerate score noise
    # (the demo's point is the mechanics, not a leaderboard).
    config = LoopConfig(
        min_queue_depth=8,
        min_served_points=16,
        uncertain_rate=0.9,
        shadow_fraction=1.0,
        min_shadow_rows=16,
        score_margin=-0.1,
        max_ale_drift=2.0,
        retrain_seed=seed,
    )
    X_eval = rng.uniform(0.0, 1.0, size=(200, 2))
    runtime = TaskRuntime(SerialExecutor(), cache=ArtifactCache(directory / "loop-cache"))
    controller = RetrainController(
        runtime, spec, X_base, y_base, X_eval, demo_oracle(X_eval), config=config
    )
    loop = LoopService(serve, controller, oracle=demo_oracle, config=config)

    ticks: list[dict[str, Any]] = []
    try:
        for _ in range(max_ticks):
            # Traffic hugs the boundary — exactly where the incumbent is blind.
            rows = rng.uniform(0.0, 1.0, size=(traffic_per_tick, 2))
            rows[:, 1] = np.clip(1.0 - rows[:, 0] + rng.normal(0.0, 0.12, traffic_per_tick), 0.0, 1.0)
            try:
                serve.predict(rows)
            except BackpressureError:
                pass  # shed traffic is fine; the loop keeps ticking
            event = loop.tick()
            ticks.append(event)
            if event["action"] in ("promoted", "rejected"):
                break
        status = loop.status()
    finally:
        serve.close()
    return {
        "ticks": ticks,
        "status": status,
        "registry": registry.describe(),
        "runtime": dict(runtime.stats),
    }
