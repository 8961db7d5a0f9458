"""Benchmark the flat-array ensemble kernels and the batched committee ALE.

Two micro measurements:

- ``predict_proba`` — forests and boosting through the
  :class:`repro.ml.kernels.TreeBank` kernel vs their legacy per-member
  loops (``_predict_proba_per_member`` / ``_decision_function_per_member``,
  which the ensembles keep as the kernel's test oracle).  The kernel win is
  largest where per-tree Python overhead dominates — the small batches
  the serving engine and the per-feature ALE slices actually issue — so
  the asserted >= 3x bound is measured on a 200-row batch; bulk-scoring
  batches are reported alongside.
- ``committee ALE`` — every committee member's (lo, hi) perturbed copies
  for *all* features stacked into few ``predict_proba`` calls
  (:func:`repro.core.ale.ale_curves_for_features`) vs the historical
  two-model-calls-per-feature shape through the per-member loops.

Bitwise identity between the fast and legacy paths is asserted on every
measurement — the speedups are only meaningful if the bits agree.
Results land in ``BENCH_ml_kernels.json``.  The end-to-end share of
prediction in a cold grid is ``perfbench``'s traced
``ml.predict_proba.busy_s``, so this script no longer times a grid cell.

Run: ``PYTHONPATH=src python benchmarks/bench_ml_kernels.py``
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

from repro.core import make_grid
from repro.core.ale import ale_curve, ale_curves_for_features
from repro.ml import ExtraTreesClassifier, GradientBoostingClassifier, RandomForestClassifier, softmax
from repro.rng import check_random_state
from repro.runtime.clock import Stopwatch

REPO_ROOT = Path(__file__).resolve().parent.parent


def best_of(fn, repeats: int) -> float:
    """Best wall-clock seconds over ``repeats`` calls (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        watch = Stopwatch()
        fn()
        best = min(best, watch.elapsed())
    return best


def per_member_proba(model, X) -> np.ndarray:
    """``predict_proba`` through the legacy per-member loop (the baseline)."""
    if isinstance(model, GradientBoostingClassifier):
        return softmax(model._decision_function_per_member(X))
    return model._predict_proba_per_member(X)


class PerMember:
    """A model view whose ``predict_proba`` runs the per-member loop."""

    def __init__(self, model):
        self.model = model

    def predict_proba(self, X) -> np.ndarray:
        return per_member_proba(self.model, X)


def bench_predict(models: dict, eval_sets: dict, repeats: int) -> dict:
    """Kernel vs per-member ``predict_proba`` timings, bitwise-checked."""
    section: dict[str, dict] = {}
    for model_name, model in models.items():
        section[model_name] = {}
        for rows_name, X_eval in eval_sets.items():
            fast_proba = model.predict_proba(X_eval)  # warm (builds the bank)
            slow_proba = per_member_proba(model, X_eval)
            assert np.array_equal(fast_proba, slow_proba), (
                f"{model_name}: kernel path diverged from per-member loop"
            )
            fast = best_of(lambda: model.predict_proba(X_eval), repeats)
            slow = best_of(lambda: per_member_proba(model, X_eval), repeats)
            section[model_name][rows_name] = {
                "rows": int(X_eval.shape[0]),
                "kernel_ms": round(fast * 1e3, 3),
                "per_member_ms": round(slow * 1e3, 3),
                "speedup": round(slow / fast, 2),
            }
            entry = section[model_name][rows_name]
            print(
                f"predict_proba {model_name:18s} {entry['rows']:5d} rows  "
                f"kernel {entry['kernel_ms']:8.2f} ms  per-member {entry['per_member_ms']:8.2f} ms  "
                f"{entry['speedup']:5.2f}x"
            )
    return section


def bench_committee_ale(committee, X, edges_per_feature, repeats: int) -> dict:
    """Batched-and-kernelized committee ALE vs the historical shape."""
    indices = list(range(X.shape[1]))

    def batched():
        return [
            ale_curves_for_features(model, X, indices, edges_per_feature)
            for model in committee
        ]

    def historical():
        # Two model calls per (model, feature), per-member tree loops:
        # the exact pre-kernel committee profile.
        return [
            [ale_curve(PerMember(model), X, j, edges_per_feature[j]) for j in indices]
            for model in committee
        ]

    for fast_curves, slow_curves in zip(batched(), historical()):
        for fast_curve, slow_curve in zip(fast_curves, slow_curves):
            assert np.array_equal(fast_curve.values, slow_curve.values), (
                "batched committee ALE diverged from the per-feature path"
            )
    fast = best_of(batched, repeats)
    slow = best_of(historical, repeats)
    result = {
        "committee_size": len(committee),
        "n_features": len(indices),
        "batched_ms": round(fast * 1e3, 3),
        "unbatched_ms": round(slow * 1e3, 3),
        "speedup": round(slow / fast, 2),
        "saved_ms": round((slow - fast) * 1e3, 3),
    }
    print(
        f"committee ALE  batched {result['batched_ms']:8.2f} ms  "
        f"unbatched {result['unbatched_ms']:8.2f} ms  {result['speedup']:5.2f}x"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-train", type=int, default=400, help="training rows")
    parser.add_argument("--n-features", type=int, default=8, help="synthetic feature count")
    parser.add_argument("--n-trees", type=int, default=200, help="forest size under test")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_ml_kernels.json", help="result file"
    )
    args = parser.parse_args(argv)

    rng = check_random_state(args.seed)
    X_train = rng.normal(size=(args.n_train, args.n_features))
    y_train = rng.integers(0, 3, size=args.n_train)
    eval_sets = {
        "batch_200": rng.normal(size=(200, args.n_features)),
        "bulk_3000": rng.normal(size=(3000, args.n_features)),
    }

    print(f"fitting benchmark models ({args.n_trees} trees, {os.cpu_count()} CPU core(s))")
    models = {
        "random_forest": RandomForestClassifier(
            n_estimators=args.n_trees, random_state=args.seed
        ).fit(X_train, y_train),
        "extra_trees": ExtraTreesClassifier(
            n_estimators=args.n_trees, random_state=args.seed
        ).fit(X_train, y_train),
        "gradient_boosting": GradientBoostingClassifier(
            n_estimators=max(10, args.n_trees // 4), max_depth=3, random_state=args.seed
        ).fit(X_train, y_train),
    }
    predict_section = bench_predict(models, eval_sets, args.repeats)

    committee = [
        RandomForestClassifier(n_estimators=50, random_state=seed).fit(X_train, y_train)
        for seed in range(5)
    ]
    edges_per_feature = [make_grid(X_train[:, j], grid_size=16) for j in range(args.n_features)]
    ale_section = bench_committee_ale(committee, X_train, edges_per_feature, args.repeats)

    headline = predict_section["random_forest"]["batch_200"]["speedup"]
    assert headline >= 3.0, (
        f"TreeBank must be >= 3x the per-member loop on the 200-row forest batch, "
        f"measured {headline:.2f}x"
    )

    results = {
        "workload": {
            "n_train": args.n_train,
            "n_features": args.n_features,
            "n_trees": args.n_trees,
            "timing_repeats_best_of": args.repeats,
            "seed": args.seed,
        },
        "cpu_count": os.cpu_count(),
        "note": (
            "kernel and per-member paths are asserted bitwise-identical before timing; "
            "the kernel win shrinks as batch size grows because the per-tree passes it "
            "removes are amortized over more rows"
        ),
        "predict_proba": predict_section,
        "committee_ale": ale_section,
        "asserted_min_speedup": {"model": "random_forest", "rows": 200, "speedup": 3.0},
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\nheadline: {headline:.2f}x forest predict_proba at 200 rows")
    print(f"results written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
