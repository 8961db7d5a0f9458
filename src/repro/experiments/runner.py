"""Shared machinery for the evaluation experiments.

Each Table-1 row is a *data-augmentation strategy*: it takes the initial
training set (plus the fitted initial AutoML, the candidate pool, and a
labeling oracle) and returns the augmented training set.  The harness then
fits a fresh AutoML on the augmented data and scores it on the shared test
sets, so every strategy is compared under identical conditions — the
paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..active.confidence import select_least_confident
from ..active.qbc import select_by_committee
from ..active.uniform import sample_uniform
from ..active.upsampling import random_oversample
from ..automl.automl import AutoMLClassifier
from ..core.feedback import AleFeedback, cross_ale_committee, within_ale_committee
from ..datasets.scream import LabeledDataset
from ..exceptions import ValidationError
from ..ml.metrics import balanced_accuracy
from ..rng import RandomState, check_random_state, spawn_seeds
from ..runtime import Task, TaskRuntime, default_runtime

__all__ = [
    "AugmentationContext",
    "AugmentationResult",
    "STRATEGIES",
    "ORACLE_STRATEGIES",
    "strategy",
    "run_strategy",
]


@dataclass
class AugmentationContext:
    """Everything a Table-1 strategy may use to build its augmented data.

    ``runtime`` is the :class:`~repro.runtime.TaskRuntime` every AutoML
    fit is submitted through; ``None`` means the implicit serial,
    uncached runtime.  With a :class:`~repro.runtime.ProcessExecutor`
    behind it the Cross-ALE committee fits run in parallel, and with a
    cache attached identical fits are answered from disk — bitwise the
    same results either way, because every fit's randomness is a seed
    drawn *before* submission.
    """

    train: LabeledDataset
    pool: LabeledDataset
    oracle: Callable[[np.ndarray], np.ndarray] | None
    initial_automl: AutoMLClassifier
    automl_factory: Callable[[np.random.Generator], AutoMLClassifier]
    n_feedback: int
    feedback: AleFeedback
    cross_runs: int
    rng: np.random.Generator
    runtime: TaskRuntime | None = None

    def label(self, X_new: np.ndarray) -> np.ndarray:
        if self.oracle is None:
            raise ValidationError(
                "this strategy needs to label new points but no oracle is available "
                "(pool-only experiments must use pool-based strategies)"
            )
        return self.oracle(X_new)

    def submit_fits(self, datasets: Sequence[tuple[np.ndarray, np.ndarray]], seeds: Sequence[int], label: str) -> list:
        """Run ``automl.fit`` tasks for ``(X, y)`` pairs through the runtime.

        The seeds must already be drawn (so submission order cannot touch
        any shared stream); each task's generator is rebuilt from its own
        seed path wherever the task lands.
        """
        runtime = self.runtime if self.runtime is not None else default_runtime()
        tasks = [
            Task(
                fn_name="automl.fit",
                payload={"factory": self.automl_factory, "X": X, "y": y},
                seed_path=(seed,),
                label=f"{label}[{index}]",
            )
            for index, ((X, y), seed) in enumerate(zip(datasets, seeds))
        ]
        return runtime.run(tasks)

    def fit_cross_runs(self) -> list[AutoMLClassifier]:
        """The extra AutoML runs Cross-ALE needs (initial run reused).

        Seeds are drawn from ``self.rng`` up front — the identical stream
        consumption :func:`repro.rng.spawn` would perform — then the fits
        themselves go through the runtime, serial or parallel alike.
        """
        seeds = spawn_seeds(self.rng, self.cross_runs - 1)
        extra = self.submit_fits(
            [(self.train.X, self.train.y)] * len(seeds), seeds, label="cross-run"
        )
        return [self.initial_automl, *extra]


@dataclass
class AugmentationResult:
    """A strategy's output: the augmented training set plus bookkeeping."""

    train: LabeledDataset
    points_added: int
    detail: str = ""


_StrategyFn = Callable[[AugmentationContext], AugmentationResult]
STRATEGIES: dict[str, _StrategyFn] = {}

#: Strategies that call ``ctx.label`` and therefore need a labeling oracle.
#: Experiments without one (the firewall data) reject these up front — a
#: clear :class:`ValidationError` instead of a failed grid cell.
ORACLE_STRATEGIES: set[str] = set()


def strategy(name: str, *, needs_oracle: bool = False):
    """Register a Table-1 augmentation strategy under ``name``.

    ``needs_oracle`` marks strategies that label new points via
    ``ctx.label`` — pool-only experiments refuse them at validation time.
    """

    def decorator(fn: _StrategyFn) -> _StrategyFn:
        if name in STRATEGIES:
            raise ValidationError(f"duplicate strategy name {name!r}")
        STRATEGIES[name] = fn
        if needs_oracle:
            ORACLE_STRATEGIES.add(name)
        return fn

    return decorator


# --------------------------------------------------------------------------
# The nine Table-1 rows.
# --------------------------------------------------------------------------


@strategy("no_feedback")
def _no_feedback(ctx: AugmentationContext) -> AugmentationResult:
    """Baseline: the raw training data."""
    return AugmentationResult(train=ctx.train, points_added=0)


def _analyze_with_fallback(ctx: AugmentationContext, committee) -> "FeedbackReport":
    """Analyze, relaxing a scaled-up threshold if it flags nothing.

    The paper's budget guidance raises the threshold for small budgets; if
    a particular committee agrees so well that the scaled threshold flags
    no region, fall back to the plain median heuristic rather than failing
    the whole experiment repeat.
    """
    report = ctx.feedback.analyze(committee, ctx.train.X, ctx.train.domains)
    if not report.region and ctx.feedback.threshold is None and ctx.feedback.threshold_scale != 1.0:
        relaxed = AleFeedback(
            grid_size=ctx.feedback.grid_size,
            grid_strategy=ctx.feedback.grid_strategy,
            class_aggregation=ctx.feedback.class_aggregation,
            interpreter=ctx.feedback.interpreter,
        )
        report = relaxed.analyze(committee, ctx.train.X, ctx.train.domains)
    return report


@strategy("within_ale", needs_oracle=True)
def _within_ale(ctx: AugmentationContext) -> AugmentationResult:
    """ALE-variance feedback over one AutoML ensemble; oracle labels."""
    committee = within_ale_committee(ctx.initial_automl)
    report = _analyze_with_fallback(ctx, committee)
    X_new = report.suggest(ctx.n_feedback, random_state=ctx.rng)
    y_new = ctx.label(X_new)
    return AugmentationResult(
        train=ctx.train.extended(X_new, y_new),
        points_added=ctx.n_feedback,
        detail=f"T={report.threshold:.4g}, {len(report.region)} region(s)",
    )


@strategy("cross_ale", needs_oracle=True)
def _cross_ale(ctx: AugmentationContext) -> AugmentationResult:
    """ALE-variance feedback across independent AutoML runs."""
    committee = cross_ale_committee(ctx.fit_cross_runs())
    report = _analyze_with_fallback(ctx, committee)
    X_new = report.suggest(ctx.n_feedback, random_state=ctx.rng)
    y_new = ctx.label(X_new)
    return AugmentationResult(
        train=ctx.train.extended(X_new, y_new),
        points_added=ctx.n_feedback,
        detail=f"T={report.threshold:.4g}, {len(report.region)} region(s), {ctx.cross_runs} runs",
    )


@strategy("uniform", needs_oracle=True)
def _uniform(ctx: AugmentationContext) -> AugmentationResult:
    """Uniformly sampled extra points (placement-agnostic control)."""
    X_new = sample_uniform(ctx.train.domains, ctx.n_feedback, random_state=ctx.rng)
    y_new = ctx.label(X_new)
    return AugmentationResult(train=ctx.train.extended(X_new, y_new), points_added=ctx.n_feedback)


@strategy("confidence")
def _confidence(ctx: AugmentationContext) -> AugmentationResult:
    """Least-confidence active learning from the fixed candidate pool."""
    picks = select_least_confident(ctx.initial_automl, ctx.pool.X, ctx.n_feedback)
    return AugmentationResult(
        train=ctx.train.extended(ctx.pool.X[picks], ctx.pool.y[picks]),
        points_added=len(picks),
    )


@strategy("qbc")
def _qbc(ctx: AugmentationContext) -> AugmentationResult:
    """Vote-entropy QBC over the AutoML ensemble, from the pool."""
    committee = within_ale_committee(ctx.initial_automl)
    picks = select_by_committee(committee, ctx.pool.X, ctx.n_feedback)
    return AugmentationResult(
        train=ctx.train.extended(ctx.pool.X[picks], ctx.pool.y[picks]),
        points_added=len(picks),
    )


@strategy("upsampling")
def _upsampling(ctx: AugmentationContext) -> AugmentationResult:
    """Random oversampling to balance labels (no new information)."""
    X_up, y_up = random_oversample(ctx.train.X, ctx.train.y, random_state=ctx.rng)
    added = X_up.shape[0] - ctx.train.n_samples
    balanced = LabeledDataset(
        X=X_up,
        y=y_up,
        feature_names=list(ctx.train.feature_names),
        domains=list(ctx.train.domains),
        description=ctx.train.description,
    )
    return AugmentationResult(train=balanced, points_added=added)


@strategy("within_ale_pool")
def _within_ale_pool(ctx: AugmentationContext) -> AugmentationResult:
    """Within-ALE restricted to the candidate pool (no oracle)."""
    committee = within_ale_committee(ctx.initial_automl)
    report = _analyze_with_fallback(ctx, committee)
    picks = report.filter_pool(ctx.pool.X, max_points=ctx.n_feedback, random_state=ctx.rng)
    return AugmentationResult(
        train=ctx.train.extended(ctx.pool.X[picks], ctx.pool.y[picks]),
        points_added=len(picks),
        detail=f"{len(picks)} of {ctx.pool.n_samples} pool points fell in the region",
    )


@strategy("cross_ale_pool")
def _cross_ale_pool(ctx: AugmentationContext) -> AugmentationResult:
    """Cross-ALE restricted to the candidate pool (no oracle)."""
    committee = cross_ale_committee(ctx.fit_cross_runs())
    report = _analyze_with_fallback(ctx, committee)
    picks = report.filter_pool(ctx.pool.X, max_points=ctx.n_feedback, random_state=ctx.rng)
    return AugmentationResult(
        train=ctx.train.extended(ctx.pool.X[picks], ctx.pool.y[picks]),
        points_added=len(picks),
        detail=f"{len(picks)} of {ctx.pool.n_samples} pool points fell in the region",
    )


# --------------------------------------------------------------------------
# Evaluation plumbing.
# --------------------------------------------------------------------------


def evaluate_on_test_sets(model, test_sets: Sequence[LabeledDataset]) -> list[float]:
    """Balanced accuracy of ``model`` on each test set."""
    return [balanced_accuracy(t.y, model.predict(t.X)) for t in test_sets]


def _training_set_unchanged(result: AugmentationResult, ctx: AugmentationContext) -> bool:
    """True when the strategy left the training data exactly as it was.

    Pool strategies legitimately return ``points_added == 0`` when the
    feedback region captures no pool point; refitting on an identical
    training set would only burn an AutoML run to reproduce (a reseeded
    twin of) ``ctx.initial_automl``.  Content is compared, not identity:
    ``extended`` with zero rows and a no-op oversample both build fresh
    objects around the same data.
    """
    if result.points_added != 0:
        return False
    if result.train is ctx.train:
        return True
    return (
        result.train.n_samples == ctx.train.n_samples
        and np.array_equal(result.train.X, ctx.train.X)
        and np.array_equal(result.train.y, ctx.train.y)
    )


def run_strategy(
    name: str,
    ctx: AugmentationContext,
    test_sets: Sequence[LabeledDataset],
    *,
    random_state: RandomState = None,
) -> tuple[list[float], AugmentationResult]:
    """Execute one strategy end-to-end: augment, refit AutoML, score.

    The refit is an ``automl.fit`` task on the context's runtime, seeded
    by one :func:`~repro.rng.spawn_seeds` draw from ``random_state`` — so
    a parallel or cached run scores identically to a serial one.  When
    the strategy did not change the training set at all, the refit is
    skipped and ``ctx.initial_automl`` (already a model of exactly that
    data) is scored instead.
    """
    try:
        fn = STRATEGIES[name]
    except KeyError:
        raise ValidationError(f"unknown strategy {name!r}; have {sorted(STRATEGIES)}") from None
    result = fn(ctx)
    if _training_set_unchanged(result, ctx):
        model = ctx.initial_automl
    else:
        rng = check_random_state(random_state)
        [seed] = spawn_seeds(rng, 1)
        [model] = ctx.submit_fits([(result.train.X, result.train.y)], [seed], label=f"refit-{name}")
    return evaluate_on_test_sets(model, test_sets), result
