"""Random hyper-parameter search with wall-clock and iteration budgets.

The search holds out a stratified validation split, scores every sampled
pipeline on it, and keeps the fitted pipelines plus their validation
probability matrices — the inputs ensemble selection needs.  Candidates
whose fit raises a library error are recorded as failures and skipped, so a
single degenerate configuration never kills a run (mirroring how
AutoSklearn tolerates crashing configurations).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import ReproError, SearchBudgetError, ValidationError
from ..ml.base import check_X_y
from ..ml.metrics import balanced_accuracy
from ..ml.model_selection import stratified_split_indices
from ..rng import RandomState, check_random_state
from .spaces import Candidate, ModelFamily, default_model_families, sample_candidate

__all__ = ["SearchResult", "EvaluatedCandidate", "RandomSearch", "budget_exhausted"]


def budget_exhausted(start: float, time_budget: float | None, n_evaluated: int) -> bool:
    """Shared wall-clock budget test for every search strategy.

    The contract (pinned by ``tests/test_automl_budget.py``): ``None``
    means the clock is never consulted; ``0`` is exhausted before the
    first evaluation, i.e. zero search iterations; a positive budget
    always admits at least one evaluation so a search can return
    something, then stops once the elapsed time exceeds it.
    """
    if time_budget is None:
        return False
    if time_budget == 0:
        return True
    if n_evaluated == 0:
        return False
    return time.monotonic() - start > time_budget


@dataclass
class EvaluatedCandidate:
    """One scored configuration from a search run."""

    candidate: Candidate
    score: float
    fit_seconds: float
    valid_proba: np.ndarray = field(repr=False)


@dataclass
class SearchResult:
    """Everything a search produced, ordered best-first."""

    evaluated: list[EvaluatedCandidate]
    failures: list[tuple[Candidate, str]]
    train_indices: np.ndarray
    valid_indices: np.ndarray
    classes: np.ndarray

    @property
    def best(self) -> EvaluatedCandidate:
        if not self.evaluated:
            raise SearchBudgetError("search evaluated no successful candidates")
        return self.evaluated[0]


class RandomSearch:
    """Budgeted random search over pipeline configurations.

    Parameters
    ----------
    n_iterations:
        Maximum number of candidate configurations to evaluate.
    time_budget:
        Optional wall-clock cap in seconds.  ``None`` disables the clock
        entirely (only ``n_iterations`` limits the run), a positive value
        always admits at least one evaluation, and ``0`` means *no search
        iterations at all* — ``run`` raises
        :class:`~repro.exceptions.SearchBudgetError` without touching the
        clock.
    valid_fraction:
        Fraction of the training data held out for scoring candidates.
    scorer:
        ``scorer(y_true, y_pred) -> float`` (higher is better); defaults to
        balanced accuracy, the paper's metric.
    """

    def __init__(
        self,
        *,
        n_iterations: int = 30,
        time_budget: float | None = None,
        valid_fraction: float = 0.25,
        families: list[ModelFamily] | None = None,
        scorer: Callable[[np.ndarray, np.ndarray], float] | None = None,
        random_state: RandomState = None,
    ):
        if n_iterations < 1:
            raise SearchBudgetError(f"n_iterations must be >= 1, got {n_iterations}")
        if time_budget is not None and time_budget < 0:
            raise SearchBudgetError(f"time_budget must be >= 0 or None, got {time_budget}")
        if not 0.0 < valid_fraction < 1.0:
            raise ValidationError(f"valid_fraction must be in (0, 1), got {valid_fraction}")
        self.n_iterations = n_iterations
        self.time_budget = time_budget
        self.valid_fraction = valid_fraction
        self.families = families
        self.scorer = scorer or balanced_accuracy
        self.random_state = random_state

    def run(self, X, y) -> SearchResult:
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        families = self.families if self.families is not None else default_model_families()
        train_idx, valid_idx = stratified_split_indices(y, test_fraction=self.valid_fraction, rng=rng)
        if valid_idx.size == 0:
            raise ValidationError("validation split is empty; provide more data or a larger valid_fraction")
        X_train, y_train = X[train_idx], y[train_idx]
        X_valid, y_valid = X[valid_idx], y[valid_idx]
        classes = np.unique(y)

        evaluated: list[EvaluatedCandidate] = []
        failures: list[tuple[Candidate, str]] = []
        start = time.monotonic()
        for _ in range(self.n_iterations):
            if budget_exhausted(start, self.time_budget, len(evaluated)):
                break
            candidate = sample_candidate(families, rng)
            fit_start = time.monotonic()
            try:
                candidate.pipeline.fit(X_train, y_train)
                proba = _align_proba(candidate.pipeline, X_valid, classes)
                predictions = classes[np.argmax(proba, axis=1)]
                score = float(self.scorer(y_valid, predictions))
            except ReproError as exc:
                failures.append((candidate, str(exc)))
                continue
            evaluated.append(
                EvaluatedCandidate(
                    candidate=candidate,
                    score=score,
                    fit_seconds=time.monotonic() - fit_start,
                    valid_proba=proba,
                )
            )
        evaluated.sort(key=lambda item: item.score, reverse=True)
        if not evaluated:
            if self.time_budget == 0:
                raise SearchBudgetError("time_budget=0 allows no candidate evaluations")
            raise SearchBudgetError(
                f"all {len(failures)} candidate configurations failed; first error: "
                f"{failures[0][1] if failures else 'none sampled'}"
            )
        return SearchResult(
            evaluated=evaluated,
            failures=failures,
            train_indices=train_idx,
            valid_indices=valid_idx,
            classes=classes,
        )


def _align_proba(pipeline, X: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Expand a pipeline's probability columns onto the global class order.

    A candidate fit on a stratified split always sees every class, but this
    guard keeps the search correct if a caller feeds custom splits.
    """
    proba = pipeline.predict_proba(X)
    member_classes = pipeline.classes_
    if member_classes.shape[0] == classes.shape[0] and np.all(member_classes == classes):
        return proba
    aligned = np.zeros((proba.shape[0], classes.shape[0]))
    positions = np.searchsorted(classes, member_classes)
    aligned[:, positions] = proba
    return aligned
