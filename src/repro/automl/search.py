"""Random hyper-parameter search with a candidate-count budget.

The search holds out a stratified validation split, scores every sampled
pipeline on it, and keeps the fitted pipelines plus their validation
probability matrices — the inputs ensemble selection needs.  Candidates
whose fit raises a library error are recorded as failures and skipped, so a
single degenerate configuration never kills a run (mirroring how
AutoSklearn tolerates crashing configurations).  The number of sampled
candidates is the only budget, so a search never reads a clock and its
result depends on the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import ReproError, SearchBudgetError, ValidationError
from ..ml.base import check_X_y
from ..ml.metrics import balanced_accuracy
from ..ml.model_selection import stratified_split_indices
from ..rng import RandomState, check_random_state
from .spaces import Candidate, ModelFamily, default_model_families, sample_candidate

__all__ = ["SearchResult", "EvaluatedCandidate", "RandomSearch"]

#: Fraction of the training data held out for scoring candidates and
#: selecting the ensemble.
VALID_FRACTION = 0.25


@dataclass
class EvaluatedCandidate:
    """One scored configuration from a search run."""

    candidate: Candidate
    score: float
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
    """Random search over pipeline configurations.

    Parameters
    ----------
    n_iterations:
        Number of candidate configurations to sample and evaluate.
    scorer:
        ``scorer(y_true, y_pred) -> float`` (higher is better); defaults to
        balanced accuracy, the paper's metric.
    """

    def __init__(
        self,
        *,
        n_iterations: int = 30,
        families: list[ModelFamily] | None = None,
        scorer: Callable[[np.ndarray, np.ndarray], float] | None = None,
        random_state: RandomState = None,
    ):
        if n_iterations < 1:
            raise SearchBudgetError(f"n_iterations must be >= 1, got {n_iterations}")
        self.n_iterations = n_iterations
        self.families = families
        self.scorer = scorer or balanced_accuracy
        self.random_state = random_state

    def run(self, X, y) -> SearchResult:
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        families = self.families if self.families is not None else default_model_families()
        train_idx, valid_idx = stratified_split_indices(y, test_fraction=VALID_FRACTION, rng=rng)
        if valid_idx.size == 0:
            raise ValidationError(
                f"validation split is empty; the search holds out {VALID_FRACTION:.0%} of the rows, "
                "so provide more data"
            )
        X_train, y_train = X[train_idx], y[train_idx]
        X_valid, y_valid = X[valid_idx], y[valid_idx]
        classes = np.unique(y)

        evaluated: list[EvaluatedCandidate] = []
        failures: list[tuple[Candidate, str]] = []
        for _ in range(self.n_iterations):
            candidate = sample_candidate(families, rng)
            try:
                candidate.pipeline.fit(X_train, y_train)
                proba = _align_proba(candidate.pipeline, X_valid, classes)
                predictions = classes[np.argmax(proba, axis=1)]
                score = float(self.scorer(y_valid, predictions))
            except ReproError as exc:
                failures.append((candidate, str(exc)))
                continue
            evaluated.append(EvaluatedCandidate(candidate=candidate, score=score, valid_proba=proba))
        evaluated.sort(key=lambda item: item.score, reverse=True)
        if not evaluated:
            raise SearchBudgetError(
                f"all {len(failures)} candidate configurations failed; first error: {failures[0][1]}"
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
