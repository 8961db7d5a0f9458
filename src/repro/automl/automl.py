"""The AutoML façade: search + ensemble selection behind one ``fit``.

:class:`AutoMLClassifier` is this library's stand-in for AutoSklearn: it
random-searches a fixed number of model/preprocessing candidates, performs
greedy ensemble selection on a held-out validation split, refits the
selected members on all the training data, and exposes the resulting
weighted ensemble — including the individual members, which is what the
paper's interpretable-feedback algorithm consumes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ValidationError
from ..ml.base import check_array, check_is_fitted, check_X_y
from ..ml.metrics import balanced_accuracy
from ..rng import RandomState, check_random_state
from .ensemble import EnsembleClassifier, greedy_ensemble_selection
from .search import RandomSearch, SearchResult
from .spaces import ModelFamily

__all__ = ["AutoMLClassifier"]


class AutoMLClassifier:
    """AutoML for classification with a candidate-count budget.

    Parameters
    ----------
    n_iterations:
        Search budget: the number of candidate configurations evaluated.
        A fixed share of the training rows
        (:data:`repro.automl.search.VALID_FRACTION`) is held out to score
        them and to select the ensemble.
    ensemble_size:
        Number of greedy selection rounds; repeated picks become weights.
    families:
        Optional restricted list of :class:`ModelFamily`; the domain
        customization wrapper uses this hook.
    scorer:
        Validation metric, default balanced accuracy (the paper's metric).

    Attributes (after ``fit``)
    --------------------------
    ensemble_ : EnsembleClassifier
        The final weighted ensemble, refit on all training data.
    search_result_ : SearchResult
        Full search history (scores, failures, splits).
    classes_ : ndarray
        Sorted class labels.
    """

    def __init__(
        self,
        *,
        n_iterations: int = 30,
        ensemble_size: int = 10,
        min_distinct_members: int = 4,
        families: list[ModelFamily] | None = None,
        scorer: Callable[[np.ndarray, np.ndarray], float] | None = None,
        random_state: RandomState = None,
    ):
        if ensemble_size < 1:
            raise ValidationError(f"ensemble_size must be >= 1, got {ensemble_size}")
        if min_distinct_members < 1:
            raise ValidationError(f"min_distinct_members must be >= 1, got {min_distinct_members}")
        self.n_iterations = n_iterations
        self.ensemble_size = ensemble_size
        self.min_distinct_members = min_distinct_members
        self.families = families
        self.scorer = scorer or balanced_accuracy
        self.random_state = random_state

    def fit(self, X, y) -> "AutoMLClassifier":
        X, y = check_X_y(X, y)
        result = RandomSearch(
            n_iterations=self.n_iterations,
            families=self.families,
            scorer=self.scorer,
            random_state=check_random_state(self.random_state),
        ).run(X, y)
        picks = greedy_ensemble_selection(
            [item.valid_proba for item in result.evaluated],
            y[result.valid_indices],
            result.classes,
            ensemble_size=self.ensemble_size,
            scorer=self.scorer,
        )
        unique_picks, counts = np.unique(np.asarray(picks), return_counts=True)
        unique_picks, counts = list(unique_picks), list(counts)
        # Greedy selection happily converges onto one dominant candidate.
        # The feedback algorithm needs the ensemble to double as a diverse
        # committee, so top up with the best not-yet-selected candidates
        # (at the minimum weight) until the member floor is met.
        floor = min(self.min_distinct_members, len(result.evaluated))
        for index in range(len(result.evaluated)):
            if len(unique_picks) >= floor:
                break
            if index not in unique_picks:
                unique_picks.append(index)
                counts.append(1)
        members = []
        for index in unique_picks:
            # Refit each selected configuration on the full training data so
            # the final ensemble does not waste the validation rows.
            pipeline = result.evaluated[int(index)].candidate.pipeline.clone()
            pipeline.fit(X, y)
            members.append(pipeline)
        self.ensemble_ = EnsembleClassifier(members, np.asarray(counts, dtype=float), result.classes)
        self.search_result_: SearchResult = result
        self.classes_ = result.classes
        self.n_features_ = X.shape[1]
        return self

    # -- classifier protocol ----------------------------------------------
    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.predict(check_array(X))

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.predict_proba(check_array(X))

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One member sweep answering ``(predictions, proba, member_stack)``.

        The serving layer's batch entry point: predictions here are
        bitwise-identical to :meth:`predict` (same member sweep, same
        weighted accumulation), and the per-member probability stack rides
        along for committee-disagreement monitoring at no extra cost.
        """
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.predict_batch(check_array(X))

    def score(self, X, y) -> float:
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.score(check_array(X), y)

    # -- introspection ------------------------------------------------------
    @property
    def ensemble_members_(self) -> list:
        """The fitted member pipelines of the final ensemble."""
        check_is_fitted(self, "ensemble_")
        return self.ensemble_.members

    def describe(self) -> str:
        """Human-readable summary of the fitted ensemble."""
        check_is_fitted(self, "ensemble_")
        lines = [f"AutoML ensemble with {len(self.ensemble_)} member(s):"]
        for member, weight in zip(self.ensemble_.members, self.ensemble_.weights):
            model = type(member.final_estimator).__name__
            lines.append(f"  weight={weight:.2f}  {model}")
        best = self.search_result_.best
        lines.append(f"best single candidate: {best.candidate.describe()} (score={best.score:.3f})")
        return "\n".join(lines)
