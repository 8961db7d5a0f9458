"""Gradient-boosted trees for classification.

Multi-class gradient boosting with one regression tree per class per round,
fit to the softmax cross-entropy gradient (the classic GBM recipe).  Depth
is kept shallow by default; the model family contributes strong,
differently-biased members to the AutoML ensemble.

``decision_function`` evaluates every stage tree through one
:class:`repro.ml.kernels.TreeBank` traversal instead of ``rounds ×
classes`` per-tree passes; the logit accumulation replays the historical
stage/class loop order exactly, keeping predictions bitwise-identical
(``_decision_function_per_member`` keeps the legacy loop as the
equivalence-test oracle and benchmark baseline).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state, spawn
from .base import BaseEstimator, ClassifierMixin, check_array, check_is_fitted, check_X_y
from .kernels import TreeBank
from .linear import softmax
from .tree import DecisionTreeRegressor

__all__ = ["GradientBoostingClassifier"]


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Softmax gradient boosting over shallow CART regression trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds; each round fits ``n_classes`` trees.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    subsample:
        Row fraction drawn (without replacement) per round; values below 1
        give stochastic gradient boosting.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: RandomState = None,
    ):
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 < subsample <= 1.0:
            raise ValidationError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        n, _ = X.shape
        k = self.n_classes_
        rng = check_random_state(self.random_state)

        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), encoded] = 1.0
        priors = np.clip(one_hot.mean(axis=0), 1e-12, 1.0)
        self.base_score_ = np.log(priors)

        logits = np.tile(self.base_score_, (n, 1))
        self.stages_: list[list[DecisionTreeRegressor]] = []
        round_rngs = spawn(rng, self.n_estimators)
        for round_rng in round_rngs:
            probs = softmax(logits)
            residual = one_hot - probs  # negative gradient of cross-entropy
            if self.subsample < 1.0:
                size = max(2 * self.min_samples_leaf, int(round(self.subsample * n)))
                rows = round_rng.choice(n, size=min(size, n), replace=False)
            else:
                rows = np.arange(n)
            stage: list[DecisionTreeRegressor] = []
            for c in range(k):
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    random_state=round_rng,
                )
                tree.fit(X[rows], residual[rows, c])
                logits[:, c] += self.learning_rate * tree.predict(X)
                stage.append(tree)
            self.stages_.append(stage)
        self.n_features_ = X.shape[1]
        self._bank = None
        return self

    def __getstate__(self):
        # The bank is a pure function of the stage trees — rebuild it
        # lazily after unpickling instead of doubling the artifact bytes.
        state = self.__dict__.copy()
        state["_bank"] = None
        return state

    def _tree_bank(self) -> TreeBank:
        """All stage trees, stage-major, in one struct-of-arrays bank."""
        bank = getattr(self, "_bank", None)
        if bank is None:
            bank = TreeBank([tree.tree_ for stage in self.stages_ for tree in stage])
            self._bank = bank
        return bank

    def _validate_predict_input(self, X) -> np.ndarray:
        check_is_fitted(self, "stages_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"expected {self.n_features_} features, got {X.shape[1]}")
        return X

    def decision_function(self, X) -> np.ndarray:
        X = self._validate_predict_input(X)
        bank = self._tree_bank()
        leaves = bank.apply(X)  # (rounds * classes, n) stage-major
        # Accumulate stage by stage, class by class — the identical float
        # sequence the per-tree loop performs — so logits stay bitwise-equal.
        logits = np.tile(self.base_score_, (X.shape[0], 1))
        index = 0
        for stage in self.stages_:
            for c in range(len(stage)):
                logits[:, c] += self.learning_rate * bank.value[leaves[index], 0]
                index += 1
        return logits

    def _decision_function_per_member(self, X) -> np.ndarray:
        """Legacy per-tree loop: the kernel's test oracle and benchmark baseline."""
        X = self._validate_predict_input(X)
        logits = np.tile(self.base_score_, (X.shape[0], 1))
        for stage in self.stages_:
            for c, tree in enumerate(stage):
                logits[:, c] += self.learning_rate * tree.predict(X)
        return logits

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.decision_function(X))
