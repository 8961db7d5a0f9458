"""Tree ensembles: random forests and extremely randomized trees.

Both average the class-probability outputs of their member trees (soft
voting), which gives smoother probability surfaces — useful both for the
confidence-based active-learning baseline and for ALE interpretation.

Prediction runs through a :class:`repro.ml.kernels.TreeBank`: every member
tree is concatenated into one struct-of-arrays bank and all trees descend
for all rows in a single level-synchronous loop.  The probability
accumulation replays the historical per-member loop's float-operation
order exactly, so the kernel path is bitwise-identical to per-member
prediction (``_predict_proba_per_member`` keeps the legacy loop as the
equivalence-test oracle and benchmark baseline).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state, spawn
from .base import BaseEstimator, ClassifierMixin, check_array, check_is_fitted, check_X_y
from .kernels import TreeBank
from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier", "ExtraTreesClassifier"]

#: Deterministic bound on bootstrap redraws per member tree.  A redraw
#: triggers when a bootstrap sample misses all but one class; with every
#: class present in ``y`` the miss probability is at most ``e^-1`` per
#: draw, so the bound is unreachable in practice — it exists to turn a
#: would-be unbounded loop into a typed error.
_MAX_BOOTSTRAP_REDRAWS = 100


def _bootstrap_sample(
    rng, encoded: np.ndarray, n: int, *, max_redraws: int = _MAX_BOOTSTRAP_REDRAWS
) -> np.ndarray:
    """Draw a bootstrap sample keeping >= 2 classes, with a redraw cap.

    A bootstrap draw can miss a class entirely; redraw until at least two
    classes survive so the member tree stays a classifier.  The cap keeps
    the loop deterministic-bounded: exceeding it raises instead of
    spinning (reachable only through a broken generator, since each
    redraw succeeds with probability >= 1 - e^-1 for any ``y`` that
    passed the up-front class-count validation).
    """
    sample = rng.integers(0, n, size=n)
    redraws = 0
    while np.unique(encoded[sample]).size < 2:
        redraws += 1
        if redraws > max_redraws:
            raise ValidationError(
                f"could not draw a bootstrap sample with >= 2 classes in {max_redraws} redraws; "
                "the label distribution is too degenerate for bootstrapped trees"
            )
        sample = rng.integers(0, n, size=n)
    return sample


class _BaseForest(BaseEstimator, ClassifierMixin):
    """Common bagging/averaging machinery for the two forest flavors."""

    _splitter = "best"
    _bootstrap_default = True

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features="sqrt",
        criterion: str = "gini",
        bootstrap: bool | None = None,
        random_state: RandomState = None,
    ):
        if n_estimators < 1:
            raise ValidationError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.random_state = random_state

    def fit(self, X, y) -> "_BaseForest":
        X, y = check_X_y(X, y)
        # Validate the class count before any bootstrap resampling: a
        # single-class ``y`` can never yield a >= 2-class sample, so the
        # redraw loop below must not be reachable for it.
        if np.unique(y).size < 2:
            raise ValidationError(
                "forest fit needs at least 2 distinct classes in y; no bootstrap sample of a "
                "single-class labelling can train a classifier"
            )
        encoded = self._encode_labels(y)
        rng = check_random_state(self.random_state)
        bootstrap = self._bootstrap_default if self.bootstrap is None else self.bootstrap
        self.estimators_ = []
        n = X.shape[0]
        for child_rng in spawn(rng, self.n_estimators):
            if bootstrap:
                sample = _bootstrap_sample(child_rng, encoded, n)
            else:
                sample = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
                splitter=self._splitter,
                random_state=child_rng,
            )
            tree.fit(X[sample], encoded[sample])
            self.estimators_.append(tree)
        self.n_features_ = X.shape[1]
        self._bank = None
        return self

    def __getstate__(self):
        # The bank is a pure function of the member trees — rebuild it
        # lazily after unpickling instead of doubling the artifact bytes.
        state = self.__dict__.copy()
        state["_bank"] = None
        return state

    def _tree_bank(self) -> TreeBank:
        """The ensemble-wide kernel, built lazily and cached.

        Member trees may have seen only a subset of the encoded classes
        (bootstrap), so their value blocks scatter into the forest's full
        class space via each tree's ``classes_`` map.
        """
        bank = getattr(self, "_bank", None)
        if bank is None:
            bank = TreeBank(
                [tree.tree_ for tree in self.estimators_],
                value_columns=[tree.classes_.astype(np.int64) for tree in self.estimators_],
                n_value_columns=self.n_classes_,
            )
            self._bank = bank
        return bank

    def _validate_predict_input(self, X) -> np.ndarray:
        check_is_fitted(self, "estimators_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"expected {self.n_features_} features, got {X.shape[1]}")
        return X

    def predict_proba(self, X) -> np.ndarray:
        X = self._validate_predict_input(X)
        bank = self._tree_bank()
        leaves = bank.apply(X)
        # Accumulate in member order, one vectorized add per tree — the
        # identical float-operation sequence the per-member loop performs
        # (class-subset members contribute exact +0.0 in absent columns),
        # so both paths produce bitwise-equal probabilities.
        proba = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        for member_leaves in leaves:
            proba += bank.value[member_leaves]
        proba /= len(self.estimators_)
        return proba

    def _predict_proba_per_member(self, X) -> np.ndarray:
        """Legacy per-member loop: the kernel's test oracle and benchmark baseline."""
        X = self._validate_predict_input(X)
        proba = np.zeros((X.shape[0], self.n_classes_), dtype=np.float64)
        for tree in self.estimators_:
            tree_proba = tree.predict_proba(X)
            # Member trees may have seen a subset of the classes; align columns.
            member_classes = tree.classes_.astype(np.int64)
            proba[:, member_classes] += tree_proba
        proba /= len(self.estimators_)
        return proba


class RandomForestClassifier(_BaseForest):
    """Bagged CART trees with per-split feature subsampling."""

    _splitter = "best"
    _bootstrap_default = True


class ExtraTreesClassifier(_BaseForest):
    """Extremely randomized trees: random thresholds, no bootstrap.

    The extra randomization decorrelates member errors further, which is
    valuable when the AutoML ensemble doubles as a QBC committee.
    """

    _splitter = "random"
    _bootstrap_default = False
