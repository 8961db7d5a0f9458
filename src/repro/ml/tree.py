"""CART decision trees (classification and regression).

A from-scratch, numpy-vectorized CART implementation.  The split search at
each node is one block pass over all its candidate features: the node's
values of those features form an ``(F, n)`` block, a stable row-wise
argsort orders every row at once, and prefix sums score every split
position of every feature together (cumulative class counts over an
``(F, n, C)`` one-hot for classification, row-wise ``cumsum`` for
regression).  The best position of each row, then the first best row,
give the split, so ties resolve as a feature-by-feature scan with a strict
``>`` would.  The extra-trees splitter draws one threshold per non-constant
row and counts both sides' classes with 0/1 float matmuls.  Growing is
``O(features · n log n)`` per node in a constant number of numpy calls.

Trees grow from an explicit pre-order stack, so depth is not bounded by
Python's recursion limit.  They are stored as flat arrays
(``children_left`` / ``children_right`` / ``feature`` / ``threshold`` /
``value``), which keeps prediction a tight vectorized loop and makes the
structure easy to inspect in tests.

The regression tree is used by :mod:`repro.ml.boosting` to fit gradient
residuals; the classifier is used directly and inside the forests.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state
from .base import BaseEstimator, ClassifierMixin, check_array, check_is_fitted, check_X_y

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_NO_FEATURE = -1
_LEAF = -1


def _resolve_max_features(max_features, n_features: int) -> int:
    """Translate a max_features spec into a concrete column count."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValidationError(f"max_features fraction must be in (0, 1], got {max_features}")
        return max(1, int(round(max_features * n_features)))
    if isinstance(max_features, (int, np.integer)):
        if not 1 <= max_features <= n_features:
            raise ValidationError(f"max_features must be in [1, {n_features}], got {max_features}")
        return int(max_features)
    raise ValidationError(f"unsupported max_features spec: {max_features!r}")


def _check_min_samples(min_samples_split: int, min_samples_leaf: int) -> None:
    if min_samples_split < 2:
        raise ValidationError(f"min_samples_split must be >= 2, got {min_samples_split}")
    if min_samples_leaf < 1:
        raise ValidationError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")


class _Split:
    """Best split found for one node (feature, threshold, impurity gain)."""

    __slots__ = ("feature", "threshold", "gain")

    def __init__(self, feature: int, threshold: float, gain: float):
        self.feature = feature
        self.threshold = threshold
        self.gain = gain


class _TreeGrower:
    """Shared growth logic for classification and regression.

    Growth is iterative: an explicit pre-order stack (right child pushed
    before left) gives node ids and random draws in the same order as a
    recursive grower, without a recursion limit on depth.

    Subclass hooks:

    - ``_node_stats(indices)`` -> ``(value, impurity, pure)``: the leaf
      payload (probability vector / mean), the node's scalar impurity and
      whether every target in the node is equal, from one read of its
      targets.  A pure node never splits, so its impurity may be 0.0
      without being computed.
    - ``_split_scores(sorted_indices)`` -> impurity-weighted score of every
      split position, ``(F, n - 1)``, given the node's ``(F, n)`` sample
      indices sorted along each candidate feature's row.
    - ``_search_block(indices, block, parent_impurity)`` -> ``(row,
      threshold, gain)`` of the block's best split, or None; the default
      is the exhaustive search over ``_split_scores``.
    """

    def __init__(
        self,
        *,
        max_depth,
        min_samples_split,
        min_samples_leaf,
        min_impurity_decrease,
        max_features,
        rng,
    ):
        self.max_depth = np.inf if max_depth is None else max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.rng = rng

    # -- hooks -----------------------------------------------------------
    def _node_stats(self, indices: np.ndarray) -> tuple[np.ndarray, float, bool]:
        raise NotImplementedError

    def _split_scores(self, sorted_indices: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- growth ----------------------------------------------------------
    def grow(self, X: np.ndarray) -> dict[str, np.ndarray]:
        self._columns = np.ascontiguousarray(X.T)  # one row per feature
        left: list[int] = []
        right: list[int] = []
        feature: list[int] = []
        threshold: list[float] = []
        n_samples: list[int] = []
        values: list[np.ndarray] = []
        # (indices, depth, parent id, is left child); the root has no parent.
        stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(X.shape[0]), 0, _LEAF, True)]
        while stack:
            indices, depth, parent, is_left = stack.pop()
            node_id = len(values)
            if parent != _LEAF:
                (left if is_left else right)[parent] = node_id
            left.append(_LEAF)
            right.append(_LEAF)
            feature.append(_NO_FEATURE)
            threshold.append(np.nan)
            n_samples.append(indices.size)
            value, impurity, pure = self._node_stats(indices)
            values.append(value)
            children = None if pure else self._split_node(indices, depth, impurity)
            if children is not None:
                split, left_idx, right_idx = children
                feature[node_id] = split.feature
                threshold[node_id] = split.threshold
                stack.append((right_idx, depth + 1, node_id, False))
                stack.append((left_idx, depth + 1, node_id, True))
        return {
            "children_left": np.array(left, dtype=np.int64),
            "children_right": np.array(right, dtype=np.int64),
            "feature": np.array(feature, dtype=np.int64),
            "threshold": np.array(threshold, dtype=np.float64),
            "n_samples": np.array(n_samples, dtype=np.int64),
            "value": np.vstack(values),
        }

    def _split_node(
        self, indices: np.ndarray, depth: int, impurity: float
    ) -> tuple[_Split, np.ndarray, np.ndarray] | None:
        """The impure node's split and its children's indices, or None for a leaf."""
        if (
            depth >= self.max_depth
            or indices.size < self.min_samples_split
            or indices.size < 2 * self.min_samples_leaf
        ):
            return None
        split = self._find_best_split(indices, impurity)
        if split is None or split.gain < self.min_impurity_decrease:
            return None
        left_mask = self._columns[split.feature, indices] <= split.threshold
        left_idx, right_idx = indices[left_mask], indices[~left_mask]
        if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
            return None
        return split, left_idx, right_idx

    def _candidate_features(self, n_features: int) -> np.ndarray:
        k = _resolve_max_features(self.max_features, n_features)
        if k >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=k, replace=False)

    def _find_best_split(self, indices: np.ndarray, impurity: float) -> _Split | None:
        """Search every candidate feature of the node in one block pass.

        ``block`` holds the node's values of the candidate features, one
        row per feature.  Ties in gain go to the earliest candidate.
        """
        features = self._candidate_features(self._columns.shape[0])
        block = self._columns[features[:, None], indices]
        found = self._search_block(indices, block, impurity)
        if found is None:
            return None
        row, threshold, gain = found
        return _Split(int(features[row]), threshold, gain)

    def _search_block(
        self, indices: np.ndarray, block: np.ndarray, parent_impurity: float
    ) -> tuple[int, float, float] | None:
        """Exhaustive search: the best position of every row, then the best row."""
        n = indices.size
        rows = np.arange(block.shape[0])
        order = np.argsort(block, axis=1, kind="stable")
        sorted_block = block[rows[:, None], order]
        # Position p puts the first p + 1 sorted samples on the left; it is
        # valid between distinct values when both sides keep enough samples.
        n_left = np.arange(1, n)
        sizes_ok = (n_left >= self.min_samples_leaf) & (n - n_left >= self.min_samples_leaf)
        valid = (sorted_block[:, :-1] != sorted_block[:, 1:]) & sizes_ok
        scores = np.where(valid, self._split_scores(indices[order]), np.inf)
        positions = np.argmin(scores, axis=1)
        gains = parent_impurity - scores[rows, positions]  # -inf: no valid position
        row = int(np.argmax(gains))
        if gains[row] == -np.inf:
            return None
        p = int(positions[row])
        threshold = 0.5 * (sorted_block[row, p] + sorted_block[row, p + 1])
        return row, float(threshold), float(gains[row])


class _ClassificationGrower(_TreeGrower):
    def __init__(self, y_encoded: np.ndarray, n_classes: int, criterion: str, splitter: str, **kwargs):
        super().__init__(**kwargs)
        self.y = y_encoded
        self.n_classes = n_classes
        if criterion not in ("gini", "entropy"):
            raise ValidationError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
        self.criterion = criterion
        self.splitter = splitter

    def _one_hot(self, encoded: np.ndarray) -> np.ndarray:
        """Float 0/1 indicators of ``encoded`` along a new last axis."""
        return (encoded[..., None] == np.arange(self.n_classes)).astype(np.float64)

    def _impurity_from_counts(self, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Impurity of count rows; ``totals`` broadcasts against rows."""
        with np.errstate(divide="ignore", invalid="ignore"):
            p = counts / totals
            p = np.where(np.isfinite(p), p, 0.0)
            if self.criterion == "gini":
                return 1.0 - np.sum(p**2, axis=-1)
            logp = np.log2(p, out=np.zeros_like(p), where=p > 0)
            return -np.sum(p * logp, axis=-1)

    def _node_stats(self, indices: np.ndarray) -> tuple[np.ndarray, float, bool]:
        counts = np.bincount(self.y[indices], minlength=self.n_classes).astype(np.float64)
        total = counts.sum()
        pure = np.count_nonzero(counts) == 1
        impurity = 0.0 if pure else float(self._impurity_from_counts(counts, total))
        return counts / total, impurity, pure

    def _split_scores(self, sorted_indices: np.ndarray) -> np.ndarray:
        one_hot = self._one_hot(self.y[sorted_indices])  # (F, n, C)
        n = sorted_indices.shape[1]
        counts = np.cumsum(one_hot, axis=1)
        left_counts = counts[:, :-1]  # counts with split after row p
        right_counts = counts[:, -1:] - left_counts
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        side_sizes = np.stack([n_left, n_right])[:, None, :]  # broadcasts over features
        return self._weighted_impurity(np.stack([left_counts, right_counts]), side_sizes, n)

    def _weighted_impurity(self, side_counts: np.ndarray, side_sizes: np.ndarray, n: int) -> np.ndarray:
        """Size-weighted impurity of ``(2, ..., C)`` left/right count blocks."""
        impurity = self._impurity_from_counts(side_counts, side_sizes[..., None])
        return (side_sizes[0] / n) * impurity[0] + (side_sizes[1] / n) * impurity[1]

    def _search_block(
        self, indices: np.ndarray, block: np.ndarray, parent_impurity: float
    ) -> tuple[int, float, float] | None:
        if self.splitter == "best":
            return super()._search_block(indices, block, parent_impurity)
        # Extra-trees split: one uniform threshold per non-constant row,
        # drawn in row order.
        lo, hi = block.min(axis=1), block.max(axis=1)
        live = np.flatnonzero(lo != hi)
        if live.size == 0:
            return None
        thresholds = self.rng.uniform(lo[live], hi[live])
        goes_left = block[live] <= thresholds[:, None]
        sides = np.stack([goes_left, ~goes_left]).astype(np.float64)  # (2, L, n)
        side_sizes = sides.sum(axis=2)
        # 0/1 float matmuls count each side's classes exactly.
        weighted = self._weighted_impurity(sides @ self._one_hot(self.y[indices]), side_sizes, indices.size)
        valid = (side_sizes >= self.min_samples_leaf).all(axis=0)
        gains = np.where(valid, parent_impurity - weighted, -np.inf)
        best = int(np.argmax(gains))
        if gains[best] == -np.inf:
            return None
        return int(live[best]), float(thresholds[best]), float(gains[best])


class _RegressionGrower(_TreeGrower):
    def __init__(self, y: np.ndarray, **kwargs):
        super().__init__(**kwargs)
        self.y = y.astype(np.float64)

    def _node_stats(self, indices: np.ndarray) -> tuple[np.ndarray, float, bool]:
        y = self.y[indices]
        pure = bool(np.all(y == y[0]))
        return np.array([y.mean()]), 0.0 if pure else float(y.var()), pure

    def _split_scores(self, sorted_indices: np.ndarray) -> np.ndarray:
        # Rows stay C-contiguous so each row's sum is the same pairwise
        # summation as a 1-D ``sum``.
        y = self.y[sorted_indices]  # (F, n)
        n = y.shape[1]
        y_sq = y**2
        csum = np.cumsum(y, axis=1)[:, :-1]
        csum_sq = np.cumsum(y_sq, axis=1)[:, :-1]
        total, total_sq = y.sum(axis=1)[:, None], y_sq.sum(axis=1)[:, None]
        n_left = np.arange(1, n, dtype=np.float64)
        n_right = n - n_left
        left_var = csum_sq / n_left - (csum / n_left) ** 2
        right_var = (total_sq - csum_sq) / n_right - ((total - csum) / n_right) ** 2
        left_var = np.maximum(left_var, 0.0)
        right_var = np.maximum(right_var, 0.0)
        return (n_left / n) * left_var + (n_right / n) * right_var


def _apply_tree(tree: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Return the leaf node id reached by every row of ``X``."""
    node_ids = np.zeros(X.shape[0], dtype=np.int64)
    active = tree["children_left"][node_ids] != _LEAF
    while active.any():
        rows = np.flatnonzero(active)
        current = node_ids[rows]
        feature = tree["feature"][current]
        threshold = tree["threshold"][current]
        go_left = X[rows, feature] <= threshold
        node_ids[rows[go_left]] = tree["children_left"][current[go_left]]
        node_ids[rows[~go_left]] = tree["children_right"][current[~go_left]]
        active = tree["children_left"][node_ids] != _LEAF
    return node_ids


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classification tree.

    Parameters mirror the usual CART knobs.  ``splitter='random'`` evaluates
    one uniformly drawn threshold per candidate feature (the extra-trees
    style split), which is what :class:`repro.ml.forest.ExtraTreesClassifier`
    uses for cheap decorrelated trees.
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features=None,
        criterion: str = "gini",
        splitter: str = "best",
        random_state: RandomState = None,
    ):
        if splitter not in ("best", "random"):
            raise ValidationError(f"splitter must be 'best' or 'random', got {splitter!r}")
        _check_min_samples(min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.criterion = criterion
        self.splitter = splitter
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        encoded = self._encode_labels(y)
        grower = _ClassificationGrower(
            encoded,
            self.n_classes_,
            self.criterion,
            self.splitter,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=self.max_features,
            rng=check_random_state(self.random_state),
        )
        self.tree_ = grower.grow(X)
        self.n_features_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"expected {self.n_features_} features, got {X.shape[1]}")
        leaves = _apply_tree(self.tree_, X)
        return self.tree_["value"][leaves]

    @property
    def n_nodes_(self) -> int:
        check_is_fitted(self, "tree_")
        return int(self.tree_["feature"].shape[0])

    @property
    def depth_(self) -> int:
        """Maximum root-to-leaf depth of the fitted tree."""
        check_is_fitted(self, "tree_")
        depths = np.zeros(self.n_nodes_, dtype=np.int64)
        for node in range(self.n_nodes_):
            for child in (self.tree_["children_left"][node], self.tree_["children_right"][node]):
                if child != _LEAF:
                    depths[child] = depths[node] + 1
        return int(depths.max())


class DecisionTreeRegressor(BaseEstimator):
    """CART regression tree minimizing within-node variance (MSE)."""

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features=None,
        random_state: RandomState = None,
    ):
        _check_min_samples(min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        y = y.astype(np.float64)
        grower = _RegressionGrower(
            y,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=self.max_features,
            rng=check_random_state(self.random_state),
        )
        self.tree_ = grower.grow(X)
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"expected {self.n_features_} features, got {X.shape[1]}")
        leaves = _apply_tree(self.tree_, X)
        return self.tree_["value"][leaves, 0]
