"""CART decision trees (classification and regression).

A from-scratch, numpy-vectorized CART implementation.  Trees grow from an
explicit pre-order stack (right child pushed before left), so depth is not
bounded by Python's recursion limit and node ids and random draws come in
the order a recursive grower would give them.  They are stored as flat
arrays (``children_left`` / ``children_right`` / ``feature`` /
``threshold`` / ``value``), which keeps prediction a tight vectorized loop
and makes the structure easy to inspect in tests.

Classification trees grow in lock-step: :class:`_ClassificationGrower`
takes any number of trees (a forest's members, or one standalone tree) and
advances every unfinished tree by one node per step.  Each tree keeps its
own generator, rows and pre-order stack, so its ``choice`` and ``uniform``
draws happen in the same order with the same arguments as when it grows
alone.  Only the numpy work of a step is shared:

- the class counts of all popped nodes come from one ``bincount`` over a
  shared row space (every tree's rows get global ids, tree after tree,
  which map to rows of ``X`` and to that tree's own class codes);
- the exhaustive search is one ``(nodes, features, rows)`` block (nodes
  smaller than the step's largest are padded with ``+inf``): a stable
  argsort along the rows orders every candidate feature of every node,
  and one-hot prefix counts score every split position at once;
- the extra-trees search is the same block with one uniform threshold per
  non-constant row, counted with 0/1 float matmuls;
- the partition of every split node is one comparison and one stable sort.

This is bitwise identical to growing each tree alone: every score is an
elementwise function of exact integer class counts and sizes, padded
positions are invalid (``+inf`` score), ties still go to the first
position and then the first candidate feature, and the only reduction
over classes (the impurity's sum) runs over each tree's own class columns.
A step whose block would exceed ``_BLOCK_ELEMENTS`` is searched in chunks
of nodes of similar size, so that its memory stays bounded.

Regression trees, which :mod:`repro.ml.boosting` fits to gradient
residuals, grow one node at a time with the same block search over
row-wise ``cumsum`` prefix sums.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..rng import RandomState, check_random_state
from .base import BaseEstimator, ClassifierMixin, check_array, check_is_fitted, check_X_y

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_NO_FEATURE = -1
_LEAF = -1

#: Largest ``nodes * features * rows * classes`` block one classification
#: search call builds; a step with more is searched in several chunks.
_BLOCK_ELEMENTS = 1 << 18


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


def _candidate_features(rng: np.random.Generator, max_features, n_features: int) -> np.ndarray:
    """The features a node searches: all of them, or a draw of ``max_features``."""
    k = _resolve_max_features(max_features, n_features)
    if k >= n_features:
        return np.arange(n_features)
    return rng.choice(n_features, size=k, replace=False)


def _class_sum(terms: np.ndarray, widths: np.ndarray | None) -> np.ndarray:
    """Sum the last axis of ``terms`` over each node's own ``widths[node]`` class columns.

    Nodes lie on axis 0; ``widths`` is None when every node has all the
    columns.  A narrower tree's class columns are zero-padded at the end;
    summing the padding too could regroup numpy's pairwise sum and move a
    bit, so each node sums exactly the columns it has alone.
    """
    if widths is None:
        return np.add.reduce(terms, axis=-1)
    out = np.empty(terms.shape[:-1])
    for width in np.unique(widths):
        nodes = widths == width
        out[nodes] = np.add.reduce(terms[nodes][..., :width], axis=-1)
    return out


class _Nodes:
    """One tree's node arrays, appended in pre-order as its nodes are popped."""

    __slots__ = ("left", "right", "feature", "threshold", "n_samples", "value")

    def __init__(self):
        self.left: list[int] = []
        self.right: list[int] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.n_samples: list[int] = []
        self.value: list[np.ndarray] = []

    def add(self, parent: int, is_left: bool, n_samples: int, value: np.ndarray) -> int:
        """Append a leaf, link it to its parent and return its id."""
        node_id = len(self.value)
        if parent != _LEAF:
            (self.left if is_left else self.right)[parent] = node_id
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.feature.append(_NO_FEATURE)
        self.threshold.append(np.nan)
        self.n_samples.append(n_samples)
        self.value.append(value)
        return node_id

    def arrays(self, n_value_columns: int | None = None) -> dict[str, np.ndarray]:
        value = np.vstack(self.value)
        if n_value_columns is not None and n_value_columns < value.shape[1]:
            value = np.ascontiguousarray(value[:, :n_value_columns])
        return {
            "children_left": np.array(self.left, dtype=np.int64),
            "children_right": np.array(self.right, dtype=np.int64),
            "feature": np.array(self.feature, dtype=np.int64),
            "threshold": np.array(self.threshold, dtype=np.float64),
            "n_samples": np.array(self.n_samples, dtype=np.int64),
            "value": value,
        }


def _size_chunks(sizes: np.ndarray, elements_per_row: int) -> list[np.ndarray]:
    """Positions of ``sizes`` cut into chunks whose padded blocks fit the budget.

    A step that fits whole is one chunk; a larger one is cut in descending
    size, so that each chunk pads its nodes to a similar width.
    """
    if sizes.size * int(sizes.max()) * elements_per_row <= _BLOCK_ELEMENTS:
        return [np.arange(sizes.size)]
    order = (-sizes).argsort(kind="stable")
    chunks = []
    start = 0
    while start < order.size:
        per_node = int(sizes[order[start]]) * elements_per_row
        stop = start + max(1, _BLOCK_ELEMENTS // per_node)
        chunks.append(order[start:stop])
        start = stop
    return chunks


class _ClassificationGrower:
    """Grows classification trees in lock-step, one node per tree per step.

    Tree ``t`` grows on the rows ``samples[t]`` of ``X`` (a bootstrap may
    repeat rows), whose labels ``labels[t]`` it codes ``0..n_classes[t]-1``,
    and draws from ``rngs[t]``.  All trees' rows share one global id space
    (tree after tree), so a step's nodes index one label array and one
    id-to-row map; ``X`` itself is not copied per tree.  A one-tree call is
    a standalone :class:`DecisionTreeClassifier`.
    """

    def __init__(
        self,
        criterion: str,
        splitter: str,
        *,
        max_depth,
        min_samples_split,
        min_samples_leaf,
        min_impurity_decrease,
        max_features,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValidationError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
        self.criterion = criterion
        self.splitter = splitter
        self.max_depth = np.inf if max_depth is None else max_depth
        # The fewest rows a node needs to be searched at all.
        self.min_split_size = max(min_samples_split, 2 * min_samples_leaf)
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features

    def grow(
        self,
        X: np.ndarray,
        samples: list[np.ndarray],
        labels: list[np.ndarray],
        n_classes: list[int],
        rngs: list[np.random.Generator],
    ) -> list[dict[str, np.ndarray]]:
        n_rows, n_features = X.shape
        self._n_classes = max(n_classes)
        # One row per feature plus a sentinel column whose value is +inf:
        # it sorts after every real value.  The sentinel id ``self._pad``
        # maps to it and has an out-of-range class that counts nowhere, so
        # padding a block with it changes no score.
        self._columns = np.empty((n_features, n_rows + 1))
        self._columns[:, :n_rows] = X.T
        self._columns[:, n_rows] = np.inf
        self._source = np.append(np.concatenate(samples), n_rows)
        self._labels = np.append(np.concatenate(labels), self._n_classes)
        self._pad = self._source.size - 1
        self._classes = np.arange(self._n_classes)
        ends = np.cumsum([sample.size for sample in samples])
        roots = [np.arange(end - sample.size, end) for sample, end in zip(samples, ends)]
        widths = np.asarray(n_classes, dtype=np.int64)
        if (widths == self._n_classes).all():
            widths = None  # every tree sums all the class columns
        trees = [_Nodes() for _ in roots]
        # (indices, depth, parent id, is left child); the root has no parent.
        stacks = [[(root, 0, _LEAF, True)] for root in roots]
        active = list(range(len(roots)))
        # The empty side of an invalid split divides 0 by 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            while active:
                self._step(active, [stacks[t].pop() for t in active], trees, stacks, widths, rngs)
                active = [t for t in active if stacks[t]]
        return [tree.arrays(width) for tree, width in zip(trees, n_classes)]

    def _step(self, active, popped, trees, stacks, widths, rngs) -> None:
        """Add one node to every active tree and push the children of those that split."""
        indices = [node[0] for node in popped]
        sizes = np.array([rows.size for rows in indices])
        counts = self._class_counts(indices, sizes)
        totals = sizes.astype(np.float64)
        values = counts / totals[:, None]
        node_ids = [
            trees[t].add(parent, is_left, rows.size, value)
            for t, (rows, _, parent, is_left), value in zip(active, popped, values)
        ]
        depths = np.array([node[1] for node in popped])
        pure = counts.max(axis=1) == totals
        candidates = (~pure & (depths < self.max_depth) & (sizes >= self.min_split_size)).nonzero()[0]
        if candidates.size == 0:
            return
        tree_ids = [active[j] for j in candidates]
        feature, threshold, gain = self._search(
            [indices[j] for j in candidates],
            sizes[candidates],
            counts[candidates],
            None if widths is None else widths[tree_ids],
            [rngs[t] for t in tree_ids],
        )
        # A gain of -inf marks a node without a valid split.
        split = ((gain > -np.inf) & (gain >= self.min_impurity_decrease)).nonzero()[0]
        if split.size == 0:
            return
        children = self._partition([indices[candidates[s]] for s in split], feature[split], threshold[split])
        for s, left, right in zip(split, children[0::2], children[1::2]):
            if left.size < self.min_samples_leaf or right.size < self.min_samples_leaf:
                continue
            j = candidates[s]
            t, node_id, depth = active[j], node_ids[j], popped[j][1]
            trees[t].feature[node_id] = int(feature[s])
            trees[t].threshold[node_id] = float(threshold[s])
            stacks[t].append((right, depth + 1, node_id, False))
            stacks[t].append((left, depth + 1, node_id, True))

    def _class_counts(self, indices: list[np.ndarray], sizes: np.ndarray) -> np.ndarray:
        """``(nodes, classes)`` float counts of every node, in one ``bincount``."""
        C = self._n_classes
        node_of_row = (np.arange(sizes.size) * C).repeat(sizes)
        keys = node_of_row + self._labels[np.concatenate(indices)]
        return np.bincount(keys, minlength=sizes.size * C).reshape(sizes.size, C).astype(np.float64)

    def _impurity(self, counts: np.ndarray, totals: np.ndarray, widths: np.ndarray | None) -> np.ndarray:
        """Impurity of count rows; ``totals`` broadcasts against ``counts``.

        A zero total gives NaN; only invalid splits have one, and the
        searches mask their scores.
        """
        p = counts / totals
        if self.criterion == "gini":
            return 1.0 - _class_sum(p**2, widths)
        logp = np.log2(p, out=np.zeros_like(p), where=p > 0)
        return -_class_sum(p * logp, widths)

    def _split_scores(self, left, right, n_left, n_right, n, widths) -> np.ndarray:
        """Size-weighted impurity of the two sides of every candidate split."""
        impurity_left = self._impurity(left, n_left[..., None], widths)
        impurity_right = self._impurity(right, n_right[..., None], widths)
        return (n_left / n) * impurity_left + (n_right / n) * impurity_right

    def _search(self, indices, sizes, counts, widths, rngs):
        """Best split of every candidate node: ``(feature, threshold, gain)`` arrays.

        Candidate features are drawn node by node, each from its own tree's
        generator; the nodes are then searched in chunks, each as one
        ``(nodes, features, rows)`` block of ``X``'s values.
        """
        n_features = self._columns.shape[0]
        features = np.array([_candidate_features(rng, self.max_features, n_features) for rng in rngs])
        parent = self._impurity(counts, sizes[:, None], widths)
        feature = np.empty(sizes.size, dtype=np.int64)
        threshold = np.empty(sizes.size)
        gain = np.empty(sizes.size)
        for chunk in _size_chunks(sizes, features.shape[1] * self._n_classes):
            rows, real = self._padded_rows([indices[c] for c in chunk], sizes[chunk])
            chunk_features = features[chunk]
            block = self._columns[chunk_features[:, :, None], self._source[rows][:, None, :]]
            chunk_widths = None if widths is None else widths[chunk]
            if self.splitter == "best":
                row, threshold[chunk], gain[chunk] = self._search_best(
                    block, rows, sizes[chunk], counts[chunk], parent[chunk], chunk_widths
                )
            else:
                chunk_rngs = [rngs[c] for c in chunk]
                row, threshold[chunk], gain[chunk] = self._search_random(
                    block, rows, real, sizes[chunk], counts[chunk], parent[chunk], chunk_widths, chunk_rngs
                )
            feature[chunk] = chunk_features[np.arange(chunk.size), row]
        return feature, threshold, gain

    def _padded_rows(self, indices, sizes) -> tuple[np.ndarray, np.ndarray | None]:
        """Every node's row ids in their original order, one node per row, and the mask of real ids.

        Nodes narrower than the widest are padded with the sentinel id; the
        mask is None when no node is.
        """
        rows = np.concatenate(indices)
        width = int(sizes.max())
        if rows.size == sizes.size * width:
            return rows.reshape(sizes.size, width), None
        real = np.arange(width) < sizes[:, None]
        padded = np.full(real.shape, self._pad)
        padded[real] = rows
        return padded, real

    def _search_best(self, block, rows, sizes, counts, parent, widths):
        """Exhaustive search: the best position of every feature, then the best feature."""
        nodes = np.arange(sizes.size)
        order = block.argsort(axis=2, kind="stable")
        sorted_block = np.sort(block, axis=2, kind="stable")  # the values in ``order``
        sorted_labels = self._labels[rows[nodes[:, None, None], order]]
        # Position p puts the first p + 1 sorted samples on the left.
        left = (sorted_labels[..., None] == self._classes).cumsum(axis=2, dtype=np.float64)[:, :, :-1]
        right = counts[:, None, None, :] - left
        n = sizes.astype(np.float64)[:, None, None]
        n_left = np.arange(1, block.shape[2], dtype=np.float64)
        n_right = n - n_left
        scores = self._split_scores(left, right, n_left, n_right, n, widths)
        # A position is valid between distinct values when both sides keep
        # enough samples; padded positions never do.
        valid = (
            (sorted_block[:, :, :-1] != sorted_block[:, :, 1:])
            & (n_left >= self.min_samples_leaf)
            & (n_right >= self.min_samples_leaf)
        )
        scores = np.where(valid, scores, np.inf)
        positions = scores.argmin(axis=2)
        gains = parent[:, None] - scores.min(axis=2)
        row = gains.argmax(axis=1)  # -inf: no valid position
        p = positions[nodes, row]
        threshold = 0.5 * (sorted_block[nodes, row, p] + sorted_block[nodes, row, p + 1])
        return row, threshold, gains[nodes, row]

    def _search_random(self, block, rows, real, sizes, counts, parent, widths, rngs):
        """Extra-trees search: one uniform threshold per non-constant feature, drawn in feature order."""
        nodes = np.arange(sizes.size)
        lo = block.min(axis=2)
        hi = (block if real is None else np.where(real[:, None, :], block, -np.inf)).max(axis=2)
        live = lo != hi
        # Each node draws from its own generator, over its live features only.
        lo_live, hi_live = lo[live], hi[live]
        bounds = live.sum(axis=1).cumsum().tolist()
        draws = [
            rng.uniform(lo_live[start:stop], hi_live[start:stop])
            for rng, start, stop in zip(rngs, [0] + bounds, bounds)
            if stop > start
        ]
        thresholds = np.full(lo.shape, np.nan)
        if draws:
            thresholds[live] = np.concatenate(draws)
        goes_left = block <= thresholds[:, :, None]
        # 0/1 float matmuls count each side's classes exactly.
        one_hot = (self._labels[rows][..., None] == self._classes).astype(np.float64)
        left = goes_left.astype(np.float64) @ one_hot
        right = counts[:, None, :] - left
        n = sizes.astype(np.float64)[:, None]
        n_left = goes_left.sum(axis=2, dtype=np.float64)
        n_right = n - n_left
        scores = self._split_scores(left, right, n_left, n_right, n, widths)
        valid = live & (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
        gains = np.where(valid, parent[:, None] - scores, -np.inf)
        row = gains.argmax(axis=1)
        return row, thresholds[nodes, row], gains[nodes, row]

    def _partition(self, indices, feature, threshold) -> list[np.ndarray]:
        """``[left_0, right_0, left_1, ...]``: every split node's rows, order kept, in one pass."""
        sizes = np.array([rows.size for rows in indices])
        node = np.arange(sizes.size).repeat(sizes)
        rows = np.concatenate(indices)
        side = 2 * node + (self._columns[feature[node], self._source[rows]] > threshold[node])
        bounds = np.bincount(side, minlength=2 * sizes.size).cumsum().tolist()
        rows = rows[side.argsort(kind="stable")]
        return [rows[start:stop] for start, stop in zip([0] + bounds, bounds)]


class _RegressionGrower:
    """Grows one regression tree, one node at a time.

    Each node's split search is one block pass over its candidate
    features: the node's values form an ``(F, n)`` block, a stable
    row-wise argsort orders every row, and row-wise ``cumsum`` prefix sums
    score every split position of every feature together.
    """

    def __init__(
        self,
        y: np.ndarray,
        *,
        max_depth,
        min_samples_split,
        min_samples_leaf,
        min_impurity_decrease,
        max_features,
        rng,
    ):
        self.y = y.astype(np.float64)
        self.max_depth = np.inf if max_depth is None else max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.rng = rng

    def grow(self, X: np.ndarray) -> dict[str, np.ndarray]:
        self._columns = np.ascontiguousarray(X.T)  # one row per feature
        nodes = _Nodes()
        # (indices, depth, parent id, is left child); the root has no parent.
        stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(X.shape[0]), 0, _LEAF, True)]
        while stack:
            indices, depth, parent, is_left = stack.pop()
            value, impurity, pure = self._node_stats(indices)
            node_id = nodes.add(parent, is_left, indices.size, value)
            children = None if pure else self._split_node(indices, depth, impurity)
            if children is not None:
                feature, threshold, left_idx, right_idx = children
                nodes.feature[node_id] = feature
                nodes.threshold[node_id] = threshold
                stack.append((right_idx, depth + 1, node_id, False))
                stack.append((left_idx, depth + 1, node_id, True))
        return nodes.arrays()

    def _node_stats(self, indices: np.ndarray) -> tuple[np.ndarray, float, bool]:
        """Leaf mean, variance and purity: numpy's own mean/var sequence, without its wrappers."""
        y = self.y[indices]
        n = y.size
        mean = np.add.reduce(y) / n
        pure = bool(np.all(y == y[0]))
        if pure:
            return np.array([mean]), 0.0, True
        d = y - mean
        return np.array([mean]), float(np.add.reduce(d * d) / n), False

    def _split_node(self, indices: np.ndarray, depth: int, impurity: float):
        """``(feature, threshold, left, right)`` of the impure node, or None for a leaf."""
        if (
            depth >= self.max_depth
            or indices.size < self.min_samples_split
            or indices.size < 2 * self.min_samples_leaf
        ):
            return None
        features = _candidate_features(self.rng, self.max_features, self._columns.shape[0])
        block = self._columns[features[:, None], indices]
        found = self._search_block(indices, block, impurity)
        if found is None:
            return None
        row, threshold, gain = found
        if gain < self.min_impurity_decrease:
            return None
        feature = int(features[row])
        left_mask = self._columns[feature, indices] <= threshold
        left_idx, right_idx = indices[left_mask], indices[~left_mask]
        if left_idx.size < self.min_samples_leaf or right_idx.size < self.min_samples_leaf:
            return None
        return feature, threshold, left_idx, right_idx

    def _search_block(
        self, indices: np.ndarray, block: np.ndarray, parent_impurity: float
    ) -> tuple[int, float, float] | None:
        """Exhaustive search: the best position of every row, then the first best row."""
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

    def _split_scores(self, sorted_indices: np.ndarray) -> np.ndarray:
        """Size-weighted variance of both sides of every position, ``(F, n - 1)``."""
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
        # A standalone tree is the one-tree case of lock-step growth.
        self._fit_members([self], X, [np.arange(X.shape[0])], [encoded], [self.classes_])
        return self

    @staticmethod
    def _fit_members(members, X, samples, labels, classes) -> None:
        """Grow ``members`` in lock-step and set their fitted attributes.

        Member ``t`` grows on the rows ``samples[t]`` of ``X``, whose labels
        ``labels[t]`` code its ``classes[t]`` as ``0..k-1``, and draws from
        its own ``random_state``.  Every member has the first one's growth
        settings.  The attributes are set in the same order for a lone tree
        and for a forest's members, so that both pickle alike.
        """
        first = members[0]
        grower = _ClassificationGrower(
            first.criterion,
            first.splitter,
            max_depth=first.max_depth,
            min_samples_split=first.min_samples_split,
            min_samples_leaf=first.min_samples_leaf,
            min_impurity_decrease=first.min_impurity_decrease,
            max_features=first.max_features,
        )
        rngs = [check_random_state(member.random_state) for member in members]
        trees = grower.grow(X, samples, labels, [member_classes.size for member_classes in classes], rngs)
        for member, tree, member_classes in zip(members, trees, classes):
            member.classes_, member.tree_, member.n_features_ = member_classes, tree, X.shape[1]

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
