"""CART decision trees (classification and regression).

A from-scratch, numpy-vectorized CART implementation.  Trees are stored as
flat arrays (``children_left`` / ``children_right`` / ``feature`` /
``threshold`` / ``value``) whose node ids run in pre-order (a node, its
left subtree, then its right), which keeps prediction a tight vectorized
loop and makes the structure easy to inspect in tests.  Growth is
iterative, so depth is not bounded by Python's recursion limit.

Classification trees grow in lock-step: :class:`_ClassificationGrower`
takes any number of trees (a forest's members, or one standalone tree) and
advances every unfinished tree by one node per step, from its own
pre-order stack (right child pushed before left).  Each tree keeps its own
generator, rows and stack, so its ``choice`` and ``uniform`` draws happen
in the same order with the same arguments as when it grows alone.  Only
the numpy work of a step is shared:

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

Regression trees, which :mod:`repro.ml.boosting` fits to gradient
residuals, grow level by level: :class:`_RegressionGrower` takes the trees
of one boosting stage (or one standalone tree), which share their rows and
draw nothing, and each step handles every open node of one depth in every
tree with the same padded block search over row-wise ``cumsum`` prefix
sums and one partition.  Node ids are renumbered to pre-order at the end.
It is bitwise identical to growing each tree depth-first, node by node,
because a prefix sum runs sequentially (trailing padding never reaches a
real one) and the sums that numpy computes pairwise (a node's targets and
squared deviations, and each feature's total and total of squares) are
taken per distinct node size on unpadded copies (:func:`_row_sums`).

A step whose block would exceed ``_BLOCK_ELEMENTS``, or carry more than
``_PAD_ELEMENTS`` of padding, is searched in chunks of nodes of similar
size, so that its memory stays bounded and little work goes to padding.
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
#: search call builds (``nodes * features * rows`` for regression); a step
#: with more is searched in several chunks.
_BLOCK_ELEMENTS = 1 << 18
#: Most padded elements a step's block may carry before it is cut into
#: chunks of similar size: past this, padding costs more than a search call.
_PAD_ELEMENTS = 1 << 12


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
    """One tree's node arrays, appended as its nodes are grown (pre-order, or level order for ``_preorder``)."""

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
    """Positions of ``sizes`` cut into chunks whose padded blocks fit the budgets.

    A step that fits whole, with little padding, is one chunk.  Otherwise
    the nodes are taken in descending size, and a chunk is cut when it
    would exceed ``_BLOCK_ELEMENTS`` or when padding the nodes still to
    come to its width would waste more than ``_PAD_ELEMENTS``: then each
    chunk pads its nodes to a similar width.
    """
    width = int(sizes.max())
    padding = (sizes.size * width - int(sizes.sum())) * elements_per_row
    if sizes.size * width * elements_per_row <= _BLOCK_ELEMENTS and padding <= _PAD_ELEMENTS:
        return [np.arange(sizes.size)]
    order = (-sizes).argsort(kind="stable")
    ordered = sizes[order].tolist()
    chunks = []
    start = 0
    for j, size in enumerate(ordered[1:], 1):
        width = ordered[start]
        full = (j - start + 1) * width * elements_per_row > _BLOCK_ELEMENTS
        wasteful = (width - size) * (len(ordered) - j) * elements_per_row > _PAD_ELEMENTS
        if full or wasteful:
            chunks.append(order[start:j])
            start = j
    chunks.append(order[start:])
    return chunks


def _row_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum the first ``sizes[node]`` entries of the last axis of ``values``, nodes on the axis before it.

    A node narrower than the block is padded; summing the padding too would
    regroup numpy's pairwise sum and move a bit.  So each distinct size is
    summed on its own unpadded C-contiguous copy, where every row sums as a
    1-D ``np.add.reduce`` of its entries would.
    """
    if (sizes == values.shape[-1]).all():
        return np.add.reduce(np.ascontiguousarray(values), axis=-1)
    out = np.empty(values.shape[:-1])
    groups: dict[int, list[int]] = {}
    for node, size in enumerate(sizes.tolist()):
        groups.setdefault(size, []).append(node)
    for size, nodes in groups.items():
        index = nodes if len(nodes) > 1 else nodes[0]
        out[..., index] = np.add.reduce(np.ascontiguousarray(values[..., index, :size]), axis=-1)
    return out


class _Grower:
    """The row space that the growers' steps index.

    Every tree's rows get global ids, tree after tree, which map to rows of
    ``X`` through ``_source``; so a step's nodes index one id-to-row map,
    and ``X`` is not copied per tree.  ``_columns`` holds one row per
    feature plus a sentinel column whose value is +inf: it sorts after
    every real value, and the sentinel id ``_pad`` maps to it.
    """

    def _share_rows(self, X: np.ndarray, samples: list[np.ndarray]) -> list[np.ndarray]:
        """Set up the row space of trees grown on ``samples``; return each tree's root ids."""
        n_rows, n_features = X.shape
        self._columns = np.empty((n_features, n_rows + 1))
        self._columns[:, :n_rows] = X.T
        self._columns[:, n_rows] = np.inf
        self._source = np.append(np.concatenate(samples), n_rows)
        self._pad = self._source.size - 1
        ends = np.cumsum([sample.size for sample in samples])
        return [np.arange(end - sample.size, end) for sample, end in zip(samples, ends)]

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

    def _partition(self, indices, feature, threshold) -> list[np.ndarray]:
        """``[left_0, right_0, left_1, ...]``: every split node's rows, order kept, in one pass."""
        sizes = np.array([rows.size for rows in indices])
        node = np.arange(sizes.size).repeat(sizes)
        rows = np.concatenate(indices)
        side = 2 * node + (self._columns[feature[node], self._source[rows]] > threshold[node])
        bounds = np.bincount(side, minlength=2 * sizes.size).cumsum().tolist()
        rows = rows[side.argsort(kind="stable")]
        return [rows[start:stop] for start, stop in zip([0] + bounds, bounds)]


class _ClassificationGrower(_Grower):
    """Grows classification trees in lock-step, one node per tree per step.

    Tree ``t`` grows on the rows ``samples[t]`` of ``X`` (a bootstrap may
    repeat rows), whose labels ``labels[t]`` it codes ``0..n_classes[t]-1``,
    and draws from ``rngs[t]``.  The sentinel id has an out-of-range class
    that counts nowhere, so padding a block with it changes no score.  A
    one-tree call is a standalone :class:`DecisionTreeClassifier`.
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
        self._n_classes = max(n_classes)
        roots = self._share_rows(X, samples)
        self._labels = np.append(np.concatenate(labels), self._n_classes)
        self._classes = np.arange(self._n_classes)
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


class _RegressionGrower(_Grower):
    """Grows regression trees that share their rows together, level by level.

    Tree ``t`` fits ``targets[t]`` on the rows ``rows`` of ``X`` (a boosting
    stage's class trees, or one standalone tree).  Each step takes every
    open node of one depth in every tree: their means, purity and variance
    come from the same sums a node grown alone takes, and their split
    searches are ``(features, nodes, rows)`` blocks whose stable argsort
    orders every feature of every node and whose row-wise ``cumsum`` prefix
    sums score every position at once.  The trees draw nothing, so growing
    them by depth instead of depth-first changes no split; node ids are
    renumbered to pre-order at the end.
    """

    def __init__(self, *, max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease):
        self.max_depth = np.inf if max_depth is None else max_depth
        # The fewest rows a node needs to be searched at all.
        self.min_split_size = max(min_samples_split, 2 * min_samples_leaf)
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease

    def grow(self, X: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> list[dict[str, np.ndarray]]:
        roots = self._share_rows(X, [rows] * len(targets))
        # The sentinel id's target is never summed: sums skip padding.
        self._y = np.append(np.asarray(targets, dtype=np.float64).ravel(), 0.0)
        trees = [_Nodes() for _ in roots]
        # The open nodes of one depth: (tree, indices, parent id, is left child).
        level = [(t, root, _LEAF, True) for t, root in enumerate(roots)]
        depth = 0
        # The padding and the empty side of a position divide by 0 or less.
        with np.errstate(divide="ignore", invalid="ignore"):
            while level:
                level = self._step(level, depth, trees)
                depth += 1
        return [_preorder(tree.arrays()) for tree in trees]

    def _step(self, level, depth, trees) -> list:
        """Add every node of ``level`` to its tree; return the next depth's nodes."""
        indices = [node[1] for node in level]
        sizes = np.array([rows.size for rows in indices])
        means = np.empty(sizes.size)
        searched = np.zeros(sizes.size, dtype=bool)
        impurity = np.empty(sizes.size)
        for chunk in _size_chunks(sizes, 1):
            means[chunk], searched[chunk], impurity[chunk] = self._node_stats(
                [indices[c] for c in chunk], sizes[chunk], depth < self.max_depth
            )
        node_ids = [
            trees[t].add(parent, is_left, size, mean)
            for (t, _, parent, is_left), size, mean in zip(level, sizes.tolist(), means[:, None])
        ]
        candidates = searched.nonzero()[0]
        if candidates.size == 0:
            return []
        feature, threshold, gain = self._search(
            [indices[c] for c in candidates], sizes[candidates], impurity[candidates]
        )
        # A gain of -inf marks a node without a valid split.
        split = ((gain > -np.inf) & (gain >= self.min_impurity_decrease)).nonzero()[0]
        if split.size == 0:
            return []
        children = self._partition([indices[candidates[s]] for s in split], feature[split], threshold[split])
        following = []
        for s, left, right in zip(split, children[0::2], children[1::2]):
            if left.size < self.min_samples_leaf or right.size < self.min_samples_leaf:
                continue
            j = candidates[s]
            t, node_id = level[j][0], node_ids[j]
            trees[t].feature[node_id] = int(feature[s])
            trees[t].threshold[node_id] = float(threshold[s])
            following += [(t, left, node_id, True), (t, right, node_id, False)]
        return following

    def _node_stats(self, indices, sizes, may_split: bool):
        """``(mean, searched, impurity)`` arrays: impure nodes with enough rows are searched.

        Only searched nodes get their impurity (the variance of their
        targets); the rest keep NaN.
        """
        rows, real = self._padded_rows(indices, sizes)
        y = self._y[rows]  # node order, as a node's mean and variance sum it
        means = _row_sums(y, sizes) / sizes
        impurity = np.full(sizes.size, np.nan)
        if not may_split:
            return means, np.zeros(sizes.size, dtype=bool), impurity
        same = y == y[:, :1]
        if real is not None:
            same |= ~real
        searched = (sizes >= self.min_split_size) & ~same.all(axis=1)
        nodes = searched.nonzero()[0]
        d = y[nodes] - means[nodes, None]
        impurity[nodes] = _row_sums(d * d, sizes[nodes]) / sizes[nodes]
        return means, searched, impurity

    def _search(self, indices, sizes, impurity):
        """Best split of every candidate node: ``(feature, threshold, gain)`` arrays."""
        feature = np.empty(sizes.size, dtype=np.int64)
        threshold = np.empty(sizes.size)
        gain = np.empty(sizes.size)
        for chunk in _size_chunks(sizes, self._columns.shape[0]):
            rows, _ = self._padded_rows([indices[c] for c in chunk], sizes[chunk])
            feature[chunk], threshold[chunk], gain[chunk] = self._search_block(rows, sizes[chunk], impurity[chunk])
        return feature, threshold, gain

    def _search_block(self, rows, sizes, parent):
        """Exhaustive search of one chunk: the best position of every feature, then the first best feature."""
        n_features = self._columns.shape[0]
        m, width = rows.shape
        # Blocks are ``(features, nodes, rows)``: one take gathers the values.
        block = self._columns.take(self._source[rows], axis=1)
        order = block.argsort(axis=2, kind="stable")
        sorted_block = block.take(order + (np.arange(n_features * m) * width).reshape(n_features, m, 1))
        # Every node's targets in each feature's sorted order, with their
        # squares stacked behind them, so one sum per size takes both totals.
        stacked = np.empty((2, n_features, m, width))
        y = self._y[rows].take(order + (np.arange(m) * width)[:, None], out=stacked[0])
        y_sq = np.square(y, out=stacked[1])
        totals = _row_sums(stacked.reshape(2 * n_features, m, width), sizes)[..., None]
        total, total_sq = totals[:n_features], totals[n_features:]
        # Position p puts the first p + 1 sorted samples on the left; the
        # prefix sums run sequentially, so padding never reaches a real one.
        csum = np.cumsum(y, axis=2)[..., :-1]
        csum_sq = np.cumsum(y_sq, axis=2)[..., :-1]
        n = sizes.astype(np.float64)[:, None]
        n_left = np.arange(1, width, dtype=np.float64)
        n_right = n - n_left
        left_var = np.maximum(csum_sq / n_left - (csum / n_left) ** 2, 0.0)
        right_var = np.maximum((total_sq - csum_sq) / n_right - ((total - csum) / n_right) ** 2, 0.0)
        scores = (n_left / n) * left_var + (n_right / n) * right_var
        # A position is valid between distinct values when both sides keep
        # enough samples; padded positions never do.
        valid = (
            (sorted_block[..., :-1] != sorted_block[..., 1:])
            & (n_left >= self.min_samples_leaf)
            & (n_right >= self.min_samples_leaf)
        )
        scores = np.where(valid, scores, np.inf)
        positions = scores.argmin(axis=2)
        gains = parent - scores.min(axis=2)
        feature = gains.argmax(axis=0)  # -inf: no valid position
        nodes = np.arange(m)
        p = positions[feature, nodes]
        threshold = 0.5 * (sorted_block[feature, nodes, p] + sorted_block[feature, nodes, p + 1])
        return feature, threshold, gains[feature, nodes]


def _preorder(tree: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``tree``'s arrays with its node ids renumbered to pre-order: a node, its left subtree, its right."""
    left, right = tree["children_left"].tolist(), tree["children_right"].tolist()
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if left[node] != _LEAF:
            stack += (right[node], left[node])
    order = np.array(order)
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    out = {name: array[order] for name, array in tree.items()}
    for name in ("children_left", "children_right"):
        out[name] = np.where(out[name] == _LEAF, _LEAF, new_id[out[name]])
    return out


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
    ):
        _check_min_samples(min_samples_split, min_samples_leaf)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        # A standalone tree is the one-tree case of growing trees together.
        self._fit_members([self], X, np.arange(X.shape[0]), y[None, :])
        return self

    @staticmethod
    def _fit_members(members, X, rows, targets) -> None:
        """Grow ``members`` together and set their fitted attributes.

        Member ``t`` fits ``targets[t]`` (one target per entry of ``rows``)
        on the rows ``rows`` of ``X``.  Every member has the first one's
        growth settings.
        """
        first = members[0]
        grower = _RegressionGrower(
            max_depth=first.max_depth,
            min_samples_split=first.min_samples_split,
            min_samples_leaf=first.min_samples_leaf,
            min_impurity_decrease=first.min_impurity_decrease,
        )
        for member, tree in zip(members, grower.grow(X, rows, targets)):
            member.tree_, member.n_features_ = tree, X.shape[1]

    def predict(self, X) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValidationError(f"expected {self.n_features_} features, got {X.shape[1]}")
        leaves = _apply_tree(self.tree_, X)
        return self.tree_["value"][leaves, 0]
