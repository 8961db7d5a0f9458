"""Tests for the CART trees."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import NotFittedError, ValidationError
from repro.ml import tree as tree_module
from repro.ml.forest import ExtraTreesClassifier, RandomForestClassifier, _bootstrap_sample
from repro.ml.metrics import accuracy
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _class_sum, _row_sums
from repro.rng import spawn


class TestClassifierBasics:
    def test_fits_separable_data_perfectly(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.98

    def test_solves_xor(self, nonlinear_xor):
        X, y = nonlinear_xor
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_multiclass(self, blobs_3class):
        X, y = blobs_3class
        tree = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.95
        proba = tree.predict_proba(X)
        assert proba.shape == (X.shape[0], 3)

    def test_predict_proba_rows_sum_to_one(self, blobs_3class):
        X, y = blobs_3class
        tree = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        assert np.allclose(tree.predict_proba(X).sum(axis=1), 1.0)

    def test_string_labels_roundtrip(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["low", "low", "high", "high"])
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert set(tree.predict(X)) <= {"low", "high"}
        assert tree.score(X, y) == 1.0

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_feature_count_checked(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        with pytest.raises(ValidationError):
            tree.predict(np.zeros((2, 5)))


class TestClassifierConstraints:
    def test_max_depth_respected(self, nonlinear_xor):
        X, y = nonlinear_xor
        tree = DecisionTreeClassifier(max_depth=2, random_state=0).fit(X, y)
        assert tree.depth_ <= 2

    def test_depth_zero_stump_via_min_samples(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(min_samples_split=10**6, random_state=0).fit(X, y)
        assert tree.n_nodes_ == 1

    def test_min_samples_leaf(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(min_samples_leaf=30, random_state=0).fit(X, y)
        leaves = tree.tree_["children_left"] == -1
        assert tree.tree_["n_samples"][leaves].min() >= 30

    def test_entropy_criterion_works(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(criterion="entropy", random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_invalid_criterion(self):
        tree = DecisionTreeClassifier(criterion="chaos")
        with pytest.raises(ValidationError):
            tree.fit([[0.0], [1.0]], [0, 1])

    def test_invalid_splitter(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(splitter="weird")

    def test_invalid_min_samples(self):
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValidationError):
            DecisionTreeClassifier(min_samples_leaf=0)

    def test_random_splitter_learns(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(splitter="random", max_depth=8, random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_max_features_fraction(self, blobs_2class):
        X, y = blobs_2class
        tree = DecisionTreeClassifier(max_features=0.5, random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.5

    def test_deterministic_given_seed(self, nonlinear_xor):
        X, y = nonlinear_xor
        a = DecisionTreeClassifier(max_features=1, random_state=5).fit(X, y)
        b = DecisionTreeClassifier(max_features=1, random_state=5).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_constant_features_yield_stump(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.n_nodes_ == 1
        # Stump predicts the empirical distribution.
        assert np.allclose(tree.predict_proba(X[:1]), [[0.5, 0.5]])


class TestRegressor:
    def test_fits_piecewise_constant(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        prediction = tree.predict(X)
        assert np.abs(prediction - y).max() < 1e-9

    def test_reduces_to_mean_on_constant_x(self):
        X = np.ones((10, 1))
        y = np.arange(10.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.predict([[1.0]])[0] == pytest.approx(4.5)

    def test_mse_improves_with_depth(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(300, 1))
        y = np.sin(3 * X.ravel())
        errors = []
        for depth in (1, 3, 6):
            tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
            errors.append(float(np.mean((tree.predict(X) - y) ** 2)))
        assert errors[0] > errors[1] > errors[2]

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict([[0.0]])

    def test_invalid_min_samples(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_split=0)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValidationError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestDeepTrees:
    def test_unbounded_depth_grows_past_the_recursion_limit(self):
        """Alternating labels on one feature force a chain of 1,199 splits."""
        X = np.arange(1200, dtype=np.float64).reshape(-1, 1)
        y = np.arange(1200) % 2
        tree = DecisionTreeClassifier(random_state=0).fit(X, y)
        assert tree.depth_ == 1199
        assert tree.score(X, y) == 1.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(10, 60),
    seed=st.integers(0, 10**6),
    depth=st.integers(1, 6),
)
def test_tree_training_accuracy_monotone_in_depth_property(n, seed, depth):
    """Deeper trees never fit the training data worse (same seed/data)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    if np.unique(y).size < 2:
        return
    shallow = DecisionTreeClassifier(max_depth=depth, random_state=0).fit(X, y)
    deep = DecisionTreeClassifier(max_depth=depth + 2, random_state=0).fit(X, y)
    assert accuracy(y, deep.predict(X)) >= accuracy(y, shallow.predict(X)) - 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_tree_leaf_probabilities_valid_property(seed):
    """Every leaf's class distribution is a valid probability vector."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 3, size=40)
    if np.unique(y).size < 2:
        return
    tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
    values = tree.tree_["value"]
    assert np.all(values >= 0)
    assert np.allclose(values.sum(axis=1), 1.0)


TREE_ARRAYS = ("children_left", "children_right", "feature", "threshold", "n_samples", "value")


def _lockstep_data(seed: int, n: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Tied, constant and continuous columns; class 0 holds one row, so bootstraps can miss it."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.normal(size=n).round(1),
            rng.integers(0, 3, size=n).astype(np.float64),
            np.full(n, 1.5),
            rng.uniform(size=n),
        ]
    )
    y = np.concatenate([[0], 1 + np.arange(n - 1) % (n_classes - 1)])
    return X, rng.permutation(y)


def _lone_members(forest, X, y):
    """Each member regrown alone from its own bootstrap and spawned generator."""
    encoded = np.unique(y, return_inverse=True)[1]
    bootstrap = forest._bootstrap_default if forest.bootstrap is None else forest.bootstrap
    lone = []
    for child in spawn(np.random.default_rng(forest.random_state), forest.n_estimators):
        sample = _bootstrap_sample(child, encoded, len(y)) if bootstrap else np.arange(len(y))
        tree = DecisionTreeClassifier(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            criterion=forest.criterion,
            splitter=forest._splitter,
            random_state=child,
        )
        lone.append(tree.fit(X[sample], encoded[sample]))
    return lone


@settings(max_examples=60, deadline=None)
@given(
    cls=st.sampled_from([RandomForestClassifier, ExtraTreesClassifier]),
    seed=st.integers(0, 10**6),
    n=st.integers(12, 60),
    n_classes=st.integers(2, 10),
    n_estimators=st.integers(1, 7),
    max_features=st.sampled_from([None, "sqrt", "log2", 0.5, 2]),
    criterion=st.sampled_from(["gini", "entropy"]),
    min_samples_leaf=st.integers(1, 4),
    max_depth=st.sampled_from([None, 1, 3, 6]),
    bootstrap=st.booleans(),
)
@example(RandomForestClassifier, 5, 40, 3, 6, "sqrt", "gini", 1, None, True)
@example(ExtraTreesClassifier, 5, 40, 3, 6, "sqrt", "gini", 1, None, True)
@example(RandomForestClassifier, 3, 40, 9, 6, "sqrt", "entropy", 1, None, True)
def test_forest_members_equal_lone_trees_property(
    cls, seed, n, n_classes, n_estimators, max_features, criterion, min_samples_leaf, max_depth, bootstrap
):
    """Lock-step growth is bitwise the growth of each member alone, draws included."""
    X, y = _lockstep_data(seed, n, n_classes)
    forest = cls(
        n_estimators=n_estimators,
        max_features=max_features,
        criterion=criterion,
        min_samples_leaf=min_samples_leaf,
        max_depth=max_depth,
        bootstrap=bootstrap,
        random_state=seed,
    ).fit(X, y)
    for member, lone in zip(forest.estimators_, _lone_members(forest, X, y), strict=True):
        assert np.array_equal(member.classes_, lone.classes_)
        for name in TREE_ARRAYS:
            got, want = member.tree_[name], lone.tree_[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert member.random_state.bit_generator.state == lone.random_state.bit_generator.state
        assert pickle.dumps(member) == pickle.dumps(lone)


@pytest.mark.parametrize("cls", [RandomForestClassifier, ExtraTreesClassifier])
def test_lockstep_examples_cover_uneven_members(cls):
    """The property's explicit examples hold members that finish far apart and miss a class."""
    X, y = _lockstep_data(5, 40, 3)
    forest = cls(n_estimators=6, max_features="sqrt", bootstrap=True, random_state=5).fit(X, y)
    nodes = [member.n_nodes_ for member in forest.estimators_]
    assert max(nodes) >= 2 * min(nodes)
    assert any(member.classes_.size < forest.n_classes_ for member in forest.estimators_)


def test_padded_class_sums_equal_each_tree_alone():
    """A node of a narrower tree sums only its own classes, as it does grown alone.

    Widths of 8 and more are where numpy's pairwise sum would group zero
    padding columns differently from the tree's own columns.
    """
    rng = np.random.default_rng(0)
    widths = np.array([9, 12, 5, 12, 8, 2])
    terms = rng.random((widths.size, 3, 7, 12)) ** 3
    terms = np.where(np.arange(12) < widths[:, None, None, None], terms, 0.0)
    got = _class_sum(terms, widths)
    for node, width in enumerate(widths):
        alone = np.sum(np.ascontiguousarray(terms[node, ..., :width]), axis=-1)
        assert got[node].tobytes() == alone.tobytes()


@pytest.mark.parametrize("cls", [RandomForestClassifier, ExtraTreesClassifier])
def test_steps_split_into_chunks_grow_the_same_trees(cls, monkeypatch):
    """A step searched in many small chunks grows the trees one large block does."""
    X, y = _lockstep_data(7, 60, 4)
    whole = cls(n_estimators=8, max_features=None, random_state=7).fit(X, y)
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 100)
    chunked = cls(n_estimators=8, max_features=None, random_state=7).fit(X, y)
    for a, b in zip(whole.estimators_, chunked.estimators_, strict=True):
        for name in TREE_ARRAYS:
            assert a.tree_[name].tobytes() == b.tree_[name].tobytes(), name


def _grow_per_node(X, y, max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease):
    """The depth-first, one-node-at-a-time regression grower: the oracle of level-wise growth."""
    columns, y = np.ascontiguousarray(X.T), y.astype(np.float64)
    max_depth = np.inf if max_depth is None else max_depth
    arrays = {name: [] for name in TREE_ARRAYS}
    stack = [(np.arange(X.shape[0]), 0, -1, True)]
    while stack:
        indices, depth, parent, is_left = stack.pop()
        node, values = len(arrays["value"]), y[indices]
        if parent >= 0:
            arrays["children_left" if is_left else "children_right"][parent] = node
        for name, item in zip(TREE_ARRAYS, (-1, -1, -1, np.nan, indices.size)):
            arrays[name].append(item)
        mean = np.add.reduce(values) / indices.size
        arrays["value"].append(np.array([mean]))
        if np.all(values == values[0]) or depth >= max_depth:
            continue
        if indices.size < min_samples_split or indices.size < 2 * min_samples_leaf:
            continue
        d = values - mean
        impurity = float(np.add.reduce(d * d) / indices.size)
        block = columns[:, indices]
        order = np.argsort(block, axis=1, kind="stable")
        sorted_block = np.take_along_axis(block, order, axis=1)
        ys = y[indices[order]]
        n, n_left = indices.size, np.arange(1, indices.size, dtype=np.float64)
        n_right = n - n_left
        csum, csum_sq = np.cumsum(ys, axis=1)[:, :-1], np.cumsum(ys**2, axis=1)[:, :-1]
        total, total_sq = ys.sum(axis=1)[:, None], (ys**2).sum(axis=1)[:, None]
        left_var = np.maximum(csum_sq / n_left - (csum / n_left) ** 2, 0.0)
        right_var = np.maximum((total_sq - csum_sq) / n_right - ((total - csum) / n_right) ** 2, 0.0)
        scores = (n_left / n) * left_var + (n_right / n) * right_var
        sides_ok = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        valid = (sorted_block[:, :-1] != sorted_block[:, 1:]) & sides_ok
        scores = np.where(valid, scores, np.inf)
        positions = np.argmin(scores, axis=1)
        gains = impurity - scores[np.arange(len(scores)), positions]
        row = int(np.argmax(gains))
        if gains[row] == -np.inf or gains[row] < min_impurity_decrease:
            continue
        p = positions[row]
        threshold = float(0.5 * (sorted_block[row, p] + sorted_block[row, p + 1]))
        left = columns[row, indices] <= threshold
        if left.sum() < min_samples_leaf or (~left).sum() < min_samples_leaf:
            continue
        arrays["feature"][node], arrays["threshold"][node] = row, threshold
        stack += [(indices[~left], depth + 1, node, False), (indices[left], depth + 1, node, True)]
    dtypes = dict(children_left=np.int64, children_right=np.int64, feature=np.int64, n_samples=np.int64)
    return {
        name: np.vstack(arrays[name]) if name == "value" else np.array(arrays[name], dtype=dtypes.get(name, np.float64))
        for name in TREE_ARRAYS
    }


def _regression_data(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Continuous, tied and constant columns; targets that tie half the time."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.normal(size=n).round(1),
            rng.integers(0, 3, size=n).astype(np.float64),
            np.full(n, 0.5),
        ]
    )
    y = X[:, 0] - X[:, 2] + 0.3 * rng.normal(size=n)
    return X, (y.round(0) if seed % 2 else y)


def _assert_same_tree(got, want):
    for name in TREE_ARRAYS:
        assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


REGRESSION_SETTINGS = dict(
    max_depth=st.sampled_from([None, 1, 2, 3, 4, 5, 6]),
    min_samples_split=st.sampled_from([2, 3, 7]),
    min_samples_leaf=st.integers(1, 5),
    min_impurity_decrease=st.sampled_from([0.0, 1e-3, 0.05]),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 300), **REGRESSION_SETTINGS)
@example(seed=1, n=300, max_depth=None, min_samples_split=2, min_samples_leaf=1, min_impurity_decrease=0.0)
@example(seed=2, n=129, max_depth=None, min_samples_split=2, min_samples_leaf=1, min_impurity_decrease=0.0)
@example(seed=4, n=9, max_depth=3, min_samples_split=2, min_samples_leaf=1, min_impurity_decrease=0.0)
def test_level_wise_regression_tree_equals_per_node_growth_property(
    seed, n, max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease
):
    """A lone regression tree grown by level is bitwise the depth-first per-node tree."""
    X, y = _regression_data(seed, n)
    params = dict(
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        min_impurity_decrease=min_impurity_decrease,
    )
    _assert_same_tree(DecisionTreeRegressor(**params).fit(X, y).tree_, _grow_per_node(X, y, **params))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 300), k=st.integers(1, 5), **REGRESSION_SETTINGS)
@example(seed=3, n=300, k=4, max_depth=5, min_samples_split=2, min_samples_leaf=1, min_impurity_decrease=0.0)
def test_trees_grown_together_equal_lone_fits_property(
    seed, n, k, max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease
):
    """One ``_fit_members`` call over K targets grows what K lone fits on the same rows grow."""
    X, _ = _regression_data(seed, n)
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    targets = rng.normal(size=(k, rows.size)).round(int(rng.integers(0, 3)))
    params = dict(
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        min_impurity_decrease=min_impurity_decrease,
    )
    members = [DecisionTreeRegressor(**params) for _ in range(k)]
    DecisionTreeRegressor._fit_members(members, X, rows, targets)
    for member, target in zip(members, targets, strict=True):
        assert member.n_features_ == X.shape[1]
        _assert_same_tree(member.tree_, DecisionTreeRegressor(**params).fit(X[rows], target).tree_)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=8),
    inner=st.sampled_from([(), (1,), (5,)]),
)
@example(seed=0, sizes=[7, 8, 9, 128, 129, 300], inner=(3,))
@example(seed=1, sizes=[200, 200], inner=())
def test_row_sums_equal_one_dimensional_sums_property(seed, sizes, inner):
    """Each row sums bitwise as a 1-D ``np.add.reduce`` of its own entries; padding is never summed."""
    rng = np.random.default_rng(seed)
    sizes = np.array(sizes)
    width = int(sizes.max())
    shape = (*inner, sizes.size, width)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)
    values[rng.random(shape) < 0.1] = -0.0
    values = np.where(np.arange(width) < sizes[:, None], values, np.nan)  # padding
    got = _row_sums(values, sizes)
    assert got.shape == values.shape[:-1]
    for index in np.ndindex(*inner):
        for node, size in enumerate(sizes):
            want = np.add.reduce(values[index][node][:size].copy())
            assert got[index][node].tobytes() == want.tobytes()


def test_boosting_stages_searched_in_small_chunks_grow_the_same_trees(monkeypatch):
    """A level cut into many chunks, by either budget, grows the trees one block does."""
    X, y = _lockstep_data(3, 60, 4)

    def stage_trees():
        model = GradientBoostingClassifier(n_estimators=3, max_depth=4, subsample=0.8, random_state=3).fit(X, y)
        return [tree.tree_ for stage in model.stages_ for tree in stage]

    whole = stage_trees()
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 100)
    small_blocks = stage_trees()
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", 1 << 18)
    monkeypatch.setattr(tree_module, "_PAD_ELEMENTS", 0)
    no_padding = stage_trees()
    for a, b, c in zip(whole, small_blocks, no_padding, strict=True):
        _assert_same_tree(b, a)
        _assert_same_tree(c, a)
