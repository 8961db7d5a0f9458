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
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor, _class_sum
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
        tree = DecisionTreeRegressor(max_depth=2, random_state=0).fit(X, y)
        prediction = tree.predict(X)
        assert np.abs(prediction - y).max() < 1e-9

    def test_reduces_to_mean_on_constant_x(self):
        X = np.ones((10, 1))
        y = np.arange(10.0)
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        assert tree.predict([[1.0]])[0] == pytest.approx(4.5)

    def test_mse_improves_with_depth(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(300, 1))
        y = np.sin(3 * X.ravel())
        errors = []
        for depth in (1, 3, 6):
            tree = DecisionTreeRegressor(max_depth=depth, random_state=0).fit(X, y)
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
