"""Tests for the CART trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotFittedError, ValidationError
from repro.ml.metrics import accuracy
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


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
