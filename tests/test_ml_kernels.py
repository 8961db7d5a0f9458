"""Tests for the flat-array ensemble prediction kernels.

The load-bearing property is *bitwise* identity: the TreeBank fast path
must reproduce the legacy per-member loops' float sequences exactly, or
the golden-master fixtures and the serve offline-vs-served tests drift.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml import (
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
    TreeBank,
    softmax,
)
from repro.ml.forest import _MAX_BOOTSTRAP_REDRAWS, _bootstrap_sample
from repro.ml.tree import DecisionTreeClassifier, _apply_tree


def _dataset(seed, n=120, n_features=5, n_classes=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = rng.integers(0, n_classes, size=n)
    return X, y


class TestTreeBank:
    def _fitted_trees(self, seed, n_trees=4):
        X, y = _dataset(seed)
        trees = [
            DecisionTreeClassifier(max_depth=d, random_state=seed + d).fit(X, y)
            for d in range(2, 2 + n_trees)
        ]
        return X, trees

    def test_apply_matches_per_tree_apply(self):
        X, trees = self._fitted_trees(seed=0)
        bank = TreeBank([tree.tree_ for tree in trees])
        leaves = bank.apply(X)
        assert leaves.shape == (len(trees), X.shape[0])
        for t, tree in enumerate(trees):
            expected = _apply_tree(tree.tree_, X) + bank.offsets[t]
            assert np.array_equal(leaves[t], expected)

    def test_offsets_are_node_count_prefix_sums(self):
        _, trees = self._fitted_trees(seed=1)
        bank = TreeBank([tree.tree_ for tree in trees])
        sizes = [tree.tree_["feature"].shape[0] for tree in trees]
        assert bank.offsets[0] == 0
        assert np.array_equal(np.diff(bank.offsets), sizes)
        assert bank.n_nodes == sum(sizes)
        assert bank.n_trees == len(trees)

    def test_value_scatter_preserves_bits_and_zeros_rest(self):
        X, y = _dataset(seed=2, n_classes=4)
        tree = DecisionTreeClassifier(max_depth=3, random_state=2).fit(X, y)
        columns = np.array([1, 2, 4, 5], dtype=np.int64)
        bank = TreeBank([tree.tree_], value_columns=[columns], n_value_columns=7)
        assert bank.value.shape == (tree.tree_["value"].shape[0], 7)
        assert np.array_equal(bank.value[:, columns], tree.tree_["value"])
        rest = np.setdiff1d(np.arange(7), columns)
        assert np.all(bank.value[:, rest] == 0.0)

    def test_validation(self):
        _, trees = self._fitted_trees(seed=3, n_trees=2)
        dicts = [tree.tree_ for tree in trees]
        with pytest.raises(ValidationError, match="at least one tree"):
            TreeBank([])
        with pytest.raises(ValidationError, match="together"):
            TreeBank(dicts, value_columns=[np.arange(3), np.arange(3)])
        with pytest.raises(ValidationError, match="column maps"):
            TreeBank(dicts, value_columns=[np.arange(3)], n_value_columns=3)
        with pytest.raises(ValidationError, match="the map names"):
            TreeBank(dicts, value_columns=[np.arange(2), np.arange(2)], n_value_columns=3)


class TestForestKernel:
    @pytest.mark.parametrize("cls", [RandomForestClassifier, ExtraTreesClassifier])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bank_bitwise_equals_per_member(self, cls, seed):
        X, y = _dataset(seed)
        model = cls(n_estimators=12, max_depth=5, random_state=seed).fit(X, y)
        X_test = np.random.default_rng(seed + 100).normal(size=(64, X.shape[1]))
        assert np.array_equal(model.predict_proba(X_test), model._predict_proba_per_member(X_test))

    def test_class_subset_members_bitwise(self):
        # A tiny bootstrapped fit makes some member trees miss a class,
        # exercising the value-scatter path of the bank.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = np.array([0] * 5 + [1] * 5 + [2] * 2)
        model = RandomForestClassifier(n_estimators=20, max_depth=3, random_state=7).fit(X, y)
        assert any(tree.classes_.size < model.n_classes_ for tree in model.estimators_)
        assert np.array_equal(model.predict_proba(X), model._predict_proba_per_member(X))

    def test_pickle_drops_bank_and_predicts_identically(self):
        X, y = _dataset(seed=5)
        model = RandomForestClassifier(n_estimators=6, random_state=5).fit(X, y)
        before = model.predict_proba(X)  # forces bank construction
        assert model._bank is not None
        restored = pickle.loads(pickle.dumps(model))
        assert restored._bank is None
        assert np.array_equal(restored.predict_proba(X), before)

    def test_single_class_fit_raises(self):
        X = np.random.default_rng(6).normal(size=(20, 3))
        with pytest.raises(ValidationError, match="at least 2 distinct classes"):
            RandomForestClassifier(n_estimators=3, random_state=6).fit(X, np.zeros(20))

    def test_bootstrap_redraw_cap_raises(self):
        class _StuckRng:
            """Always samples row 0 — every draw is single-class."""

            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        encoded = np.array([0, 1, 0, 1])
        with pytest.raises(ValidationError, match="redraws"):
            _bootstrap_sample(_StuckRng(), encoded, encoded.size, max_redraws=5)
        assert _MAX_BOOTSTRAP_REDRAWS >= 5

    def test_bootstrap_sample_keeps_two_classes(self):
        rng = np.random.default_rng(8)
        encoded = np.array([0] * 19 + [1])
        for _ in range(25):
            sample = _bootstrap_sample(rng, encoded, encoded.size)
            assert np.unique(encoded[sample]).size >= 2


class TestBoostingKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bank_bitwise_equals_per_member(self, seed):
        X, y = _dataset(seed)
        model = GradientBoostingClassifier(n_estimators=8, max_depth=2, random_state=seed).fit(X, y)
        X_test = np.random.default_rng(seed + 200).normal(size=(48, X.shape[1]))
        assert np.array_equal(
            model.decision_function(X_test), model._decision_function_per_member(X_test)
        )
        slow = softmax(model._decision_function_per_member(X_test))
        assert np.array_equal(model.predict_proba(X_test), slow)

    def test_pickle_drops_bank_and_predicts_identically(self):
        X, y = _dataset(seed=9)
        model = GradientBoostingClassifier(n_estimators=5, random_state=9).fit(X, y)
        before = model.predict_proba(X)
        assert model._bank is not None
        restored = pickle.loads(pickle.dumps(model))
        assert restored._bank is None
        assert np.array_equal(restored.predict_proba(X), before)


class TestStackedPredictionInvariance:
    """Row independence: batch composition never changes predicted bits.

    This is the invariant the batched committee ALE (and the serving
    engine's micro-batching) relies on.
    """

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomForestClassifier(n_estimators=8, random_state=0),
            lambda: ExtraTreesClassifier(n_estimators=8, random_state=0),
            lambda: GradientBoostingClassifier(n_estimators=5, random_state=0),
        ],
    )
    def test_stacked_equals_separate(self, factory):
        X, y = _dataset(seed=10)
        model = factory().fit(X, y)
        rng = np.random.default_rng(11)
        a = rng.normal(size=(30, X.shape[1]))
        b = rng.normal(size=(50, X.shape[1]))
        stacked = model.predict_proba(np.concatenate([a, b], axis=0))
        assert np.array_equal(stacked[:30], model.predict_proba(a))
        assert np.array_equal(stacked[30:], model.predict_proba(b))
