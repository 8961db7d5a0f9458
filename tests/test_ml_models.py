"""Tests for the non-tree model families (forests, boosting, linear, NB, kNN).

A shared contract suite runs every classifier through the same battery;
model-specific behaviours get their own classes below.
"""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.ml import (
    ExtraTreesClassifier,
    GaussianNB,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    RandomForestClassifier,
    clone,
)
from repro.ml.linear import softmax

ALL_CLASSIFIERS = [
    pytest.param(lambda: RandomForestClassifier(15, max_depth=6, random_state=0), id="random_forest"),
    pytest.param(lambda: ExtraTreesClassifier(15, max_depth=8, random_state=0), id="extra_trees"),
    pytest.param(lambda: GradientBoostingClassifier(15, max_depth=2, random_state=0), id="boosting"),
    pytest.param(lambda: LogisticRegression(), id="logistic"),
    pytest.param(lambda: GaussianNB(), id="gaussian_nb"),
    pytest.param(lambda: KNeighborsClassifier(5), id="knn"),
]


@pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
class TestClassifierContract:
    def test_learns_blobs(self, factory, blobs_2class):
        X, y = blobs_2class
        model = factory().fit(X, y)
        assert model.score(X, y) > 0.9

    def test_multiclass_probabilities(self, factory, blobs_3class):
        X, y = blobs_3class
        model = factory().fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (X.shape[0], 3)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)

    def test_classes_sorted_and_predictions_members(self, factory, blobs_3class):
        X, y = blobs_3class
        model = factory().fit(X, y + 10)
        assert model.classes_.tolist() == [10, 11, 12]
        assert set(model.predict(X)) <= {10, 11, 12}

    def test_unfitted_raises(self, factory):
        with pytest.raises(NotFittedError):
            factory().predict([[0.0, 0.0]])

    def test_feature_mismatch_raises(self, factory, blobs_2class):
        X, y = blobs_2class
        model = factory().fit(X, y)
        with pytest.raises(ValidationError):
            model.predict(np.zeros((3, 7)))

    def test_cloneable(self, factory, blobs_2class):
        X, y = blobs_2class
        model = factory()
        copy = clone(model)
        copy.fit(X, y)
        assert copy.score(X, y) > 0.9

    def test_deterministic(self, factory, blobs_2class):
        X, y = blobs_2class
        a = factory().fit(X, y).predict_proba(X)
        b = factory().fit(X, y).predict_proba(X)
        assert np.allclose(a, b)


class TestForestSpecifics:
    def test_more_trees_do_not_hurt_much(self, nonlinear_xor):
        X, y = nonlinear_xor
        small = RandomForestClassifier(3, max_depth=6, random_state=0).fit(X, y)
        big = RandomForestClassifier(40, max_depth=6, random_state=0).fit(X, y)
        assert big.score(X, y) >= small.score(X, y) - 0.05

    def test_member_count(self, blobs_2class):
        X, y = blobs_2class
        forest = RandomForestClassifier(7, random_state=0).fit(X, y)
        assert len(forest.estimators_) == 7

    def test_extra_trees_no_bootstrap_by_default(self, blobs_2class):
        X, y = blobs_2class
        trees = ExtraTreesClassifier(5, random_state=0)
        assert trees._bootstrap_default is False
        trees.fit(X, y)
        assert len(trees.estimators_) == 5

    def test_invalid_n_estimators(self):
        with pytest.raises(ValidationError):
            RandomForestClassifier(0)

    def test_solves_xor_unlike_linear(self, nonlinear_xor):
        X, y = nonlinear_xor
        forest = RandomForestClassifier(25, max_depth=8, random_state=0).fit(X, y)
        linear = LogisticRegression().fit(X, y)
        assert forest.score(X, y) > 0.95
        assert linear.score(X, y) < 0.7  # XOR defeats the linear model


class TestBoostingSpecifics:
    def test_training_loss_decreases_with_rounds(self, nonlinear_xor):
        X, y = nonlinear_xor
        short = GradientBoostingClassifier(3, max_depth=2, random_state=0).fit(X, y)
        long = GradientBoostingClassifier(40, max_depth=2, random_state=0).fit(X, y)
        assert long.score(X, y) > short.score(X, y)

    def test_subsample_validated(self):
        with pytest.raises(ValidationError):
            GradientBoostingClassifier(subsample=0.0)
        with pytest.raises(ValidationError):
            GradientBoostingClassifier(subsample=1.5)

    def test_learning_rate_validated(self):
        with pytest.raises(ValidationError):
            GradientBoostingClassifier(learning_rate=0.0)

    def test_stochastic_variant_learns(self, blobs_2class):
        X, y = blobs_2class
        model = GradientBoostingClassifier(20, subsample=0.7, random_state=0).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_stage_shape(self, blobs_3class):
        X, y = blobs_3class
        model = GradientBoostingClassifier(4, random_state=0).fit(X, y)
        assert len(model.stages_) == 4
        assert all(len(stage) == 3 for stage in model.stages_)


class TestLogisticSpecifics:
    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        out = softmax(logits)
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_softmax_handles_large_logits(self):
        out = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_decision_boundary_roughly_correct(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        y = (2 * X[:, 0] - X[:, 1] > 0).astype(int)
        model = LogisticRegression(C=10.0).fit(X, y)
        # Learned weight direction should align with (2, -1).
        w = model.coef_[1] - model.coef_[0]
        cosine = w @ np.array([2.0, -1.0]) / (np.linalg.norm(w) * np.sqrt(5))
        assert cosine > 0.97

    def test_regularization_shrinks_weights(self, blobs_2class):
        X, y = blobs_2class
        loose = LogisticRegression(C=100.0).fit(X, y)
        tight = LogisticRegression(C=0.01).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_invalid_c(self):
        with pytest.raises(ValidationError):
            LogisticRegression(C=0.0)


class TestNaiveBayesSpecifics:
    def test_gaussian_recovers_means(self, blobs_2class):
        X, y = blobs_2class
        model = GaussianNB().fit(X, y)
        assert model.theta_.shape == (2, 2)
        assert model.theta_[0, 0] < 0 < model.theta_[1, 0]

    def test_gaussian_prior_reflects_imbalance(self):
        X = np.vstack([np.zeros((30, 1)), np.ones((10, 1))]) + np.random.default_rng(0).normal(0, 0.1, (40, 1))
        y = np.array([0] * 30 + [1] * 10)
        model = GaussianNB().fit(X, y)
        assert model.class_prior_[0] == pytest.approx(0.75)


class TestKnnSpecifics:
    def test_k1_memorizes(self, blobs_2class):
        X, y = blobs_2class
        assert KNeighborsClassifier(1).fit(X, y).score(X, y) == 1.0

    def test_k_larger_than_dataset_clamped(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = KNeighborsClassifier(100).fit(X, y)
        proba = model.predict_proba([[5.0]])
        assert np.allclose(proba, [[0.5, 0.5]])

    def test_distance_weighting_prefers_closer(self):
        X = np.array([[0.0], [0.2], [10.0]])
        y = np.array([0, 0, 1])
        uniform = KNeighborsClassifier(3, weights="uniform").fit(X, y)
        weighted = KNeighborsClassifier(3, weights="distance").fit(X, y)
        query = [[0.1]]
        assert weighted.predict_proba(query)[0, 0] > uniform.predict_proba(query)[0, 0]

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            KNeighborsClassifier(0)
        with pytest.raises(ValidationError):
            KNeighborsClassifier(weights="gravity")

    def test_blockwise_matches_small_batches(self, blobs_2class):
        X, y = blobs_2class
        model = KNeighborsClassifier(5).fit(X, y)
        full = model.predict_proba(X)
        rows = np.vstack([model.predict_proba(X[i : i + 1]) for i in range(20)])
        assert np.allclose(full[:20], rows)
