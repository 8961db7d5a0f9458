"""Tests for the active-learning baselines and upsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.active import (
    consensus_kl,
    least_confidence_scores,
    random_oversample,
    sample_uniform,
    select_by_committee,
    select_least_confident,
    vote_entropy,
)
from repro.core.subspace import FeatureDomain
from repro.exceptions import ValidationError
from repro.ml import GaussianNB, LogisticRegression


class _FixedProbaModel:
    def __init__(self, proba):
        self.proba = np.asarray(proba, dtype=np.float64)

    def predict_proba(self, X):
        return self.proba

    def predict(self, X):
        return np.argmax(self.proba, axis=1)


class TestUniform:
    def test_in_domains(self):
        domains = [FeatureDomain("a", 0, 1), FeatureDomain("b", 10, 20), FeatureDomain("n", 1, 5, integer=True)]
        points = sample_uniform(domains, 200, random_state=0)
        assert points.shape == (200, 3)
        assert points[:, 0].min() >= 0 and points[:, 0].max() <= 1
        assert points[:, 1].min() >= 10 and points[:, 1].max() <= 20
        assert np.all(points[:, 2] == np.round(points[:, 2]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            sample_uniform([], 5)
        with pytest.raises(ValidationError):
            sample_uniform([FeatureDomain("a", 0, 1)], 0)


class TestConfidence:
    def test_least_confidence_ranks_uncertain_first(self):
        proba = np.array([[0.99, 0.01], [0.55, 0.45], [0.80, 0.20]])
        model = _FixedProbaModel(proba)
        picks = select_least_confident(model, np.zeros((3, 2)), 2)
        assert picks.tolist() == [1, 2]

    def test_pool_size_validation(self):
        model = _FixedProbaModel(np.full((3, 2), 0.5))
        with pytest.raises(ValidationError):
            select_least_confident(model, np.zeros((3, 2)), 5)
        with pytest.raises(ValidationError):
            select_least_confident(model, np.zeros((3, 2)), 0)

    def test_on_real_model_boundary_points_selected(self, blobs_2class):
        X, y = blobs_2class
        model = LogisticRegression().fit(X, y)
        pool = np.array([[-5.0, 0.0], [0.0, 0.5], [5.0, 1.0]])  # middle is near boundary
        picks = select_least_confident(model, pool, 1)
        assert picks[0] == 1


class TestQBC:
    def test_vote_entropy_zero_when_unanimous(self):
        members = [_FixedProbaModel(np.array([[0.9, 0.1], [0.8, 0.2]]))] * 3
        scores = vote_entropy(members, np.zeros((2, 2)))
        assert np.allclose(scores, 0.0)

    def test_vote_entropy_max_when_split(self):
        a = _FixedProbaModel(np.array([[0.9, 0.1]]))
        b = _FixedProbaModel(np.array([[0.1, 0.9]]))
        scores = vote_entropy([a, b], np.zeros((1, 2)))
        assert scores[0] == pytest.approx(np.log(2))

    def test_consensus_kl_detects_confidence_disagreement(self):
        # Same argmax, different confidence: vote entropy is blind to it,
        # consensus KL is not.
        a = _FixedProbaModel(np.array([[0.99, 0.01]]))
        b = _FixedProbaModel(np.array([[0.51, 0.49]]))
        assert vote_entropy([a, b], np.zeros((1, 2)))[0] == pytest.approx(0.0)
        assert consensus_kl([a, b], np.zeros((1, 2)))[0] > 0.1

    def test_select_by_committee_top_disagreement(self):
        a = _FixedProbaModel(np.array([[0.9, 0.1], [0.9, 0.1]]))
        b = _FixedProbaModel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        picks = select_by_committee([a, b], np.zeros((2, 2)), 1)
        assert picks.tolist() == [1]

    def test_committee_size_validated(self):
        with pytest.raises(ValidationError):
            vote_entropy([_FixedProbaModel(np.ones((1, 2)))], np.zeros((1, 2)))

    def test_unknown_disagreement(self):
        a = _FixedProbaModel(np.full((1, 2), 0.5))
        with pytest.raises(ValidationError):
            select_by_committee([a, a], np.zeros((1, 2)), 1, disagreement="vibes")

    def test_works_with_real_ensemble(self, fitted_automl, scream_data):
        members = fitted_automl.ensemble_members_
        picks = select_by_committee(members, scream_data.X[:50], 5)
        assert picks.shape == (5,)
        assert np.unique(picks).size == 5


class TestUpsampling:
    def _imbalanced(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = np.array([0] * 50 + [1] * 10)
        return X, y

    def test_random_oversample_balances(self):
        X, y = self._imbalanced()
        X_up, y_up = random_oversample(X, y, random_state=0)
        _, counts = np.unique(y_up, return_counts=True)
        assert counts[0] == counts[1] == 50

    def test_random_oversample_only_duplicates(self):
        X, y = self._imbalanced()
        X_up, _ = random_oversample(X, y, random_state=0)
        original = {tuple(row) for row in X}
        assert all(tuple(row) in original for row in X_up)

    def test_balanced_input_unchanged_size(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10)
        X_up, _ = random_oversample(X, y, random_state=0)
        assert X_up.shape[0] == 20

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_oversample(np.zeros((3, 1)), np.zeros(4))


@settings(max_examples=30, deadline=None)
@given(
    n_major=st.integers(5, 30),
    n_minor=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
)
def test_oversample_balance_property(n_major, n_minor, seed):
    """After oversampling, every class count equals the majority count."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_major + n_minor, 2))
    y = np.array([0] * n_major + [1] * n_minor)
    _, y_up = random_oversample(X, y, random_state=seed)
    _, counts = np.unique(y_up, return_counts=True)
    assert counts.min() == counts.max() == max(n_major, n_minor)
