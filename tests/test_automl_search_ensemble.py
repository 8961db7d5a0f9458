"""Tests for the random search and ensemble selection."""

import numpy as np
import pytest

from repro.automl.ensemble import EnsembleClassifier, greedy_ensemble_selection
from repro.automl.search import RandomSearch
from repro.exceptions import SearchBudgetError, ValidationError
from repro.ml import GaussianNB, LogisticRegression


class TestRandomSearch:
    def test_returns_sorted_results(self, blobs_2class):
        X, y = blobs_2class
        result = RandomSearch(n_iterations=8, random_state=0).run(X, y)
        scores = [item.score for item in result.evaluated]
        assert scores == sorted(scores, reverse=True)
        assert result.best.score == scores[0]

    def test_respects_iteration_budget(self, blobs_2class):
        """The candidate count is the whole budget: exactly that many run."""
        X, y = blobs_2class
        result = RandomSearch(n_iterations=5, random_state=0).run(X, y)
        assert len(result.evaluated) + len(result.failures) == 5

    def test_valid_proba_matches_split(self, blobs_2class):
        X, y = blobs_2class
        search = RandomSearch(n_iterations=4, random_state=1)
        result = search.run(X, y)
        for item in result.evaluated:
            assert item.valid_proba.shape == (result.valid_indices.size, 2)

    def test_split_is_disjoint(self, blobs_2class):
        X, y = blobs_2class
        result = RandomSearch(n_iterations=3, random_state=2).run(X, y)
        assert np.intersect1d(result.train_indices, result.valid_indices).size == 0

    def test_invalid_budgets(self):
        with pytest.raises(SearchBudgetError):
            RandomSearch(n_iterations=0)

    def test_reproducible(self, blobs_2class):
        X, y = blobs_2class
        a = RandomSearch(n_iterations=6, random_state=3).run(X, y)
        b = RandomSearch(n_iterations=6, random_state=3).run(X, y)
        assert [i.candidate.family for i in a.evaluated] == [i.candidate.family for i in b.evaluated]
        assert [i.score for i in a.evaluated] == [i.score for i in b.evaluated]


class TestGreedyEnsembleSelection:
    def test_avoids_harmful_candidate(self):
        y_valid = np.array([0, 0, 1, 1])
        classes = np.array([0, 1])
        # Softly correct vs confidently wrong: averaging in the bad model
        # would flip the argmax, so greedy selection must never add it.
        good = np.array([[0.6, 0.4], [0.6, 0.4], [0.4, 0.6], [0.4, 0.6]])
        bad = np.array([[0.01, 0.99], [0.01, 0.99], [0.99, 0.01], [0.99, 0.01]])
        picks = greedy_ensemble_selection([bad, good], y_valid, classes, ensemble_size=4)
        assert set(picks) == {1}

    def test_combines_complementary_models(self):
        # Model A nails the first half, model B the second; the averaged
        # ensemble beats either alone.
        y_valid = np.array([0, 0, 1, 1])
        classes = np.array([0, 1])
        a = np.array([[0.95, 0.05], [0.95, 0.05], [0.55, 0.45], [0.45, 0.55]])
        b = np.array([[0.45, 0.55], [0.55, 0.45], [0.05, 0.95], [0.05, 0.95]])
        picks = greedy_ensemble_selection([a, b], y_valid, classes, ensemble_size=6)
        assert {0, 1} <= set(picks)

    def test_size_respected(self):
        y_valid = np.array([0, 1])
        classes = np.array([0, 1])
        proba = np.array([[0.6, 0.4], [0.4, 0.6]])
        picks = greedy_ensemble_selection([proba], y_valid, classes, ensemble_size=3)
        assert len(picks) == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            greedy_ensemble_selection([], np.array([0]), np.array([0, 1]))
        with pytest.raises(ValidationError):
            greedy_ensemble_selection(
                [np.ones((3, 2))], np.array([0, 1]), np.array([0, 1]), ensemble_size=1
            )


class TestEnsembleClassifier:
    def _members(self, blobs):
        X, y = blobs
        return [GaussianNB().fit(X, y), LogisticRegression().fit(X, y)]

    def test_weighted_average(self, blobs_2class):
        X, y = blobs_2class
        members = self._members(blobs_2class)
        ensemble = EnsembleClassifier(members, [3.0, 1.0], np.array([0, 1]))
        expected = 0.75 * members[0].predict_proba(X) + 0.25 * members[1].predict_proba(X)
        assert np.allclose(ensemble.predict_proba(X), expected)

    def test_weights_normalized(self, blobs_2class):
        members = self._members(blobs_2class)
        ensemble = EnsembleClassifier(members, [2.0, 2.0], np.array([0, 1]))
        assert np.allclose(ensemble.weights, [0.5, 0.5])

    def test_member_predictions_shape(self, blobs_2class):
        X, _ = blobs_2class
        ensemble = EnsembleClassifier(self._members(blobs_2class), [1, 1], np.array([0, 1]))
        votes = ensemble.member_predictions(X[:10])
        assert votes.shape == (2, 10)

    def test_validation(self, blobs_2class):
        members = self._members(blobs_2class)
        with pytest.raises(ValidationError):
            EnsembleClassifier([], [], np.array([0, 1]))
        with pytest.raises(ValidationError):
            EnsembleClassifier(members, [1.0], np.array([0, 1]))
        with pytest.raises(ValidationError):
            EnsembleClassifier(members, [1.0, -1.0], np.array([0, 1]))

    def test_len(self, blobs_2class):
        ensemble = EnsembleClassifier(self._members(blobs_2class), [1, 1], np.array([0, 1]))
        assert len(ensemble) == 2

    def test_score(self, blobs_2class):
        X, y = blobs_2class
        ensemble = EnsembleClassifier(self._members(blobs_2class), [1, 1], np.array([0, 1]))
        assert ensemble.score(X, y) > 0.9
