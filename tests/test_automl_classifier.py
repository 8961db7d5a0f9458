"""Tests for the AutoMLClassifier façade."""

import pickle

import numpy as np
import pytest

from repro.automl import AutoMLClassifier
from repro.exceptions import NotFittedError, ValidationError
from repro.ml import balanced_accuracy
from repro.runtime import ArtifactCache


class TestAutoMLClassifier:
    def test_learns_blobs_well(self, blobs_2class):
        X, y = blobs_2class
        automl = AutoMLClassifier(n_iterations=8, ensemble_size=4, random_state=0).fit(X, y)
        assert automl.score(X, y) > 0.9

    def test_exposes_ensemble_members(self, fitted_automl):
        members = fitted_automl.ensemble_members_
        assert len(members) >= 3  # min_distinct_members floor
        for member in members:
            assert hasattr(member, "predict_proba")

    def test_min_distinct_members_floor(self, blobs_2class):
        X, y = blobs_2class
        automl = AutoMLClassifier(
            n_iterations=8, ensemble_size=1, min_distinct_members=5, random_state=1
        ).fit(X, y)
        assert len(automl.ensemble_members_) == 5

    def test_floor_capped_by_evaluated_candidates(self, blobs_2class):
        X, y = blobs_2class
        automl = AutoMLClassifier(
            n_iterations=2, ensemble_size=1, min_distinct_members=10, random_state=2
        ).fit(X, y)
        assert len(automl.ensemble_members_) <= 2

    def test_predict_proba_valid(self, fitted_automl, scream_data):
        proba = fitted_automl.predict_proba(scream_data.X[:20])
        assert proba.shape == (20, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all(proba >= 0)

    def test_unfitted_raises(self):
        automl = AutoMLClassifier()
        with pytest.raises(NotFittedError):
            automl.predict([[0.0]])
        with pytest.raises(NotFittedError):
            automl.ensemble_members_

    def test_search_result_recorded(self, fitted_automl):
        result = fitted_automl.search_result_
        assert result.evaluated
        assert result.best.score >= max(item.score for item in result.evaluated) - 1e-12

    def test_describe_readable(self, fitted_automl):
        text = fitted_automl.describe()
        assert "ensemble" in text and "best single candidate" in text

    def test_multiclass(self, blobs_3class):
        X, y = blobs_3class
        automl = AutoMLClassifier(n_iterations=6, ensemble_size=3, random_state=3).fit(X, y)
        assert balanced_accuracy(y, automl.predict(X)) > 0.9
        assert automl.classes_.tolist() == [0, 1, 2]

    def test_reproducible_with_seed(self, blobs_2class):
        X, y = blobs_2class
        a = AutoMLClassifier(n_iterations=5, random_state=11).fit(X, y)
        b = AutoMLClassifier(n_iterations=5, random_state=11).fit(X, y)
        assert np.allclose(a.predict_proba(X), b.predict_proba(X))

    def test_same_seed_fits_pickle_and_publish_identically(self, scream_data, tmp_path):
        """A fit's bytes depend on its seed alone, so the cache files it once.

        The runtime cache, the store and the model registry all keep
        pickled fits under content addresses; a timing read stored in the
        fit would give every refit new bytes and a new key.
        """
        X, y = scream_data.X, scream_data.y
        a = AutoMLClassifier(n_iterations=8, random_state=7).fit(X, y)
        b = AutoMLClassifier(n_iterations=8, random_state=7).fit(X, y)
        assert pickle.dumps(a) == pickle.dumps(b)
        cache = ArtifactCache(tmp_path)
        assert cache.publish(a) == cache.publish(b)
        assert cache.info()["entries"] == 1

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            AutoMLClassifier(ensemble_size=0)
        with pytest.raises(ValidationError):
            AutoMLClassifier(min_distinct_members=0)

    def test_string_labels(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 2))
        y = np.where(X[:, 0] > 0, "right", "left")
        automl = AutoMLClassifier(n_iterations=5, random_state=0).fit(X, y)
        assert set(automl.predict(X)) <= {"left", "right"}
