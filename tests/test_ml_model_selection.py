"""Tests for repro.ml.model_selection."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ml.model_selection import partition_evenly, stratified_split_indices, train_test_split


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(100.0).reshape(-1, 1)
        y = np.arange(100)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.2, random_state=0)
        assert X_test.shape[0] == 20 and X_train.shape[0] == 80

    def test_no_overlap_and_full_coverage(self):
        X = np.arange(50.0).reshape(-1, 1)
        y = np.arange(50)
        X_train, X_test, _, _ = train_test_split(X, y, test_size=0.3, random_state=1)
        combined = np.sort(np.concatenate([X_train.ravel(), X_test.ravel()]))
        assert np.array_equal(combined, np.arange(50.0))

    def test_stratified_preserves_ratio(self):
        y = np.array([0] * 80 + [1] * 20)
        X = np.zeros((100, 1))
        _, _, y_train, y_test = train_test_split(X, y, test_size=0.25, stratify=True, random_state=2)
        assert np.mean(y_test) == pytest.approx(0.2, abs=0.05)
        assert np.mean(y_train) == pytest.approx(0.2, abs=0.05)

    def test_stratified_keeps_rare_class_in_train(self):
        y = np.array([0] * 20 + [1] * 2)
        X = np.zeros((22, 1))
        _, _, y_train, _ = train_test_split(X, y, test_size=0.5, stratify=True, random_state=3)
        assert (y_train == 1).sum() >= 1

    def test_reproducible(self):
        X = np.arange(30.0).reshape(-1, 1)
        y = np.arange(30)
        a = train_test_split(X, y, random_state=9)[0]
        b = train_test_split(X, y, random_state=9)[0]
        assert np.array_equal(a, b)

    def test_invalid_test_size(self):
        with pytest.raises(ValidationError):
            train_test_split(np.zeros((5, 1)), np.zeros(5), test_size=1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            train_test_split(np.zeros((5, 1)), np.zeros(4))


class TestPartitionEvenly:
    def test_covers_everything_once(self):
        rng = np.random.default_rng(0)
        parts = partition_evenly(47, 5, rng=rng)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(47))

    def test_sizes_nearly_equal(self):
        rng = np.random.default_rng(1)
        sizes = [p.size for p in partition_evenly(103, 20, rng=rng)]
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_groups(self):
        with pytest.raises(ValidationError):
            partition_evenly(3, 5, rng=np.random.default_rng(0))


class TestStratifiedSplitIndices:
    def test_disjoint_and_complete(self):
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        train, test = stratified_split_indices(y, test_fraction=0.5, rng=np.random.default_rng(0))
        assert np.intersect1d(train, test).size == 0
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(8))
